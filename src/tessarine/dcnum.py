"""Double-complex (tessarine) scalars in the idempotent basis.

A tessarine w + z*j (with complex w, z and j*j = 1) is stored as the pair
(p, q) of coefficients over the idempotents e = (1+j)/2 and e* = (1-j)/2.
In this basis multiplication, division and the swap conjugation are all
componentwise or branch-free, which is why it is the internal
representation; (w, z) accessors are provided for I/O.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import ZeroDivisor

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class DoubleComplex:
    """A tessarine scalar p*e + q*e* with complex components p and q."""

    p: complex
    q: complex

    # -- (w, z) form: value = w + z*j ------------------------------------

    @classmethod
    def from_wz(cls, w: complex, z: complex) -> "DoubleComplex":
        return cls(complex(w) + complex(z), complex(w) - complex(z))

    @property
    def w(self) -> complex:
        return (self.p + self.q) / 2

    @property
    def z(self) -> complex:
        return (self.p - self.q) / 2

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "DoubleComplex") -> "DoubleComplex":
        return DoubleComplex(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "DoubleComplex") -> "DoubleComplex":
        return DoubleComplex(self.p - other.p, self.q - other.q)

    def __neg__(self) -> "DoubleComplex":
        return DoubleComplex(-self.p, -self.q)

    def __mul__(self, other: "DoubleComplex") -> "DoubleComplex":
        return DoubleComplex(self.p * other.p, self.q * other.q)

    def conj(self) -> "DoubleComplex":
        """Swap involution: (p, q) -> (q, p)."""
        return DoubleComplex(self.q, self.p)

    def inverse(self) -> "DoubleComplex":
        """Componentwise reciprocal; fails on zero divisors and zero."""
        if self.p == 0 or self.q == 0:
            raise ZeroDivisor(f"{self!r} has a vanishing idempotent component")
        return DoubleComplex(1 / self.p, 1 / self.q)

    def is_zero_divisor(self, tol: float = 0.0) -> bool:
        """Exactly one idempotent component vanishes (and the value is nonzero)."""
        return (abs(self.p) <= tol) != (abs(self.q) <= tol)

    def approx_eq(self, other: "DoubleComplex", tol: float = DEFAULT_TOL) -> bool:
        return abs(self.p - other.p) <= tol and abs(self.q - other.q) <= tol

    def __repr__(self) -> str:
        return f"DoubleComplex({self.p!r}, {self.q!r})"


ZERO = DoubleComplex(0, 0)
ONE = DoubleComplex(1, 1)
J = DoubleComplex(1, -1)  # j itself: w=0, z=1
E = DoubleComplex(1, 0)  # idempotent (1+j)/2
E_STAR = DoubleComplex(0, 1)  # idempotent (1-j)/2


def in_halfplane(x: complex, axis_tol: float = 0.0) -> bool:
    """True if x has positive real part, or zero real part and imag >= 0.

    A real part within axis_tol of zero counts as zero, so on the
    imaginary axis up to that noise the sign of the imaginary part decides.
    """
    re = 0.0 if abs(x.real) <= axis_tol else x.real
    return re > 0 or (re == 0 and x.imag >= 0)


def halfplane_sqrt(x: complex, axis_tol: float = 0.0) -> complex:
    """Complex square root landed in the half-plane; 0 maps to 0.

    For x within axis_tol of the branch cut (the negative real axis) the
    root's real part is below axis_tol / (2|root|), and the sign of its
    imaginary part decides; the result still squares to x.
    """
    r = cmath.sqrt(x)
    mag = abs(r)
    if mag == 0:
        return r
    return r if in_halfplane(r, axis_tol / (2 * mag)) else -r


def sqrt_halfplane(a: DoubleComplex) -> DoubleComplex:
    """Componentwise square root with both components in the half-plane."""
    return DoubleComplex(halfplane_sqrt(a.p), halfplane_sqrt(a.q))
