"""Double-complex vectors and randomized Gram-Schmidt extension.

The inner product uses the swap involution on entries and is therefore
indefinite: nonzero vectors such as (1, j)^T have zero norm.  Because of
that, extending an orthonormal set to a basis cannot simply pick any
vector outside the span; instead a random vector is drawn (zero norm
after orthogonalization is a probability-zero event) and redrawn if the
norm degenerates, up to a retry bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dcnum import DoubleComplex, sqrt_halfplane
from .dcmatrix import max_abs
from .errors import DimensionMismatch, RetryExhausted, ZeroNorm

ZERO_NORM_REL = 1e-9
DEFAULT_MAX_RETRIES = 16


@dataclass(frozen=True, eq=False)
class DCVector:
    """Column vector u*e + v*e* with complex component arrays u and v."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex).reshape(-1)
        v = np.asarray(self.v, dtype=complex).reshape(-1)
        if u.shape != v.shape:
            raise DimensionMismatch(
                f"components differ in length: {u.shape} vs {v.shape}"
            )
        u.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @classmethod
    def basis_vector(cls, i: int, d: int) -> "DCVector":
        u = np.zeros(d, dtype=complex)
        u[i] = 1.0
        return cls(u, u.copy())

    def entry(self, i: int) -> DoubleComplex:
        return DoubleComplex(self.u[i], self.v[i])

    def __add__(self, other: "DCVector") -> "DCVector":
        return DCVector(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "DCVector") -> "DCVector":
        return DCVector(self.u - other.u, self.v - other.v)

    def scale(self, x: DoubleComplex) -> "DCVector":
        return DCVector(x.p * self.u, x.q * self.v)

    def max_abs(self) -> float:
        if self.dim == 0:
            return 0.0
        return float(max(np.abs(self.u).max(), np.abs(self.v).max()))


def inner_product(x: DCVector, y: DCVector) -> DoubleComplex:
    """Swap-involution inner product <x, y> = x* y.

    No complex conjugation is involved; the product is plain bilinearity
    with the idempotent components crossed.  It is conjugate-symmetric
    under the swap star: <y, x> = <x, y>*.
    """
    if x.dim != y.dim:
        raise DimensionMismatch(f"dimension mismatch: {x.dim} vs {y.dim}")
    return DoubleComplex(np.dot(x.v, y.u), np.dot(x.u, y.v))


def gram_schmidt_step(w: DCVector, s: list[DCVector]) -> DCVector:
    """Project w against an orthonormal set: w' = w - sum <v, w> v."""
    if not s:
        return w
    us = np.array([v.u for v in s])
    vs = np.array([v.v for v in s])
    # <v, w> = (v.v . w.u, v.u . w.v), one entry per vector of s
    return DCVector(w.u - (vs @ w.u) @ us, w.v - (us @ w.v) @ vs)


def normalize(w: DCVector, tol: float = ZERO_NORM_REL) -> DCVector:
    """Divide w by the half-plane square root of its squared norm.

    Raises ``ZeroNorm`` when either idempotent component of <w, w> falls
    below ``tol`` relative to the vector's squared magnitude scale.
    """
    norm2 = inner_product(w, w)
    cutoff = tol * w.max_abs() ** 2
    if abs(norm2.p) <= cutoff or abs(norm2.q) <= cutoff:
        raise ZeroNorm("vector has (numerically) zero norm; cannot normalize")
    return w.scale(sqrt_halfplane(norm2).inverse())


def random_vector(d: int, rng: np.random.Generator) -> DCVector:
    """Full-support draw: every real coordinate i.i.d. standard normal."""
    parts = rng.standard_normal((4, d))
    return DCVector(parts[0] + 1j * parts[1], parts[2] + 1j * parts[3])


def _gram_drift(x: np.ndarray, y: np.ndarray) -> float:
    """max |<s_i, s_k> - delta_ik| over the columns s_k = (x[:, k], y[k])
    of a d x k pair [X, Y]: <s_i, s_k> = ((Y X)[i, k], (Y X)[k, i]), so
    this is max |Y X - I|."""
    return max_abs(y @ x - np.eye(x.shape[1]))


def _check_orthonormal(s: list[DCVector], d: int, tol: float):
    if any(x.dim != d for x in s):
        raise DimensionMismatch("set vectors must share the target dimension")
    if not s:
        return
    us, vs = np.column_stack([x.u for x in s]), np.array([x.v for x in s])
    drift = _gram_drift(us, vs)
    if not drift <= tol:
        raise ValueError(
            f"input set is not orthonormal: max |<s[i], s[k]> - delta_ik| = "
            f"{drift:.3e} exceeds {tol:.1e}"
        )


def extend_orthonormal(
    s: list[DCVector],
    d: int,
    rng: np.random.Generator,
    max_retries: int = DEFAULT_MAX_RETRIES,
    tol: float = 1e-8,
    stats: dict | None = None,
) -> list[DCVector]:
    """Extend an orthonormal set to an orthonormal basis of dimension d.

    Implements the randomized procedure: draw a full-support random
    vector, orthogonalize it twice against the current set, retry on a zero
    norm (a probability-zero event, but floating point demands a bound),
    normalize, repeat until the basis is complete.  The returned list
    starts with the vectors of ``s`` unchanged.

    ``stats``, if given, receives ``draws`` (total vectors drawn) and
    ``retries`` (draws that had to be discarded).
    """
    if len(s) > d:
        raise DimensionMismatch(f"set of {len(s)} vectors exceeds dimension {d}")
    _check_orthonormal(s, d, tol)
    basis = list(s)
    draws = retries = 0
    while len(basis) < d:
        for attempt in range(max_retries):
            draws += 1
            w = random_vector(d, rng)
            # twice is enough: one pass against a set that is orthonormal
            # only to tol leaves inner products of about tol * |<v, w>|
            candidate = gram_schmidt_step(gram_schmidt_step(w, basis), basis)
            try:
                basis.append(normalize(candidate))
                break
            except ZeroNorm:
                retries += 1
        else:
            raise RetryExhausted(
                f"no vector with invertible norm in {max_retries} draws"
            )
    if stats is not None:
        stats["draws"] = draws
        stats["retries"] = retries
    return basis

