"""The bracket algebra of square double-complex matrices.

A double-complex matrix is stored as the ordered pair [A, B] of complex
n x n arrays, meaning A*(1+j)/2 + B^T*(1-j)/2.  The bracket identities

    [A,B] + [C,D] = [A+C, B+D]
    [A,B] * [C,D] = [AC, DB]      (note the reversal in the second slot)
    [A,B]*        = [B,A]

hold verbatim in this representation; the transpose lives only in the
entrywise view, where entry (i, k) is the tessarine (A[i,k], B[k,i]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dcnum import DEFAULT_TOL, DoubleComplex
from .errors import DimensionMismatch


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def max_abs(a: np.ndarray) -> float:
    """Entrywise max modulus; 0.0 for empty arrays."""
    return float(np.maximum.reduce(np.abs(a), axis=None)) if a.size else 0.0


def _norm_inf(a: np.ndarray, b: np.ndarray) -> float:
    """Max modulus over the entries of the components a and b; NaN if any is
    NaN."""
    x, y = max_abs(a), max_abs(b)
    # the builtin max drops a NaN in its second argument
    return y if y > x or y != y else x


def _product(x, y) -> tuple[np.ndarray, np.ndarray]:
    """[A,B] * [C,D] = [AC, DB] on component pairs x = (A, B), y = (C, D):
    the products of ``DCMatrix.__matmul__``, with no DCMatrix built."""
    return x[0] @ y[0], y[1] @ x[1]


def _gram_drift(x: np.ndarray, y: np.ndarray) -> float:
    """max |<s_i, s_k> - delta_ik| over the columns s_k = (x[:, k], y[k])
    of a d x k pair [X, Y]: <s_i, s_k> = ((Y X)[i, k], (Y X)[k, i]), so
    this is max |Y X - I|, I subtracted in place."""
    g = y @ x
    g.reshape(-1)[:: len(g) + 1] -= 1
    return max_abs(g)


@dataclass(frozen=True, eq=False)
class DCMatrix:
    """Immutable matrix pair [A, B] over the double-complex numbers."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = _as_square(self.a)
        b = _as_square(self.b)
        if a.shape != b.shape:
            raise DimensionMismatch(
                f"components differ in size: {a.shape} vs {b.shape}"
            )
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def _built(cls, a: np.ndarray, b: np.ndarray) -> "DCMatrix":
        """[a, b] from two complex n x n arrays the library has just built:
        made read-only, not checked again."""
        a.setflags(write=False)
        b.setflags(write=False)
        m = object.__new__(cls)
        object.__setattr__(m, "a", a)
        object.__setattr__(m, "b", b)
        return m

    @property
    def n(self) -> int:
        return self.a.shape[0]

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "DCMatrix":
        return cls(np.eye(n, dtype=complex), np.eye(n, dtype=complex))

    @classmethod
    def zeros(cls, n: int) -> "DCMatrix":
        return cls(np.zeros((n, n), complex), np.zeros((n, n), complex))

    # -- algebra -------------------------------------------------------------

    def _check_same_n(self, other: "DCMatrix"):
        if self.n != other.n:
            raise DimensionMismatch(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "DCMatrix") -> "DCMatrix":
        self._check_same_n(other)
        return DCMatrix(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "DCMatrix") -> "DCMatrix":
        self._check_same_n(other)
        return DCMatrix(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "DCMatrix":
        return DCMatrix(-self.a, -self.b)

    def __matmul__(self, other: "DCMatrix") -> "DCMatrix":
        """[A,B] * [C,D] = [AC, DB]."""
        self._check_same_n(other)
        return DCMatrix(*_product((self.a, self.b), (other.a, other.b)))

    def star(self) -> "DCMatrix":
        """Conjugate transpose under the swap involution: [A,B]* = [B,A]."""
        return DCMatrix(self.b, self.a)

    def scale(self, x: DoubleComplex) -> "DCMatrix":
        return DCMatrix(x.p * self.a, x.q * self.b)

    # -- entrywise view ----------------------------------------------------

    def entry(self, i: int, k: int) -> DoubleComplex:
        """Entry (i, k) as a tessarine: p = A[i,k], q = B[k,i]."""
        return DoubleComplex(self.a[i, k], self.b[k, i])

    def norm_inf(self) -> float:
        """Max modulus over the entries of both components; NaN if any is NaN."""
        return _norm_inf(self.a, self.b)

    def approx_eq(self, other: "DCMatrix", tol: float = DEFAULT_TOL) -> bool:
        return (self - other).norm_inf() <= tol

    # -- family predicates (section families, max-modulus comparisons) ------

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        """Hermitian matrices are precisely those of the form [A, A]."""
        return max_abs(self.a - self.b) <= tol

    def is_unitary(self, tol: float = DEFAULT_TOL) -> bool:
        """Unitary matrices are precisely those of the form [A, A^-1]."""
        eye = np.eye(self.n)
        return (
            max_abs(self.a @ self.b - eye) <= tol
            and max_abs(self.b @ self.a - eye) <= tol
        )

    def is_diagonal(self, tol: float = 0.0) -> bool:
        return _is_diag(self.a, tol) and _is_diag(self.b, tol)

    def is_lower_triangular(self, tol: float = 0.0) -> bool:
        """Lower triangular means [L, U]: A lower, B upper."""
        return _is_lower(self.a, tol) and _is_upper(self.b, tol)

    def is_upper_triangular(self, tol: float = 0.0) -> bool:
        """Upper triangular means [U, L]: A upper, B lower."""
        return _is_upper(self.a, tol) and _is_lower(self.b, tol)

    def __repr__(self) -> str:
        return f"DCMatrix(n={self.n})"


def _is_lower(a: np.ndarray, tol: float) -> bool:
    return max_abs(np.triu(a, 1)) <= tol


def _is_upper(a: np.ndarray, tol: float) -> bool:
    return max_abs(np.tril(a, -1)) <= tol


def _is_diag(a: np.ndarray, tol: float) -> bool:
    return max_abs(a - np.diag(np.diag(a))) <= tol


def embed_complex(a) -> DCMatrix:
    """Embed a complex matrix as the double-complex matrix [A, A^T].

    The embedding is an injective *-respecting homomorphism: products map
    to products and the swap star maps to plain transposition.
    """
    a = _as_square(a)
    return DCMatrix(a, a.T.copy())


def direct_sum(m: DCMatrix, k: DCMatrix) -> DCMatrix:
    """Block-diagonal concatenation in both components."""
    n1, n2 = m.n, k.n
    a = np.zeros((n1 + n2, n1 + n2), complex)
    b = np.zeros((n1 + n2, n1 + n2), complex)
    a[:n1, :n1], a[n1:, n1:] = m.a, k.a
    b[:n1, :n1], b[n1:, n1:] = m.b, k.b
    return DCMatrix(a, b)
