"""Core double-complex factorizations.

Implements the naive SVD of a matrix pair, the Jordan SVD through its
constructive existence proof, the Moore-Penrose pseudoinverse by two
independent constructions (through the Jordan SVD, and by reversing the
image/kernel diagrams), Penrose-axiom verification, existence reports,
and the polar decomposition with conversions in both directions.

Every factorization is re-verified by reconstruction before being
returned; a silent wrong answer is worse than an error.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .dcnum import DEFAULT_TOL, halfplane_sqrt, in_halfplane
from .dcmatrix import DCMatrix, max_abs
from .complex_linalg import (
    Blocks,
    DEFAULT_CLUSTER_GAP,
    jordan_decomposition,
    jordan_matrix,
    rank,
    _block_spans,
    _canonical_order,
    _image_and_kernel,
    _kernel_staircase,
    _sqrt_jordan,
    _staircase_sizes,
    _sv_rank,
)
from .errors import (
    DimensionMismatch,
    NonFiniteInput,
    NoPseudoinverse,
    NotDiagonalizable,
    PreconditionFailed,
    SingularComponent,
    TessarineError,
    VerificationFailed,
)
from .orthonormal import _gram_drift

DEFAULT_RECON_TOL = 1e-7
DIAGONALIZABLE_RTOL = 1e-6


class JsvdStatus(str, Enum):
    EXISTS = "exists"
    NOT_EXISTS = "not_exists"
    UNKNOWN = "unknown"


@dataclass(frozen=True, eq=False)
class JordanSVD:
    """Factorization m = u @ s @ v* with s = [J, J] Hermitian-Jordan.

    ``blocks`` is the canonical block list of J (eigenvalues in the
    half-plane); ``residual`` is the verified reconstruction error.
    """

    u: DCMatrix
    s: DCMatrix
    v: DCMatrix
    blocks: Blocks
    residual: float

    def reconstruct(self) -> DCMatrix:
        return self.u @ self.s @ self.v.star()


@dataclass(frozen=True, eq=False)
class PolarDecomposition:
    unitary_factor: DCMatrix
    hermitian_factor: DCMatrix

    def reconstruct(self) -> DCMatrix:
        return self.unitary_factor @ self.hermitian_factor


@dataclass(frozen=True)
class ExistenceReport:
    """Rank quadruple, necessary conditions, and the three-valued verdict."""

    rank_a: int
    rank_b: int
    rank_ab: int
    rank_ba: int
    pinv_exists: bool
    jsvd_nec1: bool
    jsvd_nec2: bool
    jsvd_nec3: bool
    jsvd_status: JsvdStatus
    reason: str | None = None

    def as_dict(self) -> dict:
        return {**asdict(self), "jsvd_status": self.jsvd_status.value}


# ---------------------------------------------------------------------------
# Per-pair analysis
# ---------------------------------------------------------------------------


class _PairAnalysis:
    """The facts every decision about one pair [A, B] is made from.

    AB, BA and the rank quadruple are computed on construction; the
    kernel staircases of AB and BA, which decide AB ~ BA and the
    square-root conditions, once each, when first asked for.  No Jordan
    form is computed here: only the construction of factors needs one.

    Construction raises ``NonFiniteInput`` when the pair, AB or BA has a
    NaN or infinite entry: products of finite matrices can overflow, and
    ranks read off such a product would be wrong.
    """

    def __init__(
        self, m: DCMatrix, tol: float, cluster_gap: float = DEFAULT_CLUSTER_GAP
    ):
        if not math.isfinite(m.norm_inf()):
            raise NonFiniteInput("matrix pair has a non-finite entry")
        self.m, self.tol, self.cluster_gap = m, tol, cluster_gap
        with np.errstate(over="ignore", invalid="ignore"):
            ab, ba = m.a @ m.b, m.b @ m.a
        if not (np.isfinite(ab).all() and np.isfinite(ba).all()):
            raise NonFiniteInput("AB or BA has a non-finite entry (overflow)")
        self.products = {"ab": ab, "ba": ba}
        self.ranks = tuple(rank(x, tol) for x in (m.a, m.b, ab, ba))
        self.pinv_exists = len(set(self.ranks)) == 1
        self._nullities: dict[str, list[int]] = {}

    def nullities(self, product: str) -> list[int]:
        """dim ker x^k for k = 1, 2, ... while it grows, of x = AB
        (``product`` "ab") or BA ("ba")."""
        if product not in self._nullities:
            n, r = self.m.n, self.ranks[2 if product == "ab" else 3]
            x = self.products[product]
            self._nullities[product] = (
                [n - r] if r in (0, n)
                else [basis.shape[1] for basis in _kernel_staircase(x, self.tol)]
            )
        return self._nullities[product]

    def ab_similar_ba(self) -> bool:
        """AB ~ BA: by Flanders' theorem AB and BA share their Jordan blocks
        at every nonzero eigenvalue, so equal kernel staircases decide it."""
        return self.nullities("ab") == self.nullities("ba")

    def necessary(self) -> tuple[bool, bool, bool]:
        """The three necessary conditions of ``jsvd_necessary``."""
        roots = [
            _sizes_admit_sqrt(_staircase_sizes(self.nullities(product)))
            for product in self.products
        ]
        return (self.ranks[0] == self.ranks[1], *roots)


# ---------------------------------------------------------------------------
# Acceptance gates
# ---------------------------------------------------------------------------


def _verified_residual(
    what: str, approx: DCMatrix, target: DCMatrix, recon_tol: float
) -> float:
    """max-modulus residual of approx against target, or ``VerificationFailed``
    when it exceeds recon_tol relative to the scale of target."""
    residual = (approx - target).norm_inf()
    if residual > recon_tol * max(target.norm_inf(), 1e-300):
        raise VerificationFailed(
            f"{what} residual {residual:.3e} exceeds {recon_tol:.1e} * scale"
        )
    return residual


def _is_hermitian(m: DCMatrix, tol: float) -> bool:
    """Is m of the form [A, A], up to tol relative to its scale (at least 1)?"""
    return m.is_hermitian(tol * max(1.0, m.norm_inf()))


# ---------------------------------------------------------------------------
# Existence tests
# ---------------------------------------------------------------------------


def rank_quadruple(m: DCMatrix, tol: float = DEFAULT_TOL) -> tuple[int, int, int, int]:
    return _PairAnalysis(m, tol).ranks


def pinv_exists(m: DCMatrix, tol: float = DEFAULT_TOL) -> tuple[bool, tuple[int, int, int, int]]:
    """Rank criterion: a pseudoinverse exists iff all four ranks agree."""
    pa = _PairAnalysis(m, tol)
    return pa.pinv_exists, pa.ranks


def _sizes_admit_sqrt(sizes: list[int]) -> bool:
    """Classical pairing criterion on nilpotent Jordan block sizes.

    With the sizes largest first, consecutive pairs may differ by at most
    one and a final unpaired block must have size 1.
    """
    i = 0
    while i + 1 < len(sizes):
        if sizes[i] - sizes[i + 1] > 1:
            return False
        i += 2
    if len(sizes) % 2 == 1 and sizes[-1] != 1:
        return False
    return True


def jsvd_necessary(m: DCMatrix, tol: float = DEFAULT_TOL) -> tuple[bool, bool, bool]:
    """The three necessary conditions for a Jordan SVD of [A, B].

    1. rank(A) = rank(B); 2. AB has a square root; 3. BA has a square
    root.  Only the nilpotent Jordan blocks can stand in a root's way;
    their sizes are read off the kernel staircase of each product, so no
    Jordan form is computed.
    """
    return _PairAnalysis(m, tol).necessary()


# ---------------------------------------------------------------------------
# Penrose axioms
# ---------------------------------------------------------------------------


def penrose_check(
    m: DCMatrix, k: DCMatrix, tol: float = 1e-8
) -> tuple[bool, bool, bool, bool]:
    """Check the four Penrose axioms through their component expansion.

    For m = [A,B] and k = [C,D] the axioms expand to ACA=A, BDB=B
    (axiom 1), CAC=C, DBD=D (axiom 2), BD=CA (axiom 3, Hermitian k@m)
    and DB=AC (axiom 4, Hermitian m@k).  Residuals are compared against
    tol relative to the operand scale.
    """
    if m.n != k.n:
        raise DimensionMismatch(f"dimension mismatch: {m.n} vs {k.n}")
    a, b = m.a, m.b
    c, d = k.a, k.b
    ref = tol * max(1.0, m.norm_inf(), k.norm_inf())
    ax1 = max_abs(a @ c @ a - a) <= ref and max_abs(b @ d @ b - b) <= ref
    ax2 = max_abs(c @ a @ c - c) <= ref and max_abs(d @ b @ d - d) <= ref
    ax3 = max_abs(b @ d - c @ a) <= ref
    ax4 = max_abs(d @ b - a @ c) <= ref
    return ax1, ax2, ax3, ax4


# ---------------------------------------------------------------------------
# Naive double-complex SVD
# ---------------------------------------------------------------------------


def naive_dc_svd(
    m: DCMatrix,
    tol: float = DEFAULT_TOL,
    recon_tol: float = DEFAULT_RECON_TOL,
) -> tuple[DCMatrix, DCMatrix, DCMatrix]:
    """Diagonal SVD analogue [A,B] = [P,P^-1] [D,D] [Q^-1,Q].

    Reduces to the eigendecompositions AB = P D^2 P^-1 and
    BA = Q D^2 Q^-1.  Construction: eigendecompose AB, take half-plane
    roots for D, and couple Q = A^-1 P D; this needs A invertible and D
    invertible, otherwise ``SingularComponent`` is raised.
    """
    n = m.n
    if not math.isfinite(m.norm_inf()):
        raise NonFiniteInput("matrix pair has a non-finite entry")
    if rank(m.a, tol) < n:
        raise SingularComponent("component A is singular; coupling Q = A^-1 P D fails")
    with np.errstate(over="ignore", invalid="ignore"):
        ab = m.a @ m.b
    if not np.isfinite(ab).all():
        raise NonFiniteInput("AB has a non-finite entry (overflow)")
    lam, pvec = np.linalg.eig(ab)
    sv = np.linalg.svd(pvec, compute_uv=False)
    if _sv_rank(sv, DIAGONALIZABLE_RTOL) < n:
        raise NotDiagonalizable("AB has a defective eigenvalue at working precision")
    d = np.array([halfplane_sqrt(x) for x in lam])
    if np.min(np.abs(d)) <= np.sqrt(tol) * max(np.max(np.abs(d)), 1e-300):
        raise SingularComponent("diagonal factor D is singular; coupling fails")
    q = np.linalg.solve(m.a, pvec * d)  # A^-1 P D
    u = DCMatrix(pvec, np.linalg.inv(pvec))
    s = DCMatrix(np.diag(d), np.diag(d))
    v = DCMatrix(q, np.linalg.inv(q))
    _verified_residual("naive SVD", u @ s @ v.star(), m, recon_tol)
    return u, s, v


# ---------------------------------------------------------------------------
# Jordan SVD (constructive route under the pseudoinverse hypothesis)
# ---------------------------------------------------------------------------


def _jordan_pinv(j: np.ndarray) -> np.ndarray:
    """Pseudoinverse of a canonical Jordan matrix j in one inversion.

    Valid when every block is invertible or the 1x1 zero: a zero block is
    a zero row and column of j, so j with a one in its place inverts to
    j's blockwise inverse with a one there, which is then removed.
    """
    ones = np.diag(np.diag(j) == 0)
    return np.linalg.inv(j + ones) - ones


def jordan_svd(
    m: DCMatrix,
    tol: float = DEFAULT_TOL,
    rng: np.random.Generator | None = None,
    *,
    recon_tol: float = DEFAULT_RECON_TOL,
    cluster_gap: float = DEFAULT_CLUSTER_GAP,
) -> JordanSVD:
    """Jordan SVD through the constructive existence proof.

    Requires the pseudoinverse rank condition (the guaranteed regime).
    Steps: take the half-plane square root of BA along with its Jordan
    form P J P^-1; set V = [P, P^-1] and S = [J, J]; build U = [X, X^-1]
    with X = A P J+ at the nonzero blocks of J and a basis of ker B at
    its 1x1 zero blocks; check that U is unitary (|Y X - I| <= recon_tol
    for U = [X, Y]) and verify m = U S V*.  The construction draws no
    random numbers: ``rng`` is accepted for compatibility and ignored.
    """
    pa = _PairAnalysis(m, tol, cluster_gap)
    if not pa.pinv_exists:
        raise PreconditionFailed(
            f"rank condition fails: rank(A,B,AB,BA) = {pa.ranks}"
        )
    return _jordan_svd(pa, recon_tol)[0]


def _jordan_svd(pa: _PairAnalysis, recon_tol: float) -> tuple[JordanSVD, np.ndarray]:
    """``jordan_svd`` of a pair known to meet the rank condition, with J+."""
    m = pa.m
    # J's zero blocks are the n - rank BA that the rank quadruple counts
    _, root_jf, p_inv = _sqrt_jordan(pa.products["ba"], pa.cluster_gap, pa.ranks[3])
    p, j, blocks = root_jf.p, root_jf.j, root_jf.blocks
    v = DCMatrix(p, p_inv)
    s = DCMatrix(j, j)
    j_pinv = _jordan_pinv(j)

    # A P = X J fixes X at J's nonzero blocks; B X = P J puts ker B, the
    # right singular vectors of B's n - rank B smallest, at its zero blocks
    x = m.a @ p @ j_pinv
    zero = [span.start for lam, span in _block_spans(blocks) if lam == 0]
    if zero:
        x[:, zero] = np.linalg.svd(m.b)[2][m.n - len(zero) :].conj().T
    try:
        y = np.linalg.inv(x)
    except np.linalg.LinAlgError:
        raise VerificationFailed("U is not unitary: X is singular") from None
    drift = _gram_drift(x, y)
    if not drift <= recon_tol:
        raise VerificationFailed(
            f"U is not unitary: |Y X - I| = {drift:.3e} exceeds {recon_tol:.1e}"
        )
    u = DCMatrix(x, y)
    residual = _verified_residual("Jordan SVD", u @ s @ v.star(), m, recon_tol)
    return JordanSVD(u=u, s=s, v=v, blocks=blocks, residual=residual), j_pinv


# ---------------------------------------------------------------------------
# Hermitian route and half-plane normalization
# ---------------------------------------------------------------------------


def _halfplane_normalized_factors(
    h: np.ndarray, cluster_gap: float
) -> tuple[Blocks, np.ndarray, np.ndarray]:
    """Factor a complex matrix h as h = W Jt Z^-1 with [h,h] = [W,W^-1][Jt,Jt][Z,Z^-1]*.

    Jt is canonical Jordan with half-plane eigenvalues.  Blocks whose
    eigenvalue falls outside the half-plane are sign-flipped; the flip is
    absorbed by the unitary [E,E] (E = +/-1 per block) together with the
    alternating-sign similarity that restores unit superdiagonals.
    """
    jf = jordan_decomposition(h, cluster_gap=cluster_gap)
    axis_tol = cluster_gap * max(max_abs(h), 1e-300)
    blocks, z_signs, flips = [], [], []
    for lam, size in jf.blocks:
        flip = not in_halfplane(lam, axis_tol)
        blocks.append((-lam if flip else lam, size))
        z_signs += [(-1.0) ** i if flip else 1.0 for i in range(size)]
        flips += [-1.0 if flip else 1.0] * size
    z = jf.p * z_signs
    w = z * flips
    spans = [span for _, span in _block_spans(jf.blocks)]
    return _canonical_order(blocks, [w[:, c] for c in spans], [z[:, c] for c in spans])


def polar_to_jsvd(
    pd: PolarDecomposition,
    tol: float = DEFAULT_TOL,
    *,
    recon_tol: float = DEFAULT_RECON_TOL,
    cluster_gap: float = DEFAULT_CLUSTER_GAP,
) -> JordanSVD:
    """Convert a polar decomposition into a Jordan SVD.

    Jordan-decomposes the Hermitian factor [H,H] as Q J Q^-1, giving
    m = (U [Q,Q^-1]) [J,J] [Q,Q^-1]*, then normalizes the eigenvalues of
    J into the half-plane.
    """
    hf = pd.hermitian_factor
    if not _is_hermitian(hf, tol):
        raise PreconditionFailed("hermitian factor is not of the form [H, H]")
    h = (hf.a + hf.b) / 2
    blocks, w, z = _halfplane_normalized_factors(h, cluster_gap)
    jt = jordan_matrix(blocks)
    u = pd.unitary_factor @ DCMatrix(w, np.linalg.inv(w))
    s = DCMatrix(jt, jt)
    v = DCMatrix(z, np.linalg.inv(z))
    residual = _verified_residual(
        "polar-to-JSVD", u @ s @ v.star(), pd.reconstruct(), recon_tol
    )
    return JordanSVD(u=u, s=s, v=v, blocks=blocks, residual=residual)


def hermitian_jsvd(
    m: DCMatrix,
    tol: float = DEFAULT_TOL,
    *,
    recon_tol: float = DEFAULT_RECON_TOL,
    cluster_gap: float = DEFAULT_CLUSTER_GAP,
) -> JordanSVD:
    """Jordan SVD of a Hermitian matrix [A, A]: ``polar_to_jsvd`` of the
    trivial polar decomposition m = I m.

    This route does not need the pseudoinverse rank condition, so it
    certifies existence for Hermitian matrices (for example nilpotent
    [J, J]) that have no pseudoinverse.  Any other m raises
    ``PreconditionFailed``.
    """
    pd = PolarDecomposition(DCMatrix.identity(m.n), m)
    return polar_to_jsvd(pd, tol, recon_tol=recon_tol, cluster_gap=cluster_gap)


def jsvd_to_polar(jsvd: JordanSVD) -> PolarDecomposition:
    """U S V* = (U V*) (V S V*): unitary times Hermitian."""
    return PolarDecomposition(
        unitary_factor=jsvd.u @ jsvd.v.star(),
        hermitian_factor=jsvd.v @ jsvd.s @ jsvd.v.star(),
    )


def _verified_polar(
    jsvd: JordanSVD, m: DCMatrix, recon_tol: float
) -> tuple[PolarDecomposition, float]:
    """``jsvd_to_polar`` of a Jordan SVD of m, with its residual against m
    checked by the polar gate."""
    pd = jsvd_to_polar(jsvd)
    return pd, _verified_residual("polar", pd.reconstruct(), m, recon_tol)


def polar(
    m: DCMatrix,
    tol: float = DEFAULT_TOL,
    rng: np.random.Generator | None = None,
    *,
    recon_tol: float = DEFAULT_RECON_TOL,
    cluster_gap: float = DEFAULT_CLUSTER_GAP,
) -> PolarDecomposition:
    """Polar decomposition m = U P obtained from the Jordan SVD.

    Exists exactly when the Jordan SVD construction succeeds; errors
    from ``jordan_svd`` propagate unchanged.  ``rng`` is ignored.
    """
    jsvd = jordan_svd(m, tol, recon_tol=recon_tol, cluster_gap=cluster_gap)
    return _verified_polar(jsvd, m, recon_tol)[0]


# ---------------------------------------------------------------------------
# Pseudoinverse constructions
# ---------------------------------------------------------------------------


def pinv(
    m: DCMatrix,
    tol: float = DEFAULT_TOL,
    rng: np.random.Generator | None = None,
    *,
    recon_tol: float = DEFAULT_RECON_TOL,
    cluster_gap: float = DEFAULT_CLUSTER_GAP,
) -> DCMatrix:
    """Moore-Penrose pseudoinverse via the Jordan SVD: V [J+, J+] U*.
    ``rng`` is accepted for compatibility and ignored."""
    pa = _PairAnalysis(m, tol, cluster_gap)
    if not pa.pinv_exists:
        raise NoPseudoinverse(
            f"no pseudoinverse: rank(A,B,AB,BA) = {list(pa.ranks)}"
        )
    jsvd, j_pinv = _jordan_svd(pa, recon_tol)
    k = jsvd.v @ DCMatrix(j_pinv, j_pinv) @ jsvd.u.star()
    axioms = penrose_check(m, k, recon_tol)
    if not all(axioms):
        raise VerificationFailed(f"axioms {list(axioms)}")
    return k


def pinv_via_diagrams(m: DCMatrix, tol: float = DEFAULT_TOL) -> DCMatrix:
    """Pseudoinverse by reversing the image/kernel diagrams.

    With V = Im(B) + ker(A) and V = Im(A) + ker(B) as direct sums, the
    component C inverts A restricted to Im(B) and kills ker(B); D
    inverts B restricted to Im(A) and kills ker(A).  Requires the
    existence conditions Im(AB) = Im(A), Im(BA) = Im(B) and
    rank(A) = rank(B); fails with ``NoPseudoinverse`` otherwise.
    """
    pa = _PairAnalysis(m, tol)
    if not pa.pinv_exists:
        raise NoPseudoinverse(
            f"existence conditions fail: rank(A,B,AB,BA) = {pa.ranks}"
        )
    im_a, ker_a = (basis.vectors for basis in _image_and_kernel(m.a, tol))
    im_b, ker_b = (basis.vectors for basis in _image_and_kernel(m.b, tol))

    c = _reverse_diagram(m.a, im_b, ker_b, tol=tol, name="Im(A) + ker(B)")
    d = _reverse_diagram(m.b, im_a, ker_a, tol=tol, name="Im(B) + ker(A)")
    return DCMatrix(c, d)


def _reverse_diagram(
    a: np.ndarray,
    source_image: np.ndarray,
    kernel: np.ndarray,
    tol: float,
    name: str,
) -> np.ndarray:
    """Build the inverse map x with x (a @ source) = source and x kernel = 0."""
    n = a.shape[0]
    mapped = a @ source_image
    stack = np.hstack([mapped, kernel])
    if stack.shape[1] != n:
        raise NoPseudoinverse(f"direct sum {name} has wrong dimension")
    sv = np.linalg.svd(stack, compute_uv=False)
    if _sv_rank(sv, tol, 1e-300) < n:
        raise NoPseudoinverse(f"direct sum decomposition {name} fails at tolerance")
    target = np.hstack(
        [source_image, np.zeros((n, kernel.shape[1]), dtype=complex)]
    )
    return target @ np.linalg.inv(stack)


# ---------------------------------------------------------------------------
# Combined existence report (with construction)
# ---------------------------------------------------------------------------


def attempt_jordan_svd(
    m: DCMatrix,
    tol: float = DEFAULT_TOL,
    rng: np.random.Generator | None = None,
    *,
    recon_tol: float = DEFAULT_RECON_TOL,
    cluster_gap: float = DEFAULT_CLUSTER_GAP,
) -> tuple[JordanSVD | None, ExistenceReport]:
    """Full existence flow: necessary conditions, then construction.

    Status semantics: ``not_exists`` only when a necessary condition
    provably fails (those of ``jsvd_necessary``, or AB ~ BA when the rank
    condition fails); ``exists`` only when a factorization was produced
    and verified (constructive route under the rank condition, or the
    Hermitian route); ``unknown`` otherwise - the exact existence
    boundary is open.  ``rng`` is ignored.
    """
    pa = _PairAnalysis(m, tol, cluster_gap)
    return _attempt_jordan_svd(pa, recon_tol)


def _attempt_jordan_svd(
    pa: _PairAnalysis, recon_tol: float = DEFAULT_RECON_TOL
) -> tuple[JordanSVD | None, ExistenceReport]:
    m, ranks, rank_ok = pa.m, pa.ranks, pa.pinv_exists
    nec1, nec2, nec3 = pa.necessary()
    reason = jsvd = None
    failed = [i + 1 for i, ok in enumerate((nec1, nec2, nec3)) if not ok]
    if failed:
        status = JsvdStatus.NOT_EXISTS
        reason = f"necessary condition {failed[0]} fails"
    elif not rank_ok and not pa.ab_similar_ba():
        status = JsvdStatus.NOT_EXISTS
        reason = "AB is not similar to BA"
    else:
        try:
            if rank_ok:
                jsvd = _jordan_svd(pa, recon_tol)[0]
            else:
                jsvd = hermitian_jsvd(
                    m, pa.tol, recon_tol=recon_tol, cluster_gap=pa.cluster_gap
                )
            status = JsvdStatus.EXISTS
        except PreconditionFailed:
            # the Hermitian route's: m is not of the form [H, H]
            status = JsvdStatus.UNKNOWN
            reason = "rank condition fails; existence undetermined"
        except TessarineError as ex:
            status = JsvdStatus.UNKNOWN
            reason = f"{type(ex).__name__}: {ex}"

    report = ExistenceReport(
        rank_a=ranks[0],
        rank_b=ranks[1],
        rank_ab=ranks[2],
        rank_ba=ranks[3],
        pinv_exists=rank_ok,
        jsvd_nec1=nec1,
        jsvd_nec2=nec2,
        jsvd_nec3=nec3,
        jsvd_status=status,
        reason=reason,
    )
    return jsvd, report
