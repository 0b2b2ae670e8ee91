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
    sqrt_jordan_factors,
    _block_spans,
    _canonical_order,
    _image_and_kernel,
    _kernel_staircase,
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
from .orthonormal import DCVector, assemble_columns, extend_orthonormal

DEFAULT_RECON_TOL = 1e-7
ZERO_COLUMN_REL = 1e-9
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
    square-root conditions, once each, when first asked for.  When BA
    equals AB bit for bit (every n = 1 pair, every commuting pair) both
    share AB's.  No Jordan form is computed here: only the construction
    of factors needs one.

    Construction raises ``NonFiniteInput`` when the pair, AB or BA has a
    NaN or infinite entry: products of finite matrices can overflow, and
    ranks read off such a product would be wrong.
    """

    def __init__(
        self, m: DCMatrix, tol: float, cluster_gap: float = DEFAULT_CLUSTER_GAP
    ):
        self.scale = m.norm_inf()
        if not math.isfinite(self.scale):
            raise NonFiniteInput("matrix pair has a non-finite entry")
        self.m, self.tol, self.cluster_gap = m, tol, cluster_gap
        with np.errstate(over="ignore", invalid="ignore"):
            ab, ba = m.a @ m.b, m.b @ m.a
        if not (np.isfinite(ab).all() and np.isfinite(ba).all()):
            raise NonFiniteInput("AB or BA has a non-finite entry (overflow)")
        self.products = {"ab": ab, "ba": ba}
        self.ranks = tuple(rank(x, tol) for x in (m.a, m.b, ab, ba))
        self.pinv_exists = len(set(self.ranks)) == 1
        self._source = {"ab": "ab", "ba": "ab" if np.array_equal(ab, ba) else "ba"}
        self._nullities: dict[str, list[int]] = {}

    def nullities(self, product: str) -> list[int]:
        """dim ker x^k for k = 1, 2, ... while it grows, of x = AB
        (``product`` "ab") or BA ("ba")."""
        key = self._source[product]
        if key not in self._nullities:
            n, r = self.m.n, self.ranks[2 if key == "ab" else 3]
            x = self.products[key]
            self._nullities[key] = (
                [n - r] if r in (0, n)
                else [basis.shape[1] for basis in _kernel_staircase(x, self.tol)]
            )
        return self._nullities[key]

    def ab_similar_ba(self) -> bool:
        """AB ~ BA: by Flanders' theorem AB and BA share their Jordan blocks
        at every nonzero eigenvalue, so equal kernel staircases decide it."""
        return self.nullities("ab") == self.nullities("ba")

    def necessary(self) -> tuple[bool, bool, bool]:
        """The three necessary conditions of ``jsvd_necessary``."""
        roots = [
            _sizes_admit_sqrt(_nilpotent_sizes(self.nullities(product)))
            for product in self.products
        ]
        return (self.ranks[0] == self.ranks[1], *roots)


# ---------------------------------------------------------------------------
# Existence tests
# ---------------------------------------------------------------------------


def rank_quadruple(m: DCMatrix, tol: float = DEFAULT_TOL) -> tuple[int, int, int, int]:
    return _PairAnalysis(m, tol).ranks


def pinv_exists(m: DCMatrix, tol: float = DEFAULT_TOL) -> tuple[bool, tuple[int, int, int, int]]:
    """Rank criterion: a pseudoinverse exists iff all four ranks agree."""
    pa = _PairAnalysis(m, tol)
    return pa.pinv_exists, pa.ranks


def _nilpotent_sizes(nullities: list[int]) -> list[int]:
    """Jordan block sizes at eigenvalue 0 read off dim ker x^k, k = 1, 2, ...

    dim ker x^k - dim ker x^(k-1) blocks have size k or more.
    """
    at_least = [b - a for a, b in zip([0, *nullities], nullities)] + [0]
    return [
        k + 1
        for k in range(len(nullities))
        for _ in range(at_least[k] - at_least[k + 1])
    ]


def _sizes_admit_sqrt(sizes: list[int]) -> bool:
    """Classical pairing criterion on nilpotent Jordan block sizes.

    Sorted descending, consecutive pairs may differ by at most one and a
    final unpaired block must have size 1.
    """
    sizes = sorted(sizes, reverse=True)
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
    scale = m.norm_inf()
    if not math.isfinite(scale):
        raise NonFiniteInput("matrix pair has a non-finite entry")
    if rank(m.a, tol) < n:
        raise SingularComponent("component A is singular; coupling Q = A^-1 P D fails")
    with np.errstate(over="ignore", invalid="ignore"):
        ab = m.a @ m.b
    if not np.isfinite(ab).all():
        raise NonFiniteInput("AB has a non-finite entry (overflow)")
    lam, pvec = np.linalg.eig(ab)
    sv = np.linalg.svd(pvec, compute_uv=False)
    if sv[-1] <= DIAGONALIZABLE_RTOL * sv[0]:
        raise NotDiagonalizable("AB has a defective eigenvalue at working precision")
    d = np.array([halfplane_sqrt(x) for x in lam])
    if np.min(np.abs(d)) <= np.sqrt(tol) * max(np.max(np.abs(d)), 1e-300):
        raise SingularComponent("diagonal factor D is singular; coupling fails")
    q = np.linalg.solve(m.a, pvec * d)  # A^-1 P D
    u = DCMatrix(pvec, np.linalg.inv(pvec))
    s = DCMatrix(np.diag(d), np.diag(d))
    v = DCMatrix(q, np.linalg.inv(q))
    residual = (u @ s @ v.star() - m).norm_inf()
    if residual > recon_tol * max(scale, 1e-300):
        raise VerificationFailed(
            f"naive SVD residual {residual:.3e} exceeds {recon_tol:.1e} * scale"
        )
    return u, s, v


# ---------------------------------------------------------------------------
# Jordan SVD (constructive route under the pseudoinverse hypothesis)
# ---------------------------------------------------------------------------


def _jordan_pinv(j: np.ndarray, blocks: Blocks) -> np.ndarray:
    """Blockwise pseudoinverse of the canonical Jordan matrix j of blocks.

    Valid when every block is invertible or the 1x1 zero: invertible
    blocks invert, zero blocks stay zero.
    """
    out = np.zeros_like(j)
    for lam, span in _block_spans(blocks):
        if lam != 0:
            out[span, span] = np.linalg.inv(j[span, span])
    return out


def jordan_svd(
    m: DCMatrix,
    tol: float = DEFAULT_TOL,
    rng: np.random.Generator | None = None,
    *,
    recon_tol: float = DEFAULT_RECON_TOL,
    cluster_gap: float = DEFAULT_CLUSTER_GAP,
    max_retries: int = 16,
) -> JordanSVD:
    """Jordan SVD through the constructive existence proof.

    Requires the pseudoinverse rank condition (the guaranteed regime).
    Steps: take the half-plane square root of BA along with its Jordan
    form P J P^-1; set V = [P, P^-1] and S = [J, J]; form U' = m V S+
    with S+ = [J+, J+]; replace the zero columns of U' (they sit exactly
    at the zero blocks of J) by a randomized orthonormal extension; and
    verify m = U S V*.
    """
    pa = _PairAnalysis(m, tol, cluster_gap)
    if not pa.pinv_exists:
        raise PreconditionFailed(
            f"rank condition fails: rank(A,B,AB,BA) = {pa.ranks}", report=pa.ranks
        )
    return _jordan_svd(pa, rng, recon_tol, max_retries)


def _jordan_svd(
    pa: _PairAnalysis, rng, recon_tol: float, max_retries: int
) -> JordanSVD:
    """``jordan_svd`` of a pair known to meet the rank condition."""
    m = pa.m
    if rng is None:
        rng = np.random.default_rng(0)
    _, root_jf = sqrt_jordan_factors(pa.products["ba"], cluster_gap=pa.cluster_gap)
    p, j, blocks = root_jf.p, root_jf.j, root_jf.blocks
    v = DCMatrix(p, np.linalg.inv(p))
    s = DCMatrix(j, j)
    j_pinv = _jordan_pinv(j, blocks)
    s_pinv = DCMatrix(j_pinv, j_pinv)

    u_prime = m @ v @ s_pinv
    threshold = ZERO_COLUMN_REL * max(u_prime.norm_inf(), 1e-300)
    columns = [
        DCVector(u_prime.a[:, k], u_prime.b[k, :]) for k in range(m.n)
    ]
    detected = {k for k, col in enumerate(columns) if col.max_abs() <= threshold}
    structural = {
        k for lam, span in _block_spans(blocks) if lam == 0
        for k in range(span.start, span.stop)
    }
    if detected != structural:
        raise VerificationFailed(
            f"zero columns of U' at {sorted(detected)} do not match the zero "
            f"Jordan blocks at {sorted(structural)}"
        )

    keep = [columns[k] for k in range(m.n) if k not in detected]
    if detected:
        basis = extend_orthonormal(keep, m.n, rng, max_retries=max_retries)
        fresh = iter(basis[len(keep) :])
        final = [
            next(fresh) if k in detected else columns[k] for k in range(m.n)
        ]
    else:
        final = columns
    u = assemble_columns(final)

    residual = (u @ s @ v.star() - m).norm_inf()
    if residual > recon_tol * max(pa.scale, 1e-300):
        raise VerificationFailed(
            f"Jordan SVD residual {residual:.3e} exceeds {recon_tol:.1e} * scale"
        )
    return JordanSVD(u=u, s=s, v=v, blocks=blocks, residual=residual)


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
    entries = []  # (block, w_cols, z_cols)
    for lam, span in _block_spans(jf.blocks):
        q_cols = jf.p[:, span]
        size = q_cols.shape[1]
        alt = np.diag([(-1.0) ** i for i in range(size)]).astype(complex)
        if in_halfplane(lam, axis_tol):
            entries.append(((lam, size), q_cols, q_cols))
        else:
            entries.append(((-lam, size), q_cols @ (-alt), q_cols @ alt))
    return _canonical_order(*zip(*entries))


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
    scale = max(hf.norm_inf(), 1e-300)
    if not hf.is_hermitian(tol * max(1.0, scale)):
        raise PreconditionFailed("hermitian factor is not of the form [H, H]")
    h = (hf.a + hf.b) / 2
    blocks, w, z = _halfplane_normalized_factors(h, cluster_gap)
    jt = jordan_matrix(blocks)
    u = pd.unitary_factor @ DCMatrix(w, np.linalg.inv(w))
    s = DCMatrix(jt, jt)
    v = DCMatrix(z, np.linalg.inv(z))
    target = pd.reconstruct()
    residual = (u @ s @ v.star() - target).norm_inf()
    if residual > recon_tol * max(target.norm_inf(), 1e-300):
        raise VerificationFailed(
            f"polar-to-JSVD residual {residual:.3e} exceeds tolerance"
        )
    return JordanSVD(u=u, s=s, v=v, blocks=blocks, residual=residual)


def hermitian_jsvd(
    m: DCMatrix,
    tol: float = DEFAULT_TOL,
    *,
    recon_tol: float = DEFAULT_RECON_TOL,
    cluster_gap: float = DEFAULT_CLUSTER_GAP,
) -> JordanSVD:
    """Jordan SVD of a Hermitian matrix [A, A] via its Jordan decomposition.

    This route does not need the pseudoinverse rank condition, so it
    certifies existence for Hermitian matrices (for example nilpotent
    [J, J]) that have no pseudoinverse.
    """
    if not m.is_hermitian(tol * max(1.0, m.norm_inf())):
        raise PreconditionFailed("matrix is not Hermitian")
    pd = PolarDecomposition(DCMatrix.identity(m.n), m)
    return polar_to_jsvd(pd, tol, recon_tol=recon_tol, cluster_gap=cluster_gap)


def jsvd_to_polar(jsvd: JordanSVD) -> PolarDecomposition:
    """U S V* = (U V*) (V S V*): unitary times Hermitian."""
    return PolarDecomposition(
        unitary_factor=jsvd.u @ jsvd.v.star(),
        hermitian_factor=jsvd.v @ jsvd.s @ jsvd.v.star(),
    )


def polar(
    m: DCMatrix,
    tol: float = DEFAULT_TOL,
    rng: np.random.Generator | None = None,
    *,
    recon_tol: float = DEFAULT_RECON_TOL,
    cluster_gap: float = DEFAULT_CLUSTER_GAP,
    max_retries: int = 16,
) -> PolarDecomposition:
    """Polar decomposition m = U P obtained from the Jordan SVD.

    Exists exactly when the Jordan SVD construction succeeds; errors
    from ``jordan_svd`` propagate unchanged.
    """
    jsvd = jordan_svd(
        m,
        tol,
        rng,
        recon_tol=recon_tol,
        cluster_gap=cluster_gap,
        max_retries=max_retries,
    )
    pd = jsvd_to_polar(jsvd)
    residual = (pd.reconstruct() - m).norm_inf()
    if residual > recon_tol * max(m.norm_inf(), 1e-300):
        raise VerificationFailed(
            f"polar residual {residual:.3e} exceeds {recon_tol:.1e} * scale"
        )
    return pd


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
    max_retries: int = 16,
) -> DCMatrix:
    """Moore-Penrose pseudoinverse via the Jordan SVD: V [J+, J+] U*."""
    pa = _PairAnalysis(m, tol, cluster_gap)
    if not pa.pinv_exists:
        raise NoPseudoinverse(
            f"no pseudoinverse: rank(A,B,AB,BA) = {list(pa.ranks)}"
        )
    jsvd = _jordan_svd(pa, rng, recon_tol, max_retries)
    j_pinv = _jordan_pinv(jsvd.s.a, jsvd.blocks)
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
    if sv.size == 0 or sv[-1] <= max(tol * sv[0], 1e-300):
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
    max_retries: int = 16,
) -> tuple[JordanSVD | None, ExistenceReport]:
    """Full existence flow: necessary conditions, then construction.

    Status semantics: ``not_exists`` only when a necessary condition
    provably fails; ``exists`` only when a factorization was produced
    and verified (constructive route under the rank condition, or the
    Hermitian route); ``unknown`` otherwise - the exact existence
    boundary is open.
    """
    pa = _PairAnalysis(m, tol, cluster_gap)
    return _attempt_jordan_svd(pa, rng, recon_tol, max_retries)


def _attempt_jordan_svd(
    pa: _PairAnalysis, rng, recon_tol: float = DEFAULT_RECON_TOL, max_retries: int = 16
) -> tuple[JordanSVD | None, ExistenceReport]:
    m, ranks, rank_ok = pa.m, pa.ranks, pa.pinv_exists
    nec1, nec2, nec3 = pa.necessary()
    reason = jsvd = None
    failed = [i + 1 for i, ok in enumerate((nec1, nec2, nec3)) if not ok]
    if failed:
        status = JsvdStatus.NOT_EXISTS
        reason = f"necessary condition {failed[0]} fails"
    else:
        hermitian = m.is_hermitian(pa.tol * max(1.0, pa.scale))
        if rank_ok or hermitian:
            try:
                if rank_ok:
                    jsvd = _jordan_svd(pa, rng, recon_tol, max_retries)
                else:
                    jsvd = hermitian_jsvd(
                        m, pa.tol, recon_tol=recon_tol, cluster_gap=pa.cluster_gap
                    )
                status = JsvdStatus.EXISTS
            except TessarineError as ex:
                status = JsvdStatus.UNKNOWN
                reason = f"{type(ex).__name__}: {ex}"
        else:
            status = JsvdStatus.UNKNOWN
            reason = "rank condition fails; existence undetermined"

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
