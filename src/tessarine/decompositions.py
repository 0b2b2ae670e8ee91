"""Core double-complex factorizations.

Implements the Jordan SVD of a matrix pair through its constructive
existence proof, the naive SVD as its case with a diagonal J, the
Moore-Penrose pseudoinverse by two independent constructions (through the
Jordan SVD, and by reversing the image/kernel diagrams), Penrose-axiom
verification, existence reports, and the polar decomposition with
conversions in both directions.  The entry points that take a pair (the
SVDs, the pseudoinverses, ``polar`` and the existence tests) read one
analysis of it (``_analysis``): its ranks, and its Jordan SVD.

Every factorization is re-verified by reconstruction before being
returned; a silent wrong answer is worse than an error.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from enum import Enum

import numpy as np

from .dcnum import DEFAULT_TOL, in_halfplane
from .dcmatrix import DCMatrix, _gram_drift, _norm_inf, _product, max_abs
from .complex_linalg import (
    Blocks,
    DEFAULT_CLUSTER_GAP,
    jordan_decomposition,  # noqa: F401 - re-exported
    jordan_matrix,
    _block_spans,
    _canonical_order,
    _inv,
    _jordan_form,
    _pow2,
    _rescaled,
    _sqrt_jordan,
    _staircase_sizes,
    _sv_rank,
    _svd,
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

DEFAULT_RECON_TOL = 1e-7


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


def _normalized(
    m: DCMatrix, big: tuple[float, float] | None = None
) -> tuple[np.ndarray, int, int]:
    """[A / 2^ea, B / 2^eb] as one (2, n, n) array, ea and eb: each max
    modulus in [1, 2) (e = 0 for a zero operand, e >= -1022), but eb steps
    toward 0 where ea + eb is odd.  ``big`` is (max_abs(A), max_abs(B)) where
    the caller has read them."""
    if big is None:
        big = max_abs(m.a), max_abs(m.b)
    if not all(map(math.isfinite, big)):
        raise NonFiniteInput("matrix pair has a non-finite entry")
    ea, eb = (max(math.frexp(x)[1] - 1, -1022) if x else 0 for x in big)
    eb -= (ea + eb) % 2 * (1 if eb > 0 else -1)
    return np.array((m.a / 2.0**ea, m.b / 2.0**eb)), ea, eb


class _PairAnalysis:
    """The facts every decision about one pair [A, B] is made from, read off
    one alternating kernel ladder: no product is ranked.

    Side 0 is the domain of B, side 1 that of A.  At level k, side 0 holds
    the kernel of the word of length k ending in B (B, AB, BAB, ...), side 1
    that of the word ending in A (A, BA, ABA, ...).  ker_0^k = {v : B v in
    ker_1^(k-1)} is the kernel of B restricted to the complement of
    ker_1^(k-1); side 1 mirrors it with A.  A singular value is zero at most
    tol * sigma1(B) on side 0 and tol * sigma1(A) on side 1, so by
    interlacing rank AB >= rank A + rank B - n.  The ladder is one list of
    levels, each taken once with its singular vectors: level 1 by one stacked
    SVD of B and A, level 2 here, and the levels past 2, which only verdicts
    outside the rank condition need, by ``words``.  It runs on the
    ``_normalized`` pair, which raises ``NonFiniteInput``; a stacked LAPACK
    call gives each matrix the bits of its own call.  ``scale`` is the pair's
    max modulus, read once here for the Jordan SVD's residual gate.
    """

    def __init__(
        self, m: DCMatrix, tol: float, cluster_gap: float = DEFAULT_CLUSTER_GAP
    ):
        self.m, self.tol, self.cluster_gap = m, tol, cluster_gap
        big = max_abs(m.a), max_abs(m.b)
        self.ab, self.ea, self.eb = _normalized(m, big)
        self.scale = max(big)
        self.operands = self.ab[1], self.ab[0]  # side 0's operand, then side 1's
        self.svds = _svd(self.ab[::-1])  # u, s, vh of side 0, then side 1
        s, vh = self.svds[1:]
        self._zero = tol * s.max(axis=1, initial=0.0)
        level1 = [vh[side][: np.count_nonzero(s[side] > self._zero[side])]
                  for side in (0, 1)]
        self._ladder = [level1, self._next_level(level1, (m.n, m.n))]
        self.ranks = tuple(map(len, (*level1[::-1], *self._ladder[1])))  # A, B, AB, BA
        self.pinv_exists = len(set(self.ranks)) == 1
        self._jsvds: dict = {}  # recon_tol -> the verified JordanSVD or its refusal
        self.root_blocks = ()  # J's blocks on the normalized pair, once built

    def jordan_svd(self, recon_tol: float) -> JordanSVD:
        """The verified ``JordanSVD`` of this pair, built once per recon_tol: a
        refusal is remembered too and raised again with its type and message."""
        if recon_tol not in self._jsvds:
            try:
                self._jsvds[recon_tol] = _jordan_svd(self, recon_tol)
            except TessarineError as ex:
                self._jsvds[recon_tol] = type(ex), ex.args
                raise
        found = self._jsvds[recon_tol]
        if not isinstance(found, JordanSVD):
            error, args = found
            raise error(*args)
        return found

    def _next_level(self, rows, prev) -> list:
        """Complement rows of each side's next kernel from this level's, which
        had ``prev`` rows a level before."""
        level = []
        for side, other in ((0, 1), (1, 0)):
            if len(rows[other]) >= prev[other]:  # the other kernel did not grow
                nxt = rows[side]
            elif not len(rows[other]):  # the other kernel is everything
                nxt = rows[other]
            else:
                _, s, vh = _svd(rows[other] @ self.operands[side])
                nxt = vh[: np.count_nonzero(s > self._zero[side])]
            # kernels nest: a level that reads a smaller one keeps the last
            level.append(nxt if len(nxt) <= len(rows[side]) else rows[side])
        return level

    @cached_property
    def words(self) -> tuple[list[int], list[int]]:
        """Ranks of the alternating words of length 1, 2, ... that end in B
        (side 0) and in A (side 1): the ladder climbs while a kernel grows, on
        a new list, so a thread sharing the memo's analysis reads a whole one."""
        ladder = self._ladder
        while any(len(r) < len(p) for r, p in zip(ladder[-1], ladder[-2])):
            ladder = [*ladder, self._next_level(ladder[-1], [*map(len, ladder[-2])])]
        self._ladder = ladder
        return tuple([len(level[side]) for level in ladder] for side in (0, 1))

    def kernel(self, side: int) -> np.ndarray:
        """Orthonormal basis of ker B (side 0) or ker A (side 1)."""
        return self.svds[2][side][len(self._ladder[0][side]):].conj().T

    @cached_property
    def nullities(self) -> tuple[list[int], list[int]]:
        """dim ker x^k for k = 1, 2, ... while it grows, of x = AB (side 0)
        and BA (side 1): (AB)^k is the word of length 2k that ends in B."""
        return tuple(sorted({self.m.n - r for r in w[1::2]}) for w in self.words)

    def ab_similar_ba(self) -> bool:
        """AB ~ BA: by Flanders' theorem AB and BA share their Jordan blocks
        at every nonzero eigenvalue, so equal nullities of powers decide it."""
        return self.nullities[0] == self.nullities[1]

    def necessary(self) -> tuple[bool, bool, bool]:
        """The three necessary conditions of ``jsvd_necessary``."""
        roots = (_sizes_admit_sqrt(_staircase_sizes(x)) for x in self.nullities)
        return (self.ranks[0] == self.ranks[1], *roots)

    def unequal_word(self) -> str | None:
        """A reason naming the shortest words ending in A and B of unequal rank,
        or None: then a Jordan SVD exists (Horn & Merino 1995)."""
        for k, (b, a) in enumerate(zip(*self.words), 1):
            if a != b:
                return f"rank {('BA' * k)[-k:]} = {a} but rank {('AB' * k)[-k:]} = {b}"
        return None


_last: tuple[tuple, _PairAnalysis] | None = None


def _analysis(
    m: DCMatrix, tol: float, cluster_gap: float = DEFAULT_CLUSTER_GAP
) -> _PairAnalysis:
    """The analysis of m, kept in a one-slot memo of the last pair analysed.

    The key is the pair's content (``tobytes``), not its identity: a
    DCMatrix may wrap a view of an array that is still writable.  A hit
    takes m as the analysis' pair, so what is built from it later reads
    the content the key was made of.
    """
    global _last
    key, last = (m.a.tobytes(), m.b.tobytes(), tol, cluster_gap), _last
    if last is not None and last[0] == key:  # one read: another thread may refill
        pa = last[1]
        pa.m = m
        return pa
    pa = _PairAnalysis(m, tol, cluster_gap)
    _last = key, pa
    return pa


# ---------------------------------------------------------------------------
# Acceptance gates
# ---------------------------------------------------------------------------


def _verified_residual(
    what: str, approx, target, recon_tol: float, scale: float | None = None
) -> float:
    """max-modulus residual of approx against target, both component pairs
    (A, B), or ``VerificationFailed`` unless it is at most recon_tol times
    the finite scale of target: ``(approx - target).norm_inf()`` of the
    DCMatrix algebra, with no DCMatrix built.  ``scale`` is
    ``_norm_inf(*target)`` where the caller knows it."""
    residual = _norm_inf(approx[0] - target[0], approx[1] - target[1])
    if scale is None:
        scale = _norm_inf(*target)
    if not residual <= recon_tol * scale < math.inf:
        raise VerificationFailed(
            f"{what} residual {residual:.3e} exceeds {recon_tol:.1e} * scale"
        )
    return residual


def _accepted(
    what: str, u, j, v, blocks, target, recon_tol: float, scale: float | None = None
) -> JordanSVD:
    """The Jordan SVD U [J, J] V* of target, all component pairs, once U is
    unitary (|Y X - I| <= recon_tol for U = [X, Y]) and the reconstruction
    passes ``_verified_residual`` (at target's ``scale`` where known), both
    on the factors returned; else ``VerificationFailed``, the unitarity
    check first.  Both are formed at target's scale: one that overflows is
    non-finite, and refused."""
    s = j, j
    with np.errstate(over="ignore", invalid="ignore"):
        drift = _gram_drift(*u)
        if not drift <= recon_tol:
            raise VerificationFailed(
                f"U is not unitary: |Y X - I| = {drift:.3e} exceeds {recon_tol:.1e}"
            )
        residual = _verified_residual(what, _usv(u, s, v), target, recon_tol, scale)
    u, s, v = (DCMatrix._built(*f) for f in (u, s, v))
    return JordanSVD(u=u, s=s, v=v, blocks=blocks, residual=residual)


def _is_hermitian(m: DCMatrix, tol: float, scale: float | None = None) -> bool:
    """Is m of the form [A, A], up to tol relative to its scale
    ``m.norm_inf()``, read here unless given?"""
    return m.is_hermitian(tol * (m.norm_inf() if scale is None else scale))


def _usv(u, s, v) -> tuple[np.ndarray, np.ndarray]:
    """U S V* on component pairs, in ``JordanSVD.reconstruct``'s order."""
    return _product(_product(u, s), v[::-1])


# ---------------------------------------------------------------------------
# Existence tests
# ---------------------------------------------------------------------------


def rank_quadruple(m: DCMatrix, tol: float = DEFAULT_TOL) -> tuple[int, int, int, int]:
    return _analysis(m, tol).ranks


def pinv_exists(m: DCMatrix, tol: float = DEFAULT_TOL) -> tuple[bool, tuple[int, int, int, int]]:
    """Rank criterion: a pseudoinverse exists iff all four ranks agree."""
    pa = _analysis(m, tol)
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
    their sizes are read off the kernel ladder's words of even length, so no
    Jordan form is computed.
    """
    return _analysis(m, tol).necessary()


# ---------------------------------------------------------------------------
# Penrose axioms
# ---------------------------------------------------------------------------


def penrose_check(
    m: DCMatrix, k: DCMatrix, tol: float = 1e-8
) -> tuple[bool, bool, bool, bool]:
    """Check the four Penrose axioms through their component expansion.

    For m = [A,B] and k = [C,D] the axioms expand to ACA=A, BDB=B
    (axiom 1), CAC=C, DBD=D (axiom 2), BD=CA (axiom 3, Hermitian k@m)
    and DB=AC (axiom 4, Hermitian m@k), checked on the ``_normalized`` pair
    and [2^ea C, 2^eb D] against tol times the largest of the four scales.
    """
    if m.n != k.n:
        raise DimensionMismatch(f"dimension mismatch: {m.n} vs {k.n}")
    ab, ea, eb = _normalized(m)
    return _penrose(ab, np.array((_pow2(k.a, ea), _pow2(k.b, eb))), tol)


def _penrose(
    ab: np.ndarray, cd: np.ndarray, tol: float
) -> tuple[bool, bool, bool, bool]:
    """``penrose_check`` of the ``_normalized`` pair ab and cd, the candidate
    rescaled to match, with both components in each product: AC, BD, CA and
    DB are formed once each."""
    ref = tol * max(max_abs(ab), max_abs(cd))
    ac_bd, ca_db = ab @ cd, cd @ ab
    ax1 = max_abs(ac_bd @ ab - ab) <= ref
    ax2 = max_abs(ca_db @ cd - cd) <= ref
    ax3, ax4 = (max_abs(x) <= ref for x in ac_bd[::-1] - ca_db)  # BD - CA, AC - DB
    return ax1, ax2, ax3, ax4


# ---------------------------------------------------------------------------
# Naive double-complex SVD
# ---------------------------------------------------------------------------


def naive_dc_svd(
    m: DCMatrix,
    tol: float = DEFAULT_TOL,
    recon_tol: float = DEFAULT_RECON_TOL,
    *,
    cluster_gap: float = DEFAULT_CLUSTER_GAP,
) -> tuple[DCMatrix, DCMatrix, DCMatrix]:
    """Diagonal SVD analogue [A,B] = [P,P^-1] [D,D] [Q^-1,Q].

    This is the Jordan SVD whose J is diagonal: with A Q = P J and
    B P = Q J, [A,B] = [P,P^-1] [J,J] [Q^-1,Q], so the pair's Jordan SVD
    (built once per pair, through its unitarity and reconstruction gates)
    is returned as (U, S, V).  A or B singular by the kernel ladder's
    ranks raises ``SingularComponent``, A first; a Jordan block of size
    more than 1 raises ``NotDiagonalizable``, at every scale of m: J's
    blocks are read off the normalized pair, so they decide also where the
    gates refuse the rescaled factors (``VerificationFailed``).
    """
    pa = _analysis(m, tol, cluster_gap)
    if pa.ranks[0] < m.n:
        raise SingularComponent("component A is singular; coupling Q = A^-1 P D fails")
    if pa.ranks[1] < m.n:
        raise SingularComponent("diagonal factor D is singular; coupling fails")
    try:
        jsvd = pa.jordan_svd(recon_tol)
    except VerificationFailed:
        if all(size == 1 for _, size in pa.root_blocks):
            raise
        jsvd = None
    if jsvd is None or any(size > 1 for _, size in jsvd.blocks):
        raise NotDiagonalizable("AB has a defective eigenvalue at working precision")
    return jsvd.u, jsvd.s, jsvd.v


# ---------------------------------------------------------------------------
# Jordan SVD (constructive route under the pseudoinverse hypothesis)
# ---------------------------------------------------------------------------


def _jordan_pinv(j: np.ndarray) -> np.ndarray:
    """Pseudoinverse of a canonical Jordan matrix j whose every block is
    invertible or the 1x1 zero.

    A diagonal j inverts entrywise, a zero staying zero.  Otherwise, in one
    inversion: a zero block is a zero row and column of j, so j with a one
    in its place inverts to j's blockwise inverse with a one there, which
    is then removed.
    """
    d = j.diagonal()
    if not np.count_nonzero(j.diagonal(1)):
        if np.count_nonzero(d) == len(d):  # no -0.0 on j's diagonal: d + 0 is d
            return np.diag(1 / d)
        zero = d == 0
        return np.diag((1 - zero) / (d + zero))
    ones = np.diag(d == 0)
    return _inv(j + ones) - ones


def jordan_svd(
    m: DCMatrix,
    tol: float = DEFAULT_TOL,
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
    for U = [X, Y]) and verify m = U S V*, both on the factors returned,
    by the gate ``polar_to_jsvd`` shares.  The construction draws no
    random numbers.
    """
    pa = _analysis(m, tol, cluster_gap)
    if not pa.pinv_exists:
        raise PreconditionFailed(
            f"rank condition fails: rank(A,B,AB,BA) = {pa.ranks}"
        )
    return pa.jordan_svd(recon_tol)


def _jordan_svd(pa: _PairAnalysis, recon_tol: float) -> JordanSVD:
    """``jordan_svd`` of a pair meeting the rank condition, built on the
    ``_normalized`` pair and rescaled by exact powers of two: J by 2^c,
    c = (ea + eb) / 2, P and X by ``_rescaled``, X by 2^((ea - eb) / 2)."""
    b, a = pa.operands
    # J's zero blocks are the n - rank BA that the rank quadruple counts
    _, root_jf, p_inv = _sqrt_jordan(b @ a, pa.cluster_gap, pa.ranks[3])
    pa.root_blocks = root_jf.blocks  # kept for a refusal by the gates below
    p, j = root_jf.p, root_jf.j
    j_pinv = _jordan_pinv(j)

    # A P = X J fixes X at J's nonzero blocks, B X = P J puts ker B at its zero ones
    x = a @ p @ j_pinv
    if pa.ranks[3] < pa.m.n:
        zero = [span.start for lam, span in _block_spans(root_jf.blocks) if lam == 0]
        x[:, zero] = pa.kernel(0)
    try:
        y = _inv(x)
    except np.linalg.LinAlgError:
        raise VerificationFailed("U is not unitary: X is singular") from None

    blocks, j, d = _rescaled(root_jf.blocks, j, (pa.ea + pa.eb) // 2)
    dx = d + (pa.ea - pa.eb) // 2
    u = _pow2(x, dx), _pow2(y.T, -dx).T  # Y's rows scale inversely
    v = _pow2(p, d), _pow2(p_inv.T, -d).T
    target = pa.m.a, pa.m.b
    return _accepted("Jordan SVD", u, j, v, blocks, target, recon_tol, pa.scale)


# ---------------------------------------------------------------------------
# Hermitian route and half-plane normalization
# ---------------------------------------------------------------------------


def _halfplane_normalized_factors(
    h: np.ndarray, cluster_gap: float
) -> tuple[Blocks, np.ndarray, np.ndarray, np.ndarray]:
    """Factor h = W Jt Z^-1 with [h,h] = [W,W^-1][Jt,Jt][Z,Z^-1]*, W = Z * E.

    Returns Jt's blocks, Z, Z^-1 and E.  Jt is canonical Jordan with
    half-plane eigenvalues: a block whose eigenvalue falls outside is
    sign-flipped, the flip absorbed by the unitary [E,E] (E a row of +/-1
    per block) and the alternating-sign similarity S that restores unit
    superdiagonals.  Z = P S for h's Jordan basis P, so Z^-1 = S P^-1 is the
    builder's P^-1 with the signs applied to its rows.
    """
    jf, p_inv, scale = _jordan_form(h, cluster_gap)
    axis_tol = cluster_gap * scale
    blocks, z_signs, flips = [], [], []
    for lam, size in jf.blocks:
        flip = not in_halfplane(lam, axis_tol)
        blocks.append((-lam if flip else lam, size))
        z_signs += [(-1.0) ** i if flip else 1.0 for i in range(size)]
        flips += [-1.0 if flip else 1.0] * size
    blocks, cols = _canonical_order(blocks)
    signs, e = np.array(z_signs), np.array([flips])
    z, z_inv = jf.p * signs, p_inv * signs[:, None]
    return blocks, z.take(cols, axis=1), z_inv.take(cols, axis=0), e.take(cols, axis=1)


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
    J into the half-plane.  Q^-1 is the inverse the Jordan builder's
    residual gate computed, so no matrix is inverted here.  The result
    passes ``jordan_svd``'s gates: a U that is not unitary, however well it
    reconstructs, raises ``VerificationFailed``.
    """
    uf, hf = pd.unitary_factor, pd.hermitian_factor
    h_scale = hf.norm_inf()
    if not (math.isfinite(uf.norm_inf()) and math.isfinite(h_scale)):
        raise NonFiniteInput("polar factor has a non-finite entry")
    if not _is_hermitian(hf, tol, h_scale):
        raise PreconditionFailed("hermitian factor is not of the form [H, H]")
    h = hf.a / 2 + hf.b / 2  # (a + b) / 2 would overflow near the largest double
    blocks, z, z_inv, e = _halfplane_normalized_factors(h, cluster_gap)
    uf, hf = (uf.a, uf.b), (hf.a, hf.b)  # component pairs from here on
    with np.errstate(over="ignore", invalid="ignore"):  # the gate refuses overflow
        u = _product(uf, (z * e, e.T * z_inv))  # W^-1 = E Z^-1
        target, jt = _product(uf, hf), jordan_matrix(blocks)
        return _accepted("polar-to-JSVD", u, jt, (z, z_inv), blocks, target, recon_tol)


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
    ``PreconditionFailed``; a U that is not unitary, ``VerificationFailed``.
    """
    pd = PolarDecomposition(DCMatrix.identity(m.n), m)
    return polar_to_jsvd(pd, tol, recon_tol=recon_tol, cluster_gap=cluster_gap)


def jsvd_to_polar(jsvd: JordanSVD) -> PolarDecomposition:
    """U S V* = (U V*) (V S V*): unitary times Hermitian."""
    u, s, v = ((f.a, f.b) for f in (jsvd.u, jsvd.s, jsvd.v))
    return PolarDecomposition(
        DCMatrix._built(*_product(u, v[::-1])), DCMatrix._built(*_usv(v, s, v))
    )


def _verified_polar(
    jsvd: JordanSVD, m: DCMatrix, recon_tol: float, scale: float | None = None
) -> tuple[PolarDecomposition, float]:
    """``jsvd_to_polar`` of a Jordan SVD of m, with its residual against m
    checked by the polar gate (at m's ``scale`` where known)."""
    pd = jsvd_to_polar(jsvd)
    uf, hf = pd.unitary_factor, pd.hermitian_factor
    uh = _product((uf.a, uf.b), (hf.a, hf.b))
    return pd, _verified_residual("polar", uh, (m.a, m.b), recon_tol, scale)


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
    scale = _analysis(m, tol, cluster_gap).scale  # the memo's: m is read once
    return _verified_polar(jsvd, m, recon_tol, scale)[0]


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
    """Moore-Penrose pseudoinverse V [J+, J+] U*, read off the verified factors
    of the pair's Jordan SVD and checked against the Penrose axioms.  ``rng``
    is accepted for compatibility and ignored.

    K is formed and checked on the normalized pair's factors, which undo
    ``_jordan_svd``'s exact power-of-two rescales, and is rescaled once on the
    way out, so a K near the ends of the range is formed without overflow; a
    K that leaves the range raises ``VerificationFailed``, while entries below
    the normal range are kept rounded, as the pair's own entries may be."""
    pa = _analysis(m, tol, cluster_gap)
    if not pa.pinv_exists:
        raise NoPseudoinverse(
            f"no pseudoinverse: rank(A,B,AB,BA) = {list(pa.ranks)}"
        )
    jsvd = pa.jordan_svd(recon_tol)
    # _jordan_svd's exponents, negated: J by 2^-c, and d undoes P's columns'
    c, dx = (pa.ea + pa.eb) // 2, (pa.ea - pa.eb) // 2
    _, j, d = _rescaled(jsvd.blocks, jsvd.s.a, -c)
    x, y = _pow2(jsvd.u.a, d - dx), _pow2(jsvd.u.b.T, dx - d).T
    p, p_inv = _pow2(jsvd.v.a, d), _pow2(jsvd.v.b.T, -d).T
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        j_pinv = _jordan_pinv(j)
        cd = np.array((p @ j_pinv @ y, x @ (j_pinv @ p_inv)))
    k = _unnormalized(cd, pa)
    axioms = _penrose(pa.ab, cd, recon_tol)
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

    Both components are built together: one stacked SVD checks the two
    direct sums [A Im(B), ker(B)] and [B Im(A), ker(A)], and one stacked
    inversion maps each to [its image, 0].  The result is rescaled as
    ``pinv``'s is: one that leaves the range raises ``VerificationFailed``.
    """
    pa = _analysis(m, tol)
    if not pa.pinv_exists:
        raise NoPseudoinverse(
            f"existence conditions fail: rank(A,B,AB,BA) = {pa.ranks}"
        )
    (u, _, vh), n, r = pa.svds, m.n, pa.ranks[0]
    images = u[:, :, :r]  # Im(B), Im(A): level 1's bases, side 0 first
    kernels = vh[:, r:].conj().transpose(0, 2, 1)  # ker(B), ker(A)
    # normalized: an image meets the unit kernel at one scale
    sums = np.concatenate((pa.ab @ images, kernels), axis=2)
    names = "Im(A) + ker(B)", "Im(B) + ker(A)"
    for sv, name in zip(_svd(sums, compute_uv=False), names):
        if _sv_rank(sv, tol) < n:
            raise NoPseudoinverse(f"direct sum decomposition {name} fails at tolerance")
    targets = np.concatenate((images, np.zeros((2, n, n - r), dtype=complex)), axis=2)
    return _unnormalized(targets @ _inv(sums), pa)


def _unnormalized(cd: np.ndarray, pa: _PairAnalysis) -> DCMatrix:
    """The pseudoinverse [2^-ea C, 2^-eb D] of m from [C, D] of its
    ``_normalized`` pair: ``VerificationFailed`` if it overflows, while
    entries below the normal range are kept rounded, as m's own may be."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 in a complex product
        k = DCMatrix._built(cd[0] * 2.0**-pa.ea, cd[1] * 2.0**-pa.eb)
    if not math.isfinite(k.norm_inf()):
        raise VerificationFailed("pseudoinverse leaves the range")
    return k


# ---------------------------------------------------------------------------
# Combined existence report (with construction)
# ---------------------------------------------------------------------------


def attempt_jordan_svd(
    m: DCMatrix,
    tol: float = DEFAULT_TOL,
    *,
    recon_tol: float = DEFAULT_RECON_TOL,
    cluster_gap: float = DEFAULT_CLUSTER_GAP,
) -> tuple[JordanSVD | None, ExistenceReport]:
    """Full existence flow: necessary conditions, then construction.

    Status semantics: ``not_exists`` only when a necessary condition
    provably fails: those of ``jsvd_necessary``, or when the rank condition
    fails, AB ~ BA and then equal ranks of the alternating words of each
    length (the reason names the shortest unequal pair); ``exists`` only
    when a factorization was produced and verified (constructive route
    under the rank condition, or the Hermitian route); ``unknown``
    otherwise: equal word ranks prove existence, but only those two routes
    build factors.
    """
    pa = _analysis(m, tol, cluster_gap)
    return _attempt_jordan_svd(pa, recon_tol)


def _attempt_jordan_svd(
    pa: _PairAnalysis, recon_tol: float = DEFAULT_RECON_TOL
) -> tuple[JordanSVD | None, ExistenceReport]:
    rank_ok, nec = pa.pinv_exists, pa.necessary()
    failed = [i + 1 for i, ok in enumerate(nec) if not ok]
    if failed:
        reason = f"necessary condition {failed[0]} fails"
    elif not rank_ok and not pa.ab_similar_ba():
        reason = "AB is not similar to BA"
    else:
        reason = None if rank_ok else pa.unequal_word()
    jsvd, status = None, JsvdStatus.NOT_EXISTS
    if reason is None:
        try:
            if rank_ok:
                jsvd = pa.jordan_svd(recon_tol)
            else:
                jsvd = hermitian_jsvd(
                    pa.m, pa.tol, recon_tol=recon_tol, cluster_gap=pa.cluster_gap
                )
            status = JsvdStatus.EXISTS
        except PreconditionFailed:  # the Hermitian route's: m is not [H, H]
            status = JsvdStatus.UNKNOWN
            reason = "rank condition fails; existence undetermined"
        except TessarineError as ex:
            status, reason = JsvdStatus.UNKNOWN, f"{type(ex).__name__}: {ex}"
    return jsvd, ExistenceReport(*pa.ranks, rank_ok, *nec, status, reason)
