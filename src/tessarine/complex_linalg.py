"""Complex-matrix kernels used by the double-complex decompositions.

Everything here works on plain complex numpy arrays: numerical rank,
kernel staircases, a dense Jordan decomposition for desk-scale
matrices, primary matrix square roots through the Jordan form, and
similarity testing.

The Jordan machinery is deliberately scoped: eigenvalues are clustered
at a caller-adjustable gap, clusters must be well separated, and every
result is verified by reconstruction.  One rule per cluster: a simple
eigenvalue's chain is its unit eigenvector from LAPACK's eig;
a repeated cluster's chains come from the kernel staircase of
``a - lam I``.  Only numpy is needed.  When the eigenvalue geometry cannot be resolved reliably the
functions raise ``ClusterAmbiguity`` rather than guessing.

Every SVD, eigendecomposition, inverse and solve of the package goes
through one layer here (``_svd``, ``_eig``, ``_inv``, ``_solve``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .dcnum import DEFAULT_TOL, halfplane_sqrt
from .dcmatrix import _as_square, max_abs
from .errors import (ClusterAmbiguity, DimensionMismatch, NilpotentBlock,
                     NonFiniteInput, VerificationFailed)

DEFAULT_CLUSTER_GAP = 1e-6
# Distinct eigenvalue clusters must be separated by this multiple of the
# clustering gap; separations inside the (gap, factor*gap) band raise.
SEPARATION_FACTOR = 10.0
JORDAN_RECON_TOL = 1e-6
SQRT_RECON_TOL = 1e-8
# _orth_columns spans kernel bases and chain columns, all of unit scale: a
# direction this small relative to them repeats one, far below the 1e-6 gap
# that chain generators must clear.
_ORTH_KEEP_TOL = 1e-10

Blocks = tuple[tuple[complex, int], ...]


# ---------------------------------------------------------------------------
# LAPACK dispatch
# ---------------------------------------------------------------------------
# At desk scale numpy.linalg's front end costs more than the LAPACK work it
# wraps.  These functions call the gufuncs it calls, on complex (stacks of)
# matrices, under its own error state: the same gufunc on the same array
# gives numpy.linalg's bits, and a LAPACK failure raises its LinAlgError
# with its message.  Inputs are finite; numpy.linalg.eig's own check for
# that is not repeated.


def _raising(message: str) -> np.errstate:
    """numpy.linalg's error state: a LAPACK failure, flagged as invalid,
    raises ``LinAlgError(message)``; overflow, division and underflow pass."""

    def fail(err, flag):
        raise np.linalg.LinAlgError(message)

    return np.errstate(
        call=fail, invalid="call", over="ignore", divide="ignore", under="ignore"
    )


@_raising("SVD did not converge")
def _svd(a, full_matrices=True, compute_uv=True):
    """``np.linalg.svd(a, full_matrices, compute_uv)``: (u, s, vh) or s."""
    if not compute_uv:
        return _umath_linalg.svd(a, signature="D->d")
    gufunc = _umath_linalg.svd_f if full_matrices else _umath_linalg.svd_s
    return gufunc(a, signature="D->DdD")


@_raising("Eigenvalues did not converge")
def _eig(a):
    """``np.linalg.eig(a)``: eigenvalues and unit eigenvectors."""
    return _umath_linalg.eig(a, signature="D->DD")


@_raising("Singular matrix")
def _inv(a):
    """``np.linalg.inv(a)``."""
    return _umath_linalg.inv(a, signature="D->D")


@_raising("Singular matrix")
def _solve(a, b):
    """``np.linalg.solve(a, b)`` for a matrix (or stack of matrices) b."""
    return _umath_linalg.solve(a, b, signature="DD->D")


def _column_norms(x: np.ndarray) -> np.ndarray:
    """The 2-norm of each column, as numpy's ``norm(x, axis=0)`` forms it."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=0))


@dataclass(frozen=True, eq=False)
class JordanForm:
    """Similarity a = p @ j @ inv(p) with j a canonical Jordan matrix.

    ``blocks`` records (eigenvalue, size) in the canonical order: blocks
    sorted lexicographically by (Re, Im) of the eigenvalue, then by size
    descending.  ``j`` and the columns of ``p`` follow the same order.
    """

    p: np.ndarray
    j: np.ndarray
    blocks: Blocks


def rank(a, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above tol relative to the largest."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0
    return _sv_rank(_svd(a, compute_uv=False), tol)


def _sv_rank(s: np.ndarray, tol: float) -> int:
    """The zero rule: how many singular values in s are above tol times
    the largest.  No absolute term enters."""
    return int(np.count_nonzero(s > tol * s.max(initial=0.0)))


def _kernel_staircase(
    x: np.ndarray, zero: float, stop: int | None = None
) -> list[np.ndarray]:
    """Orthonormal bases of ker x^k for k = 1, 2, ... while it grows.

    ker x^k is the kernel of x projected off ker x^(k-1), so no power of
    x is formed; ker x^0 is {0}, so the first step takes x itself.  A
    singular value counts as zero when it is at most ``zero``, at every
    step.  The staircase also stops once a kernel reaches ``stop``
    (default n) dimensions.
    """
    n = x.shape[0]
    stop = n if stop is None else stop
    bases: list[np.ndarray] = []
    projected = x
    while True:
        _, s, vh = _svd(projected)
        r = int(np.count_nonzero(s > zero))
        if bases and n - r <= bases[-1].shape[1]:
            return bases
        kernel = vh[r:].conj().T
        bases.append(kernel)
        if n - r >= stop:
            return bases
        projected = x - kernel @ (kernel.conj().T @ x)


def _staircase_sizes(nullities: list[int]) -> list[int]:
    """Jordan block sizes at eigenvalue 0, largest first, read off the
    nullities dim ker x^k, k = 1, 2, ... (Golub & Wilkinson 1976).

    dim ker x^k - dim ker x^(k-1) blocks have size k or more.  A profile
    whose steps grow with k fits no Jordan structure; its sizes then add
    up to more than the last nullity.
    """
    at_least = [b - a for a, b in zip([0, *nullities], nullities)] + [0]
    return [
        k + 1
        for k in reversed(range(len(nullities)))
        for _ in range(at_least[k] - at_least[k + 1])
    ]


# ---------------------------------------------------------------------------
# Jordan decomposition
# ---------------------------------------------------------------------------


def _cluster_indices(dist: list[list[float]], gap: float) -> list[list[int]]:
    """Single-linkage clustering at threshold ``gap`` of the eigenvalues
    whose pairwise distances are ``dist``, clusters ordered by their first
    member.

    Distinct clusters must be at least SEPARATION_FACTOR * gap apart;
    otherwise ``ClusterAmbiguity`` reports the first pair of clusters in
    that order that is closer, with its distance.  Only eigenvalue pairs
    inside the band (gap, SEPARATION_FACTOR * gap) can be such a pair.
    """
    n = len(dist)
    band = SEPARATION_FACTOR * gap
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    near = []
    for i, row in enumerate(dist):
        for k in range(i + 1, n):
            if row[k] <= gap:
                ri, rk = find(i), find(k)
                if ri != rk:
                    parent[rk] = ri
            elif row[k] < band:
                near.append((i, k))
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = list(groups.values())
    if near:
        label = {i: c for c, idx in enumerate(clusters) for i in idx}
        crossing = sorted(
            (min(label[i], label[k]), max(label[i], label[k]), dist[i][k])
            for i, k in near if label[i] != label[k]
        )
        if crossing:
            raise ClusterAmbiguity(
                f"eigenvalue clusters separated by {crossing[0][2]:.3e}, inside "
                f"the ambiguity band ({gap:.3e}, {band:.3e}); adjust cluster_gap"
            )
    return clusters


def _orth_columns(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span (SVD-based)."""
    u, s, _ = _svd(cols, full_matrices=False)
    return u[:, :_sv_rank(s, _ORTH_KEEP_TOL)]


def _cluster_chains(
    e: np.ndarray, mult: int, zero: float
) -> tuple[np.ndarray, list[int]]:
    """Jordan chains of e = a - lam I at a cluster of ``mult`` eigenvalues.

    ker e^k lies in the cluster's generalized eigenspace, so the kernel
    staircase of e, with singular values up to ``zero`` counted as zero,
    must stop at exactly ``mult`` dimensions.  Returns the chains' columns,
    chain after chain, each ordered eigenvector first so that e maps column
    i+1 to column i, and the chains' sizes, largest first.  A semisimple
    cluster (a staircase of one level) takes the staircase's orthonormal
    kernel basis as its eigenvectors.  Otherwise the generators of all
    chains of one height come from one SVD as unit columns, and a chain is
    scaled by the norms of its two end columns.
    """
    bases = _kernel_staircase(e, zero, stop=mult)
    if bases[-1].shape[1] != mult:
        raise ClusterAmbiguity(
            f"generalized eigenspace of dimension {bases[-1].shape[1]} for a "
            f"cluster of {mult} eigenvalues; eigenvalue structure unresolved "
            "at this cluster_gap"
        )
    sizes = _staircase_sizes([basis.shape[1] for basis in bases])
    if sum(sizes) != mult:
        raise ClusterAmbiguity("invalid nullity profile for a Jordan structure")
    if len(bases) == 1:
        return bases[0], sizes

    chains: list[np.ndarray] = []
    active = bases[0][:, :0]
    for k in range(len(bases), 0, -1):
        need = sizes.count(k)
        if need > 0:
            obstruction = np.hstack([bases[k - 2], active]) if k >= 2 else active
            q = _orth_columns(obstruction)
            cand = bases[k - 1] - q @ (q.conj().T @ bases[k - 1])
            u, sv, _ = _svd(cand, full_matrices=False)
            if len(sv) < need or sv[need - 1] < 1e-6:
                raise ClusterAmbiguity("could not separate Jordan chain generators")
            gens = u[:, :need]
            members = [gens]
            for _ in range(k - 1):
                members.append(e @ members[-1])
            tops = _column_norms(gens)
            norm2 = tops * (tops if k == 1 else _column_norms(members[-1]))
            if not norm2.min() > 0:
                raise ClusterAmbiguity(f"degenerate Jordan chain ({norm2.min():.3e})")
            # n x need x k, eigenvectors first: chain after chain once flattened
            level = np.stack(members[::-1], axis=2) / np.sqrt(norm2)[:, None]
            chains.append(level.reshape(len(e), need * k))
            active = np.hstack([active, gens])
        if k > 1 and active.shape[1]:
            # only their span matters: max-modulus 1 keeps them at the bases' scale
            active = e @ active
            active /= np.abs(active).max(axis=0)
    return np.hstack(chains), sizes


def jordan_matrix(blocks: Blocks) -> np.ndarray:
    """Assemble the canonical Jordan matrix for a block list.

    The superdiagonal holds ones inside blocks and zeros between them.
    """
    # + 0 maps -0.0 to +0.0
    diag = [lam + 0 for lam, size in blocks for _ in range(size)]
    n = len(diag)
    j = np.zeros((n, n), dtype=complex)
    j.flat[:: n + 1] = diag
    if n > len(blocks):  # some block has size > 1
        ones = [i < size - 1 for _, size in blocks for i in range(size)]
        j.flat[1 :: n + 1] = ones[:-1]
    return j


def _canonical_order(blocks) -> tuple[Blocks, list[int]]:
    """Blocks in canonical order, and the permutation that puts their
    columns, stacked block after block, in that order: column ``cols[i]``
    goes to position i.  Ties keep their input order.
    """
    keys = [(lam.real, lam.imag, -size) for lam, size in blocks]
    order = sorted(range(len(blocks)), key=keys.__getitem__)
    cols = order  # while every block is one column
    if any(size > 1 for _, size in blocks):
        starts = list(itertools.accumulate((size for _, size in blocks), initial=0))
        cols = [c for i in order for c in range(starts[i], starts[i + 1])]
    return tuple(blocks[i] for i in order), cols


def _block_spans(blocks: Blocks):
    """Yield (eigenvalue, slice) of each block's rows and columns in order."""
    pos = 0
    for lam, size in blocks:
        yield lam, slice(pos, pos + size)
        pos += size


def _pow2(x: np.ndarray, k) -> np.ndarray:
    """x times 2^k, exact, for an integer k or integers k[i] for x's columns
    i (x itself at k = 0); ``VerificationFailed`` where the largest entry of
    x, or of a nonzero column, would leave the normal range."""
    if not isinstance(k, np.ndarray):  # |k| <= 1023: 2^k is a double
        if k and not -1022 < math.frexp(max_abs(x))[1] + k <= 1024 and x.any():
            raise VerificationFailed(f"rescaling by 2^{k} leaves the range")
        return x * 2.0**k if k else x
    big = np.abs(x).max(axis=0, initial=0.0)
    ks = k.tolist()  # a few columns: plain floats beat small-array ufuncs
    for b, t, j in zip(big.tolist(), np.frexp(big)[1].tolist(), ks):
        # 2^(t - 1) <= b < 2^t; past 2^2046 a factor below would overflow
        if t + j > 1024 or t + j < -1021 and b or j > 2046:
            raise VerificationFailed(
                f"rescaling by 2^+-{np.abs(k).max()} leaves the range"
            )
    first = np.array([2.0 ** (j // 2) for j in ks])  # two normal factors
    return x * first * np.array([2.0 ** (j - j // 2) for j in ks])


def _rescaled(blocks: Blocks, j: np.ndarray, c: int) -> tuple:
    """Blocks and Jordan matrix of 2^c J for J = j, and the power of two d of
    each basis column that keeps the superdiagonal 1: c * (size // 2 - i),
    or 0 where every block is 1x1."""
    # the largest modulus; only a rescale up can leave the range
    top = max([abs(lam) for lam, _ in blocks], default=0.0) if c > 0 else 0.0
    if math.frexp(top)[1] + c > 1024:
        raise VerificationFailed(f"rescaling by 2^{c} leaves the range")
    s, j = 2.0**c, j.copy()  # exact: c is the exponent of a double
    j.reshape(-1)[:: len(j) + 1] *= s
    blocks = tuple((lam * s, n) for lam, n in blocks)
    if len(j) == len(blocks):  # every block is 1x1: no column moves
        return blocks, j, 0
    d = [c * (size // 2 - i) for _, size in blocks for i in range(size)]
    return blocks, j, np.array(d) if any(d) else 0


def jordan_decomposition(a, *, cluster_gap: float = DEFAULT_CLUSTER_GAP) -> JordanForm:
    """Dense Jordan decomposition for desk-scale matrices.

    Eigenvalues within ``cluster_gap * max_abs(a)`` of each other are
    treated as equal (single linkage); distinct clusters must then be
    separated by at least ``SEPARATION_FACTOR`` times that gap, otherwise
    ``ClusterAmbiguity`` is raised and the caller should adjust the gap.
    A simple eigenvalue contributes its unit eigenvector; a repeated
    cluster is split into chains by the kernel staircase of a - lam I.
    It is verified on a / 2^e, of max modulus in [1, 2), and then rescaled.
    """
    return _jordan_form(a, cluster_gap)[0]


def _jordan_form(a, cluster_gap: float) -> tuple[JordanForm, np.ndarray, float]:
    """``jordan_decomposition`` of a along with the inverse of its basis P,
    the inverse the residual gate computes, its rows rescaled inversely to
    P's columns, and a's scale max_abs(a), so that no caller reads it again."""
    a = _as_square(a)
    n = a.shape[0]
    big = max_abs(a)
    if not math.isfinite(big):
        raise NonFiniteInput("matrix has a non-finite entry")
    if big == 0:
        blocks = tuple((0j, 1) for _ in range(n))
        eye = np.eye(n, dtype=complex)
        return JordanForm(eye, np.zeros((n, n), complex), blocks), eye.copy(), big
    e = max(math.frexp(big)[1] - 1, -1022)
    scale = big / 2.0**e  # exact: a power of two, as is a / 2^e
    if e:
        a = a / 2.0**e
    gap = cluster_gap * scale

    eigs, vecs = _eig(a)
    clusters = _cluster_indices(np.abs(eigs[:, None] - eigs[None, :]).tolist(), gap)
    unit = vecs / _column_norms(vecs)
    # + 0j maps -0.0 to +0.0 as np.mean does
    values = (eigs + 0j).tolist()

    max_spread = 0.0
    blocks: list[tuple[complex, int]] = []
    # P's columns block after block, in cluster order, as indices into the
    # ``width`` columns of ``stack``: unit eigenvectors, then chains
    stack, picks, width = [unit], [], n
    for idx in clusters:
        if len(idx) == 1:  # a simple eigenvalue: its chain is its unit eigenvector
            picks.append(idx[0])
            blocks.append((values[idx[0]], 1))
            continue
        lam = complex(np.mean(eigs[idx]))
        spread = float(max(abs(eigs[i] - lam) for i in idx))
        max_spread = max(max_spread, spread)
        zero = SEPARATION_FACTOR * max(spread, 1e-12 * scale)
        chains, sizes = _cluster_chains(a - lam * np.eye(n), len(idx), zero)
        picks += range(width, width + len(idx))
        width += len(idx)
        stack.append(chains)
        blocks += [(lam, size) for size in sizes]
    blocks, cols = _canonical_order(blocks)
    if len(stack) > 1:
        unit = np.concatenate(stack, axis=1)
    p = unit.take([picks[c] for c in cols], axis=1)

    j = jordan_matrix(blocks)
    try:
        p_inv = _inv(p)
    except np.linalg.LinAlgError:
        raise ClusterAmbiguity("Jordan chain basis is singular") from None
    residual = max_abs(p @ j @ p_inv - a)
    # merging eigenvalues within the gap concedes errors up to the spread
    allowance = JORDAN_RECON_TOL * scale + SEPARATION_FACTOR * max_spread
    if not residual <= allowance:
        raise ClusterAmbiguity(
            f"Jordan reconstruction residual {residual:.3e} exceeds "
            f"{allowance:.3e}; eigenvalue structure unresolved"
        )
    blocks, j, d = _rescaled(blocks, j, e)
    return JordanForm(_pow2(p, d), j, blocks), _pow2(p_inv.T, -d).T, big


# ---------------------------------------------------------------------------
# Matrix square roots through the Jordan form
# ---------------------------------------------------------------------------


def _root_chain_basis(lam: complex, mu: complex, size: int) -> np.ndarray:
    """Chain basis T of the primary square root of J_size(lam) with
    eigenvalue mu: sqrt(J_size(lam)) = T J_size(mu) T^-1.

    The root is mu * sum_i binom(1/2, i) (N/lam)^i with mu^2 = lam, which
    terminates because N is nilpotent.  Its nilpotent part R = root - mu I
    has the nonzero superdiagonal mu / (2 lam), so the chain R^k e_size
    spans.
    """
    nil = np.diag(np.ones(size - 1), 1).astype(complex)
    total = np.zeros((size, size), dtype=complex)
    term = np.eye(size, dtype=complex)
    coeff = 1.0
    for i in range(size):
        total += coeff * term
        term = term @ nil / lam
        coeff *= (0.5 - i) / (i + 1)
    r = mu * total - mu * np.eye(size)
    cols = [np.eye(size, dtype=complex)[:, size - 1]]
    for _ in range(size - 1):
        cols.append(r @ cols[-1])
    cols.reverse()
    return np.column_stack(cols)


def _sqrt_jordan(
    a: np.ndarray, cluster_gap: float, rank_a: int
) -> tuple[np.ndarray, JordanForm, np.ndarray]:
    """Half-plane primary square root of an a of rank ``rank_a``, its own
    Jordan form, and the inverse of that form's basis.

    a's zero Jordan blocks are its n - ``rank_a`` blocks of least modulus;
    each must be a 1x1 block, otherwise ``NilpotentBlock`` is raised.  The
    root's Jordan form is constructed structurally from a's, so only one
    eigenvalue clustering is ever performed, and the root is read off that
    form: the residual gate checks the form itself.

    The root's basis is a's basis P times T, block-diagonal with each
    chain block's small chain basis and ones elsewhere, so its inverse is
    the builder's P^-1 solved against T; one column permutation puts both
    in canonical order.
    """
    jf, p_inv, scale = _jordan_form(a, cluster_gap)
    axis_tol = cluster_gap * scale
    zero = ()
    if rank_a < len(a):
        by_modulus = sorted(range(len(jf.blocks)), key=lambda i: abs(jf.blocks[i][0]))
        zero = set(by_modulus[: len(a) - rank_a])

    root_blocks: list[tuple[complex, int]] = []
    t = None  # no chain block: T = I
    for i, (lam, span) in enumerate(_block_spans(jf.blocks)):
        size = span.stop - span.start
        if i in zero:
            if size > 1:
                raise NilpotentBlock(
                    f"non-trivially nilpotent Jordan block of size {size}; "
                    "no primary square root exists along this structure"
                )
            root_blocks.append((0j, 1))
            continue
        mu = halfplane_sqrt(lam, axis_tol)
        root_blocks.append((mu, size))
        if size > 1:  # a 1x1 block's chain basis is [[1]]
            if t is None:
                t = np.eye(len(a), dtype=complex)
            t[span, span] = _root_chain_basis(lam, mu, size)
    p = jf.p
    if t is not None:
        p, p_inv = p @ t, _solve(t, p_inv)

    # canonical re-sort of the root's blocks (sqrt reshuffles the order)
    blocks, cols = _canonical_order(root_blocks)
    root_jf = JordanForm(p.take(cols, axis=1), jordan_matrix(blocks), blocks)
    p_inv = p_inv.take(cols, axis=0)
    root = root_jf.p @ root_jf.j @ p_inv

    residual = max_abs(root @ root - a)
    if not residual <= SQRT_RECON_TOL * scale:
        raise ClusterAmbiguity(
            f"square-root residual {residual:.3e} exceeds "
            f"{SQRT_RECON_TOL:.1e} * scale; input structure unresolved"
        )
    return root, root_jf, p_inv


def sqrt_via_jordan(a, *, cluster_gap: float = DEFAULT_CLUSTER_GAP) -> np.ndarray:
    """Primary half-plane square root of a matrix via its Jordan form; the
    rank's zero rule decides which eigenvalues are zero."""
    a = _as_square(a)
    return _sqrt_jordan(a, cluster_gap, rank(a))[0]


# ---------------------------------------------------------------------------
# Similarity
# ---------------------------------------------------------------------------


def _group_blocks(blocks: Blocks) -> list[tuple[complex, tuple[int, ...]]]:
    """Group canonical blocks into (eigenvalue, sorted sizes) runs."""
    groups: list[tuple[complex, list[int]]] = []
    for lam, size in blocks:
        if groups and groups[-1][0] == lam:
            groups[-1][1].append(size)
        else:
            groups.append((lam, [size]))
    return [(lam, tuple(sorted(sizes, reverse=True))) for lam, sizes in groups]


def similar(a, b, *, cluster_gap: float = DEFAULT_CLUSTER_GAP) -> bool:
    """Do a and b share a canonical Jordan structure?

    Eigenvalues are matched within cluster_gap times the larger of the two
    scales; an ambiguous matching raises ``ClusterAmbiguity``.
    """
    a = _as_square(a)
    b = _as_square(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"dimension mismatch: {a.shape} vs {b.shape}")
    fa = jordan_decomposition(a, cluster_gap=cluster_gap)
    fb = jordan_decomposition(b, cluster_gap=cluster_gap)
    match_tol = cluster_gap * max(max_abs(a), max_abs(b))
    return _same_structure(fa.blocks, fb.blocks, match_tol)


def _same_structure(blocks_a: Blocks, blocks_b: Blocks, match_tol: float) -> bool:
    """Do two canonical block lists describe the same Jordan structure?

    Blocks are grouped by eigenvalue; each group must meet exactly one
    group of the other list within ``match_tol``, with the same sizes.
    An eigenvalue within ``match_tol`` of two groups raises
    ``ClusterAmbiguity``.
    """
    ga, gb = _group_blocks(blocks_a), _group_blocks(blocks_b)
    if len(ga) != len(gb):
        return False
    used = set()
    for lam, sizes in ga:
        hits = [i for i, (mu, _) in enumerate(gb) if abs(lam - mu) <= match_tol]
        if len(hits) > 1:
            raise ClusterAmbiguity(
                f"eigenvalue {lam:.6g} matches several clusters of the other matrix"
            )
        if not hits or hits[0] in used:
            return False
        used.add(hits[0])
        if gb[hits[0]][1] != sizes:
            return False
    return True
