"""Complex-matrix kernels used by the double-complex decompositions.

Everything here works on plain complex numpy arrays: numerical rank,
kernel staircases, orthonormal subspace bases, a dense Jordan
decomposition for desk-scale matrices, primary matrix square roots
through the Jordan form, the complex Moore-Penrose pseudoinverse, and
similarity testing.

The Jordan machinery is deliberately scoped: eigenvalues are clustered
at a caller-adjustable gap, clusters must be well separated, and every
result is verified by reconstruction.  One rule per cluster: a simple
eigenvalue's chain is its unit eigenvector from ``numpy.linalg.eig``;
a repeated cluster's chains come from the kernel staircase of
``a - lam I``, the same staircase that decides AB ~ BA.  Only numpy is
needed.  When the eigenvalue geometry cannot be resolved reliably the
functions raise ``ClusterAmbiguity`` rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dcnum import DEFAULT_TOL, halfplane_sqrt
from .dcmatrix import _as_square, max_abs
from .errors import ClusterAmbiguity, DimensionMismatch, NilpotentBlock, NonFiniteInput

DEFAULT_CLUSTER_GAP = 1e-6
# Distinct eigenvalue clusters must be separated by this multiple of the
# clustering gap; separations inside the (gap, factor*gap) band raise.
SEPARATION_FACTOR = 10.0
JORDAN_RECON_TOL = 1e-6
SQRT_RECON_TOL = 1e-8

Blocks = tuple[tuple[complex, int], ...]


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal basis of a subspace, stored as the columns of ``vectors``."""

    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def contains(self, w: np.ndarray, tol: float = 1e-8) -> bool:
        """Is w in the span, up to tol relative to its norm?"""
        w = np.asarray(w, dtype=complex).reshape(-1)
        nw = np.linalg.norm(w)
        if nw == 0:
            return True
        v = self.vectors
        resid = w - v @ (v.conj().T @ w)
        return np.linalg.norm(resid) <= tol * nw

    def contains_subspace(self, other: "SubspaceBasis", tol: float = 1e-8) -> bool:
        return all(self.contains(other.vectors[:, i], tol) for i in range(other.dim))

    def equals(self, other: "SubspaceBasis", tol: float = 1e-8) -> bool:
        return self.contains_subspace(other, tol) and other.contains_subspace(self, tol)


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
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def _kernel_staircase(
    x: np.ndarray, tol: float, floor: float = 0.0, stop: int | None = None
) -> list[np.ndarray]:
    """Orthonormal bases of ker x^k for k = 1, 2, ... while it grows.

    ker x^k is the kernel of x projected off ker x^(k-1), so no power of
    x is formed.  A singular value counts as zero when it is at most
    max(tol * ||x||_2, floor), at every step; with floor 0 the first
    basis therefore has n - ``rank(x, tol)`` columns.  The staircase
    also stops once a kernel reaches ``stop`` (default n) dimensions.
    """
    n = x.shape[0]
    stop = n if stop is None else stop
    kernel = np.zeros((n, 0), dtype=complex)
    bases: list[np.ndarray] = []
    while True:
        _, s, vh = np.linalg.svd(x - kernel @ (kernel.conj().T @ x))
        if not bases:
            threshold = max(tol * s[0], floor)
        r = int(np.count_nonzero(s > threshold))
        if bases and n - r <= kernel.shape[1]:
            return bases
        kernel = vh[r:].conj().T
        bases.append(kernel)
        if n - r >= stop:
            return bases


def _image_and_kernel(a, tol: float) -> tuple[SubspaceBasis, SubspaceBasis]:
    """Orthonormal bases of the image and the right kernel from one SVD."""
    a = _as_square(a)
    u, s, vh = np.linalg.svd(a)
    r = 0 if s[0] == 0 else int(np.count_nonzero(s > tol * s[0]))
    return SubspaceBasis(u[:, :r].copy()), SubspaceBasis(vh[r:].conj().T.copy())


def null_space(a, tol: float = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the right kernel at the given relative tolerance."""
    return _image_and_kernel(a, tol)[1]


def column_space(a, tol: float = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the image (column space)."""
    return _image_and_kernel(a, tol)[0]


def pinv_complex(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Complex Moore-Penrose pseudoinverse (SVD-based)."""
    a = np.asarray(a, dtype=complex)
    return np.linalg.pinv(a, rcond=tol)


# ---------------------------------------------------------------------------
# Jordan decomposition
# ---------------------------------------------------------------------------


def _cluster_indices(eigs: np.ndarray, gap: float) -> list[list[int]]:
    """Single-linkage clustering of eigenvalues at threshold ``gap``."""
    n = len(eigs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for k in range(i + 1, n):
            if abs(eigs[i] - eigs[k]) <= gap:
                ri, rk = find(i), find(k)
                if ri != rk:
                    parent[rk] = ri
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _check_separation(eigs: np.ndarray, clusters: list[list[int]], gap: float):
    for i in range(len(clusters)):
        for k in range(i + 1, len(clusters)):
            d = min(
                abs(eigs[ci] - eigs[ck]) for ci in clusters[i] for ck in clusters[k]
            )
            if d < SEPARATION_FACTOR * gap:
                raise ClusterAmbiguity(
                    f"eigenvalue clusters separated by {d:.3e}, inside the "
                    f"ambiguity band ({gap:.3e}, {SEPARATION_FACTOR * gap:.3e}); "
                    "adjust cluster_gap"
                )


def _orth_columns(cols: np.ndarray, keep_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the column span (SVD-based)."""
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    r = int(np.count_nonzero(s > keep_tol * s[0])) if s[0] > 0 else 0
    return u[:, :r]


def _cluster_chains(e: np.ndarray, mult: int, zero: float) -> list[np.ndarray]:
    """Jordan chains of e = a - lam I at a cluster of ``mult`` eigenvalues.

    ker e^k lies in the cluster's generalized eigenspace, so the kernel
    staircase of e, with singular values up to ``zero`` counted as zero,
    must stop at exactly ``mult`` dimensions.  Returns one n x size array
    per chain, columns ordered eigenvector first, so that e maps column
    i+1 to column i.
    """
    bases = _kernel_staircase(e, 0.0, zero, stop=mult)
    if bases[-1].shape[1] != mult:
        raise ClusterAmbiguity(
            f"generalized eigenspace of dimension {bases[-1].shape[1]} for a "
            f"cluster of {mult} eigenvalues; eigenvalue structure unresolved "
            "at this cluster_gap"
        )
    s = len(bases)
    d = [0] + [basis.shape[1] for basis in bases]  # d[k] = nullity(e^k)
    # blocks of size >= k
    r = [d[k] - d[k - 1] for k in range(1, s + 1)] + [0]
    if any(r[i + 1] > r[i] for i in range(s)):
        raise ClusterAmbiguity("invalid nullity profile for a Jordan structure")

    generators: list[tuple[np.ndarray, int]] = []
    active: list[np.ndarray] = []
    for k in range(s, 0, -1):
        need = r[k - 1] - r[k]
        if need > 0:
            obstruction = [bases[k - 2]] if k >= 2 else []
            if active:
                obstruction.append(np.column_stack(active))
            if obstruction:
                q = _orth_columns(np.hstack(obstruction))
                cand = bases[k - 1] - q @ (q.conj().T @ bases[k - 1])
            else:
                cand = bases[k - 1]
            u, sv, _ = np.linalg.svd(cand, full_matrices=False)
            if len(sv) < need or sv[need - 1] < 1e-6:
                raise ClusterAmbiguity("could not separate Jordan chain generators")
            for i in range(need):
                generators.append((u[:, i].copy(), k))
                active.append(u[:, i])
        if k > 1:
            # only their span matters: max-modulus 1 keeps it finite at any scale
            active = [v / max_abs(v) for v in (e @ w for w in active)]

    chains = []
    for g, height in sorted(generators, key=lambda t: -t[1]):
        members = [g]
        # a long chain at a large scale can overflow; it is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(height - 1):
                members.append(e @ members[-1])
            members.reverse()  # eigenvector first
            chain = np.column_stack(members)
            norm2 = np.linalg.norm(chain[:, 0]) * np.linalg.norm(chain[:, -1])
        if not 0 < norm2 < math.inf:
            raise ClusterAmbiguity(
                f"degenerate Jordan chain (norm product {norm2:.3e})"
            )
        chain /= np.sqrt(norm2)
        chains.append(chain)
    return chains


def jordan_matrix(blocks: Blocks) -> np.ndarray:
    """Assemble the canonical Jordan matrix for a block list.

    The superdiagonal holds ones inside blocks and zeros between them.
    """
    diag = [lam for lam, size in blocks for _ in range(size)]
    sup = [complex(i < size - 1) for _, size in blocks for i in range(size)]
    return np.diag(np.array(diag, dtype=complex)) + np.diag(
        np.array(sup[:-1], dtype=complex), 1
    )


def _canonical_order(blocks, *column_lists) -> tuple:
    """Blocks in canonical order, with per-block columns stacked to match.

    Returns (blocks, stacked, ...) with one stacked matrix per list in
    ``column_lists``; ties keep their input order.
    """
    keys = [(lam.real, lam.imag, -size) for lam, size in blocks]
    order = sorted(range(len(blocks)), key=keys.__getitem__)
    return (
        tuple(blocks[i] for i in order),
        *(np.concatenate([cols[i] for i in order], axis=1) for cols in column_lists),
    )


def _block_spans(blocks: Blocks):
    """Yield (eigenvalue, slice) of each block's rows and columns in order."""
    pos = 0
    for lam, size in blocks:
        yield lam, slice(pos, pos + size)
        pos += size


def jordan_decomposition(a, *, cluster_gap: float = DEFAULT_CLUSTER_GAP) -> JordanForm:
    """Dense Jordan decomposition for desk-scale matrices.

    Eigenvalues within ``cluster_gap * max_abs(a)`` of each other are
    treated as equal (single linkage); distinct clusters must then be
    separated by at least ``SEPARATION_FACTOR`` times that gap, otherwise
    ``ClusterAmbiguity`` is raised and the caller should adjust the gap.
    A simple eigenvalue contributes its unit eigenvector; a repeated
    cluster is split into chains by the kernel staircase of a - lam I.
    The result is verified by reconstruction.
    """
    a = _as_square(a)
    n = a.shape[0]
    scale = max_abs(a)
    if not math.isfinite(scale):
        raise NonFiniteInput("matrix has a non-finite entry")
    if scale == 0:
        blocks = tuple((0j, 1) for _ in range(n))
        return JordanForm(np.eye(n, dtype=complex), np.zeros((n, n), complex), blocks)
    gap = cluster_gap * scale

    eigs, vecs = np.linalg.eig(a)
    clusters = _cluster_indices(eigs, gap)
    _check_separation(eigs, clusters, gap)
    # a cluster of one reads its eigenvalue; + 0j maps -0.0 to +0.0 as np.mean
    means = [
        complex(eigs[idx[0]]) + 0j if len(idx) == 1 else complex(np.mean(eigs[idx]))
        for idx in clusters
    ]

    max_spread = 0.0
    blocks: list[tuple[complex, int]] = []
    columns: list[np.ndarray] = []
    for idx, lam in zip(clusters, means):
        if len(idx) == 1:
            # a simple eigenvalue: its chain is its unit eigenvector
            v = vecs[:, idx[0]]
            columns.append((v / np.linalg.norm(v))[:, None])
            blocks.append((lam, 1))
            continue
        spread = float(max(abs(eigs[i] - lam) for i in idx))
        max_spread = max(max_spread, spread)
        zero = SEPARATION_FACTOR * max(spread, 1e-12 * scale)
        for chain in _cluster_chains(a - lam * np.eye(n), len(idx), zero):
            columns.append(chain)
            blocks.append((lam, chain.shape[1]))
    blocks, p = _canonical_order(blocks, columns)

    j = jordan_matrix(tuple(blocks))
    try:
        residual = max_abs(p @ j @ np.linalg.inv(p) - a)
    except np.linalg.LinAlgError:
        raise ClusterAmbiguity("Jordan chain basis is singular") from None
    # merging eigenvalues within the gap concedes errors up to the spread
    allowance = JORDAN_RECON_TOL * scale + SEPARATION_FACTOR * max_spread
    if residual > allowance:
        raise ClusterAmbiguity(
            f"Jordan reconstruction residual {residual:.3e} exceeds "
            f"{allowance:.3e}; eigenvalue structure unresolved"
        )
    return JordanForm(p, j, tuple(blocks))


# ---------------------------------------------------------------------------
# Matrix square roots through the Jordan form
# ---------------------------------------------------------------------------


def _sqrt_block_triangular(lam: complex, mu: complex, size: int) -> np.ndarray:
    """Square root of a single invertible Jordan block.

    Uses mu * sum_i binom(1/2, i) (N/lam)^i with mu^2 = lam, which
    terminates because N is nilpotent.
    """
    nil = np.diag(np.ones(size - 1), 1).astype(complex)
    total = np.zeros((size, size), dtype=complex)
    term = np.eye(size, dtype=complex)
    coeff = 1.0
    for i in range(size):
        total += coeff * term
        term = term @ nil / lam
        coeff *= (0.5 - i) / (i + 1)
    return mu * total


def _chain_basis_for_block(s_block: np.ndarray, mu: complex) -> np.ndarray:
    """Similarity taking an upper-triangular block root to canonical form.

    For an invertible block root the nilpotent part has a nonzero
    superdiagonal, so the chain generated by the last basis vector spans.
    """
    size = s_block.shape[0]
    nil = s_block - mu * np.eye(size)
    cols = [np.eye(size, dtype=complex)[:, size - 1]]
    for _ in range(size - 1):
        cols.append(nil @ cols[-1])
    cols.reverse()
    return np.column_stack(cols)


def sqrt_jordan_factors(
    a, *, cluster_gap: float = DEFAULT_CLUSTER_GAP
) -> tuple[np.ndarray, JordanForm]:
    """Half-plane primary square root along with its own Jordan form.

    The input must have no non-trivially nilpotent Jordan blocks (every
    block invertible, or a 1x1 zero); otherwise ``NilpotentBlock`` is
    raised.  The root's Jordan form is constructed structurally from the
    input's, so only one eigenvalue clustering is ever performed.
    """
    a = _as_square(a)
    jf = jordan_decomposition(a, cluster_gap=cluster_gap)
    scale = max_abs(a)
    zero_tol = cluster_gap * scale

    root_blocks: list[tuple[complex, int]] = []
    s_blocks: list[np.ndarray] = []
    t_blocks: list[np.ndarray] = []
    for lam, size in jf.blocks:
        if abs(lam) <= zero_tol:
            if size > 1:
                raise NilpotentBlock(
                    f"non-trivially nilpotent Jordan block of size {size}; "
                    "no primary square root exists along this structure"
                )
            root_blocks.append((0j, 1))
            s_blocks.append(np.zeros((1, 1), complex))
            t_blocks.append(np.ones((1, 1), complex))
        else:
            mu = halfplane_sqrt(lam, zero_tol)
            s_block = _sqrt_block_triangular(lam, mu, size)
            root_blocks.append((mu, size))
            s_blocks.append(s_block)
            t_blocks.append(_chain_basis_for_block(s_block, mu))

    s_tri = _block_diag(jf.blocks, s_blocks)
    root = jf.p @ s_tri @ np.linalg.inv(jf.p)

    # canonical re-sort of the root's blocks (sqrt reshuffles the order)
    p_root = jf.p @ _block_diag(jf.blocks, t_blocks)
    cols = [p_root[:, span] for _, span in _block_spans(jf.blocks)]
    blocks, p_sorted = _canonical_order(root_blocks, cols)
    root_jf = JordanForm(p_sorted, jordan_matrix(blocks), blocks)

    residual = max_abs(root @ root - a)
    if residual > SQRT_RECON_TOL * max(scale, 1.0):
        raise ClusterAmbiguity(
            f"square-root residual {residual:.3e} exceeds tolerance; "
            "input structure unresolved"
        )
    return root, root_jf


def sqrt_via_jordan(a, *, cluster_gap: float = DEFAULT_CLUSTER_GAP) -> np.ndarray:
    """Primary half-plane square root of a matrix via its Jordan form."""
    root, _ = sqrt_jordan_factors(a, cluster_gap=cluster_gap)
    return root


def _block_diag(blocks: Blocks, parts: list[np.ndarray]) -> np.ndarray:
    """Block-diagonal matrix holding parts on the diagonal spans of blocks."""
    n = sum(size for _, size in blocks)
    out = np.zeros((n, n), dtype=complex)
    for (_, span), part in zip(_block_spans(blocks), parts):
        out[span, span] = part
    return out


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

    Eigenvalues are matched across the two matrices at the clustering
    gap; an ambiguous matching raises ``ClusterAmbiguity``.
    """
    a = _as_square(a)
    b = _as_square(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"dimension mismatch: {a.shape} vs {b.shape}")
    fa = jordan_decomposition(a, cluster_gap=cluster_gap)
    fb = jordan_decomposition(b, cluster_gap=cluster_gap)
    match_tol = cluster_gap * max(max_abs(a), max_abs(b), 1e-300)
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
