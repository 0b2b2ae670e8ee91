"""Complex kernels: rank, kernel staircases, Jordan form, roots, similarity."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tessarine import complex_linalg
from tessarine.complex_linalg import (
    JORDAN_RECON_TOL,
    SEPARATION_FACTOR,
    jordan_decomposition,
    jordan_matrix,
    rank,
    similar,
    sqrt_via_jordan,
    _eig,
    _inv,
    _kernel_staircase,
    _same_structure,
    _solve,
    _staircase_sizes,
    _svd,
)
from tessarine.dcmatrix import DCMatrix, max_abs
from tessarine.dcnum import DEFAULT_TOL
from tessarine.decompositions import rank_quadruple
from tessarine.errors import ClusterAmbiguity, NilpotentBlock


def crand(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestRank:
    def test_identity(self):
        assert rank(np.eye(3)) == 3

    def test_nilpotent(self):
        assert rank(np.array([[0, 1], [0, 0]])) == 1

    def test_zero(self):
        assert rank(np.zeros((4, 4))) == 0

    def test_factored_products(self):
        rng = np.random.default_rng(0)
        for r in range(5):
            a = crand(rng, 5, r) @ crand(rng, r, 5) if r else np.zeros((5, 5))
            assert rank(a) == r

    def test_transpose_and_conjugate_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            r = int(rng.integers(0, 5))
            a = crand(rng, 4, r) @ crand(rng, r, 4) if r else np.zeros((4, 4))
            assert rank(a) == rank(a.T) == rank(np.conj(a))


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("factor, want", [(1.001, 2), (0.999, 1)])
def test_zero_rule_boundary_agrees(scale, factor, want):
    # one singular value just above or just below tol * sigma_1
    a = scale * np.diag([DEFAULT_TOL * factor, 1.0, 0.0]).astype(complex)
    assert rank(a) == want
    assert rank_quadruple(DCMatrix(a, np.eye(3)))[0] == want
    zero = DEFAULT_TOL * np.linalg.norm(a, 2)
    assert 3 - _kernel_staircase(a, zero)[0].shape[1] == want


def partitions(n, largest=None):
    """Partitions of n, parts largest first."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k, *rest)


@pytest.mark.parametrize("sizes", [p for n in range(1, 7) for p in partitions(n)])
def test_partition_round_trip(sizes):
    n = sum(sizes)
    rng = np.random.default_rng(n)
    q1, _ = np.linalg.qr(crand(rng, n, n))
    q2, _ = np.linalg.qr(crand(rng, n, n))
    p = q1 @ np.diag(10.0 ** rng.uniform(0, 1.4, n)) @ q2
    x = p @ jordan_matrix(tuple((0j, k) for k in sizes)) @ np.linalg.inv(p)
    zero = DEFAULT_TOL * np.linalg.norm(x, 2)
    nullities = [basis.shape[1] for basis in _kernel_staircase(x, zero)]
    assert tuple(_staircase_sizes(nullities)) == sizes
    # rounding splits a gauged block of size k into eigenvalues about
    # eps**(1/k) apart (2.5e-3 at k = 6), so 1 is clustered at a wider gap
    jf = jordan_decomposition(x + np.eye(n), cluster_gap=1e-2)
    assert tuple(size for _, size in jf.blocks) == sizes


class TestJordan:
    def test_already_jordan(self):
        jf = jordan_decomposition(np.array([[0, 1], [0, 0]], dtype=complex))
        assert jf.blocks == ((0j, 2),)
        assert np.allclose(jf.p, np.eye(2))

    def test_diagonal(self):
        jf = jordan_decomposition(np.diag([2.0, 3.0]).astype(complex))
        assert jf.blocks == ((2 + 0j, 1), (3 + 0j, 1))

    def test_build_then_recover(self):
        rng = np.random.default_rng(3)
        structures = [
            ((2 + 0j, 2), (5 + 0j, 1)),
            ((0j, 1), (1 + 1j, 2)),
            ((1 + 0j, 2), (1 + 0j, 1), (-1 + 0j, 1)),
            ((0j, 2), (3 + 0j, 2)),
        ]
        for blocks in structures:
            j = jordan_matrix(blocks)
            n = j.shape[0]
            p = crand(rng, n, n)
            a = p @ j @ np.linalg.inv(p)
            jf = jordan_decomposition(a)
            got = sorted((round(l.real, 6), round(l.imag, 6), s) for l, s in jf.blocks)
            want = sorted((l.real, l.imag, s) for l, s in blocks)
            assert got == want
            recon = jf.p @ jf.j @ np.linalg.inv(jf.p)
            assert np.abs(recon - a).max() <= 1e-6 * np.abs(a).max()

    def test_reconstruction_residual_on_gapped_corpus(self):
        rng = np.random.default_rng(4)
        pool = [-2 + 0j, -1 + 0j, 0j, 1 + 0j, 2 + 0j, 1j, -1j, 2 + 1j]
        for trial in range(40):
            rng.shuffle(pool)
            blocks, total, i = [], 0, 0
            n_target = int(rng.integers(2, 9))
            while total < n_target:
                size = int(min(rng.integers(1, 3), n_target - total))
                blocks.append((pool[i], size))
                total += size
                i += 1
            j = jordan_matrix(tuple(blocks))
            p = crand(rng, total, total)
            a = p @ j @ np.linalg.inv(p)
            jf = jordan_decomposition(a, cluster_gap=1e-5)
            recon = jf.p @ jf.j @ np.linalg.inv(jf.p)
            assert np.abs(recon - a).max() <= 1e-6 * np.abs(a).max()

    def test_canonical_block_order(self):
        a = np.diag([3.0, 1.0, 2.0]).astype(complex)
        jf = jordan_decomposition(a)
        assert [l for l, _ in jf.blocks] == [1, 2, 3]

    def test_cluster_ambiguity_band(self):
        # eigenvalues 1 and 1 + 5e-6 sit inside (gap, 10*gap) at scale ~2
        a = np.diag([1.0, 1.0 + 5e-6, 2.0]).astype(complex)
        with pytest.raises(ClusterAmbiguity):
            jordan_decomposition(a)
        # a larger gap resolves them into one cluster
        jf = jordan_decomposition(a, cluster_gap=1e-4)
        assert sorted(s for _, s in jf.blocks) == [1, 1, 1]

    def test_first_violating_cluster_pair_is_reported(self):
        # three clusters, the last of two eigenvalues 5e-7 apart; the
        # first pair (9e-6 apart) and the first and last (6e-6 apart)
        # are inside the band: the first pair in loop order is reported,
        # not the closest
        a = np.diag([1 + 9e-6, 1, 1 + 1.5e-5, 1 + 1.55e-5]).astype(complex)
        with pytest.raises(ClusterAmbiguity) as info:
            jordan_decomposition(a)
        assert str(info.value) == (
            "eigenvalue clusters separated by 9.000e-06, inside the ambiguity "
            "band (1.000e-06, 1.000e-05); adjust cluster_gap"
        )


class TestChainsForRepeatedClusters:
    """Simple eigenvalues take their eig vectors; only repeated ones reach
    the kernel-staircase chain builder."""

    def decompose_counting_chains(self, monkeypatch, blocks, seed):
        import tessarine.complex_linalg as cl

        calls = []
        real_chains = cl._cluster_chains

        def counting_chains(*args, **kwargs):
            calls.append(1)
            return real_chains(*args, **kwargs)

        monkeypatch.setattr(cl, "_cluster_chains", counting_chains)
        j = jordan_matrix(blocks)
        p = crand(np.random.default_rng(seed), j.shape[0], j.shape[0])
        a = p @ j @ np.linalg.inv(p)
        jf = jordan_decomposition(a)
        recon = jf.p @ jf.j @ np.linalg.inv(jf.p)
        assert np.abs(recon - a).max() <= 1e-6 * np.abs(a).max()
        got = [(round(l.real, 6), round(l.imag, 6), s) for l, s in jf.blocks]
        return got, len(calls)

    def test_one_chain_build_per_repeated_cluster(self, monkeypatch):
        blocks = ((-1 + 0j, 1), (2 + 0j, 2), (3j, 1), (5 + 0j, 1))
        got, calls = self.decompose_counting_chains(monkeypatch, blocks, 9)
        assert got == [(-1.0, 0.0, 1), (0.0, 3.0, 1), (2.0, 0.0, 2), (5.0, 0.0, 1)]
        assert calls == 1

    def test_distinct_eigenvalues_build_no_chains(self, monkeypatch):
        blocks = ((-1 + 0j, 1), (2 + 0j, 1), (3j, 1), (5 + 0j, 1))
        got, calls = self.decompose_counting_chains(monkeypatch, blocks, 10)
        assert got == [(-1.0, 0.0, 1), (0.0, 3.0, 1), (2.0, 0.0, 1), (5.0, 0.0, 1)]
        assert calls == 0


class TestClusterIndices:
    """Single-linkage clustering of eigenvalues on a line, gap 1e-6: the
    ambiguity band is (1e-6, 1e-5)."""

    GAP = 1e-6

    def clusters(self, points):
        dist = [[abs(x - y) for y in points] for x in points]
        return complex_linalg._cluster_indices(dist, self.GAP)

    def test_single_linkage_chains(self):
        # a ~ b and b ~ c within the gap; a and c are 1.6 gaps apart, inside
        # the band, but in one cluster that is no ambiguity
        assert self.clusters([0.0, 0.8e-6, 1.6e-6, 1.0]) == [[0, 1, 2], [3]]

    def test_clusters_ordered_by_least_member(self):
        # 1 ~ 5 joins first, then 3 ~ 5 puts the union under 3's root: the
        # cluster still sits where its least member 1 does
        points = [10.0, 0.0, 20.0, 1.2e-6, 30.0, 0.6e-6]
        assert self.clusters(points) == [[0], [1, 3, 5], [2], [4]]

    def test_ambiguity_reports_first_crossing_pair_in_cluster_order(self):
        # clusters {0, 3}, {1}, {2}; pairs in the band: (0, 2) 7.5 gaps,
        # (1, 2) 4 gaps and (2, 3) 7 gaps.  In cluster order the first pair of
        # clusters is ({0, 3}, {2}), and its closest members are 7 gaps apart
        points = [0.0, 11.5e-6, 7.5e-6, 0.5e-6]
        with pytest.raises(ClusterAmbiguity) as info:
            self.clusters(points)
        assert str(info.value) == (
            "eigenvalue clusters separated by 7.000e-06, inside the ambiguity "
            "band (1.000e-06, 1.000e-05); adjust cluster_gap"
        )


# eigenvalues one apart: far outside the SEPARATION_FACTOR * gap band below
EIGENVALUE_GRID = [complex(re, im) for re in range(-2, 3) for im in range(-2, 3)]
MIXED_GAP = 1e-4


@st.composite
def mixed_spectra(draw):
    """One repeated eigenvalue next to one to three simple ones, scaled by s."""
    lams = draw(st.lists(st.sampled_from(EIGENVALUE_GRID), min_size=2, max_size=4,
                         unique=True))
    sizes = draw(st.sampled_from([(2,), (1, 1), (3,), (2, 1), (2, 2)]))
    blocks = tuple((lams[0], size) for size in sizes) + tuple((l, 1) for l in lams[1:])
    s = 10.0 ** draw(st.floats(-6, 6))
    return blocks, draw(st.integers(0, 2**32 - 1)), s


# a Jordan block next to a semisimple double eigenvalue, at extreme scales
J2_I_SEMISIMPLE_2 = ((1j, 2), (2 + 0j, 1), (2 + 0j, 1))


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(mixed_spectra())
@example((J2_I_SEMISIMPLE_2, 0, 1e-150))
@example((J2_I_SEMISIMPLE_2, 0, 1.0))
@example((J2_I_SEMISIMPLE_2, 0, 1e150))
def test_mixed_spectra_recovered_at_any_scale(case):
    blocks, seed, s = case
    rng = np.random.default_rng(seed)
    n = sum(size for _, size in blocks)
    q, _ = np.linalg.qr(crand(rng, n, n))
    p = q @ (np.eye(n) + 0.5 * np.triu(crand(rng, n, n), 1))
    assume(np.linalg.cond(p) < 30)
    a = s * (p @ jordan_matrix(blocks) @ np.linalg.inv(p))
    scale = max_abs(a)
    assert SEPARATION_FACTOR * MIXED_GAP * scale < 0.1 * s

    jf = jordan_decomposition(a, cluster_gap=MIXED_GAP)

    def key(block):
        lam, size = block
        return (round(lam.real / s, 6), round(lam.imag / s, 6), -size)

    got = sorted(jf.blocks, key=key)
    want = sorted(((s * mu, size) for mu, size in blocks), key=key)
    assert [size for _, size in got] == [size for _, size in want]
    for (lam, _), (mu, _) in zip(got, want):
        assert abs(lam - mu) <= 1e-8 * scale
    # the allowance's scale term alone; the spread term only loosens it
    residual = max_abs(jf.p @ jf.j @ np.linalg.inv(jf.p) - a)
    assert residual <= JORDAN_RECON_TOL * scale
    simple = {lam for lam, size in blocks if size == 1} - {blocks[0][0]}
    starts = np.cumsum([0] + [size for _, size in jf.blocks])
    for start, (lam, _) in zip(starts, jf.blocks):
        if complex(round(lam.real / s), round(lam.imag / s)) in simple:
            v = jf.p[:, start]
            assert np.isclose(np.linalg.norm(v), 1.0)
            assert np.linalg.norm(a @ v - lam * v) <= 1e-8 * np.linalg.norm(a, 2)


class TestSqrt:
    def test_scalar(self):
        assert np.allclose(sqrt_via_jordan(np.array([[4.0]])), [[2.0]])

    def test_unipotent_block(self):
        a = np.array([[1, 1], [0, 1]], dtype=complex)
        r = sqrt_via_jordan(a)
        assert np.allclose(r, [[1, 0.5], [0, 1]])
        assert np.allclose(r @ r, a)

    def test_halfplane_branch_with_zero(self):
        r = sqrt_via_jordan(np.diag([-1.0, 0.0]).astype(complex))
        assert np.allclose(r, np.diag([1j, 0]))

    def test_nilpotent_block_raises(self):
        with pytest.raises(NilpotentBlock):
            sqrt_via_jordan(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_square_back_on_structures(self):
        rng = np.random.default_rng(5)
        structures = [
            ((4 + 0j, 2), (0j, 1)),
            ((-1 + 0j, 1), (2 + 2j, 2)),
            ((1 + 0j, 3), (-4 + 0j, 1)),
        ]
        for blocks in structures:
            j = jordan_matrix(blocks)
            n = j.shape[0]
            p = crand(rng, n, n)
            a = p @ j @ np.linalg.inv(p)
            r = sqrt_via_jordan(a, cluster_gap=1e-4)
            assert np.abs(r @ r - a).max() <= 1e-8 * max(np.abs(a).max(), 1.0)
            eigs = np.linalg.eigvals(r)
            assert all(e.real > -1e-8 for e in eigs)

    def test_residual_gate_has_no_floor(self, monkeypatch):
        j = jordan_matrix(((4 + 0j, 2), (1j, 2)))
        p = crand(np.random.default_rng(0), 4, 4)
        a = 1e-12 * (p @ j @ np.linalg.inv(p))
        r = sqrt_via_jordan(a)
        assert max_abs(r @ r - a) <= 1e-8 * max_abs(a)
        # J_mu in the chain basis of J_lam: a root about 30% wrong, which a
        # bound of 1e-8 * max(|a|, 1) lets through at this scale
        monkeypatch.setattr(
            complex_linalg,
            "_root_chain_basis",
            lambda lam, mu, size: np.eye(size, dtype=complex),
        )
        with pytest.raises(ClusterAmbiguity):
            sqrt_via_jordan(a)


@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1.0, 1e100, 1e150])
def test_chains_of_length_3_resolve_at_any_scale(scale):
    # chain norms are taken on columns scaled by a power of two near their
    # max modulus: no under- or overflow
    j = jordan_matrix(((1 + 0j, 3), (1 + 0j, 2)))
    p = crand(np.random.default_rng(0), 5, 5)
    a = scale * (p @ j @ np.linalg.inv(p))
    jf = jordan_decomposition(a, cluster_gap=1e-4)
    assert [size for _, size in jf.blocks] == [3, 2]
    residual = max_abs(jf.p @ jf.j @ np.linalg.inv(jf.p) - a)
    assert residual <= JORDAN_RECON_TOL * max_abs(a)


class TestSimilar:
    def test_similarity_invariance(self):
        rng = np.random.default_rng(7)
        a = crand(rng, 4, 4)
        p = crand(rng, 4, 4)
        assert similar(a, p @ a @ np.linalg.inv(p))

    def test_distinct_jordan_structure(self):
        assert not similar(
            np.array([[0, 1], [0, 0]], dtype=complex), np.zeros((2, 2))
        )

    def test_ab_ba_invertible(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a, b = crand(rng, 4, 4), crand(rng, 4, 4)
            assert similar(a @ b, b @ a)

    def test_different_eigenvalues(self):
        assert not similar(
            np.diag([1.0, 2.0]).astype(complex), np.diag([1.0, 3.0]).astype(complex)
        )


class TestSameStructure:
    """The block-list matcher behind similar, AB ~ BA and uniqueness_scan."""

    def test_split_group_is_not_one_block(self):
        assert not _same_structure(((1 + 0j, 1), (1 + 0j, 1)), ((1 + 0j, 2),), 1e-6)

    def test_eigenvalue_inside_tolerance_matches(self):
        a = ((1 + 0j, 2), (3 + 0j, 1))
        b = ((1 + 5e-7j, 2), (3 - 5e-7 + 0j, 1))
        assert _same_structure(a, b, 1e-6)
        assert not _same_structure(a, b, 1e-7)

    def test_sizes_must_agree_per_eigenvalue(self):
        a = ((1 + 0j, 2), (3 + 0j, 1))
        b = ((1 + 0j, 1), (3 + 0j, 2))
        assert not _same_structure(a, b, 1e-6)

    def test_ambiguous_match_raises(self):
        # 1 lies within the tolerance of both 1 and 1 + 1e-7
        a = ((1 + 0j, 1), (1 + 2e-7 + 0j, 1))
        b = ((1 + 0j, 1), (1 + 1e-7 + 0j, 1))
        with pytest.raises(ClusterAmbiguity):
            _same_structure(a, b, 1e-6)


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports tessarine from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestNumpyOnly:
    """scipy is never loaded: the package runs on numpy alone."""

    def test_import_leaves_scipy_unloaded(self):
        out = run_fresh(
            """
            import sys
            import tessarine, tessarine.cli
            assert "scipy" not in sys.modules, "scipy imported eagerly"
            """
        )
        assert out.returncode == 0, out.stderr

    def test_clustered_jordan_and_jsvd_leave_scipy_unloaded(self, tmp_path):
        # a 2x2 Jordan block next to a distinct eigenvalue: a repeated
        # cluster smaller than n, then a clustered pair through the CLI
        pair = str(tmp_path / "pair.json")
        out = run_fresh(
            f"""
            import sys
            import numpy as np
            from tessarine.cli import main
            from tessarine.complex_linalg import jordan_decomposition, jordan_matrix
            from tessarine.dcmatrix import DCMatrix
            from tessarine.pairfile import save_pair

            j = jordan_matrix(((2 + 0j, 2), (5 + 0j, 1)))
            p = np.array([[1, 2, 0], [0, 1, 1], [1, 0, 1]], dtype=complex)
            a = p @ j @ np.linalg.inv(p)
            jf = jordan_decomposition(a)
            got = [(round(l.real, 6), round(l.imag, 6), s) for l, s in jf.blocks]
            assert got == [(2.0, 0.0, 2), (5.0, 0.0, 1)], got
            recon = jf.p @ jf.j @ np.linalg.inv(jf.p)
            assert np.abs(recon - a).max() <= 1e-6 * np.abs(a).max()
            save_pair({pair!r}, DCMatrix(np.eye(3), a))
            assert main(["jsvd", {pair!r}]) == 0
            assert "scipy" not in sys.modules, "scipy imported"
            """
        )
        assert out.returncode == 0, out.stderr


def same_bits(got, want) -> bool:
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def square_layouts():
    """Complex square inputs as the package meets them: one matrix, a stack of
    two, that stack's negative-stride view and a Fortran-ordered matrix."""
    rng = np.random.default_rng(27)
    ab = crand(rng, 8, 4).reshape(2, 4, 4)
    return {
        "square": crand(rng, 4, 4),
        "stacked": ab,
        "reversed": ab[::-1],
        "fortran": np.asfortranarray(crand(rng, 4, 4)),
    }


class TestLapackLayer:
    """Each function of the LAPACK layer returns numpy.linalg's bits and
    raises its errors, and no module calls numpy.linalg's front end."""

    @pytest.mark.parametrize("layout", [*square_layouts(), "wide", "tall"])
    def test_svd(self, layout):
        rng = np.random.default_rng(5)
        a = {"wide": crand(rng, 3, 5), "tall": crand(rng, 5, 3),
             **square_layouts()}[layout]
        for full in (True, False):
            for got, want in zip(_svd(a, full), np.linalg.svd(a, full)):
                assert same_bits(got, want)
        assert same_bits(_svd(a, compute_uv=False), np.linalg.svd(a, compute_uv=False))

    @pytest.mark.parametrize("layout", square_layouts())
    def test_eig_inv_solve(self, layout):
        a = square_layouts()[layout]
        rows = a.size // a.shape[-1]
        b = crand(np.random.default_rng(6), rows, 3).reshape(*a.shape[:-1], 3)
        for got, want in zip(_eig(a), np.linalg.eig(a)):
            assert same_bits(got, want)
        assert same_bits(_inv(a), np.linalg.inv(a))
        assert same_bits(_solve(a, b), np.linalg.solve(a, b))
        assert same_bits(_solve(a, b[..., ::-1]), np.linalg.solve(a, b[..., ::-1]))

    def test_singular_matrix(self):
        a = np.array([[1, 2], [2, 4]], dtype=complex)
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            _inv(a)
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            _solve(a, np.eye(2, dtype=complex))

    def test_no_numpy_linalg_call_in_the_package(self):
        # every numpy.linalg name a module reads is LinAlgError; only the
        # layer imports the gufunc module
        for path in Path(complex_linalg.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Attribute)
                        and node.value.attr == "linalg"
                        and isinstance(node.value.value, ast.Name)
                        and node.value.value.id in ("np", "numpy")):
                    assert node.attr == "LinAlgError", f"{path.name}:{node.lineno}"
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [getattr(node, "module", None) or ""]
                    names += [alias.name for alias in node.names]
                    if any(name.startswith("numpy.linalg") for name in names):
                        assert path.name == "complex_linalg.py", path.name
