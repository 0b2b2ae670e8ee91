"""The core factorizations: naive SVD, Jordan SVD, pseudoinverses, polar."""

import sys
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tessarine import complex_linalg, explorer
from tessarine.dcmatrix import DCMatrix, direct_sum, embed_complex, max_abs
from tessarine.complex_linalg import jordan_decomposition, jordan_matrix, similar
from tessarine.decompositions import (
    JsvdStatus,
    PolarDecomposition,
    attempt_jordan_svd,
    hermitian_jsvd,
    jordan_svd,
    jsvd_necessary,
    jsvd_to_polar,
    naive_dc_svd,
    penrose_check,
    pinv,
    pinv_exists,
    pinv_via_diagrams,
    polar,
    polar_to_jsvd,
    rank_quadruple,
    _PairAnalysis,
)
from tessarine.errors import (
    ClusterAmbiguity,
    NonFiniteInput,
    NoPseudoinverse,
    NotDiagonalizable,
    PreconditionFailed,
    SingularComponent,
    TessarineError,
)
from tessarine.explorer import rank_condition_pair, uniqueness_scan


def crand(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rand_pair(rng, n):
    return DCMatrix(crand(rng, n), crand(rng, n))


def counterexample_pair():
    """A = diag(0,1), B = the nilpotent shift: conditions (T, T, F)."""
    return DCMatrix(np.diag([0.0, 1.0]), np.array([[0, 1], [0, 0]]))


def blocks_close(got, want, tol=1e-8):
    if len(got) != len(want):
        return False
    return all(
        abs(l1 - l2) <= tol and s1 == s2
        for (l1, s1), (l2, s2) in zip(got, want)
    )


class TestNaiveSvd:
    def test_identity(self):
        u, s, v = naive_dc_svd(DCMatrix.identity(2))
        assert s.approx_eq(DCMatrix.identity(2), 1e-12)
        assert u.approx_eq(DCMatrix.identity(2), 1e-12)
        assert v.approx_eq(DCMatrix.identity(2), 1e-12)
        assert (u @ s @ v.star()).approx_eq(DCMatrix.identity(2), 1e-12)

    def test_coupling_example(self):
        m = DCMatrix(np.diag([2.0, 3.0]), np.eye(2))
        u, s, v = naive_dc_svd(m)
        assert np.allclose(np.sort(np.diag(s.a)), [np.sqrt(2), np.sqrt(3)])
        # B = Q D P^-1 must reproduce the identity
        assert np.allclose(v.a @ s.a @ np.linalg.inv(u.a), np.eye(2))
        assert (u @ s @ v.star()).approx_eq(m, 1e-9)

    def test_defective_product_raises(self):
        with pytest.raises(NotDiagonalizable):
            naive_dc_svd(DCMatrix(np.array([[1, 1], [0, 1]]), np.eye(2)))

    def test_singular_a_raises(self):
        with pytest.raises(SingularComponent):
            naive_dc_svd(DCMatrix(np.diag([0.0, 1.0]), np.eye(2)))

    def test_reduction_identities(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rand_pair(rng, 4)
            try:
                u, s, v = naive_dc_svd(m)
            except (NotDiagonalizable, SingularComponent):
                continue
            ab, ba = m.a @ m.b, m.b @ m.a
            d2 = s.a @ s.a
            scale = max(np.abs(ab).max(), 1.0)
            assert (
                np.abs(u.a @ d2 @ np.linalg.inv(u.a) - ab).max() <= 1e-8 * scale
            )
            assert (
                np.abs(v.a @ d2 @ np.linalg.inv(v.a) - ba).max() <= 1e-8 * scale
            )


class TestJordanSvd:
    def test_hermitian_specialization(self):
        rng = np.random.default_rng(1)
        j = jordan_matrix(((1 + 0j, 2), (3 + 0j, 1)))
        p = crand(rng, 3)
        a = p @ j @ np.linalg.inv(p)
        m = DCMatrix(a, a)
        out = jordan_svd(m, rng=np.random.default_rng(2))
        assert blocks_close(out.blocks, ((1 + 0j, 2), (3 + 0j, 1)))
        # U = V = [P', P'^-1] for the Hermitian invertible case
        assert (out.u - out.v).norm_inf() <= 1e-7
        assert (out.reconstruct() - m).norm_inf() <= 1e-7 * m.norm_inf()

    def test_invertible_random(self):
        rng = np.random.default_rng(3)
        for n in range(1, 6):
            m = rand_pair(rng, n)
            out = jordan_svd(m, rng=np.random.default_rng(n))
            assert out.residual <= 1e-7 * m.norm_inf()
            assert out.u.is_unitary(1e-8)
            assert out.v.is_unitary(1e-8)
            assert out.s.is_hermitian(1e-12)

    def test_counterexample_rejected(self):
        with pytest.raises(PreconditionFailed):
            jordan_svd(counterexample_pair())

    def test_singular_rank_condition_pair(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            m = rank_condition_pair(int(rng.integers(2, 6)), rng)
            out = jordan_svd(m, rng=np.random.default_rng(trial))
            assert out.residual <= 1e-7 * m.norm_inf()
            assert out.u.is_unitary(1e-8) and out.v.is_unitary(1e-8)
            # square-root lemma: no non-trivially nilpotent blocks
            for lam, size in out.blocks:
                assert lam != 0 or size == 1

    def test_halfplane_eigenvalues(self):
        rng = np.random.default_rng(5)
        m = rand_pair(rng, 4)
        out = jordan_svd(m, rng=rng)
        for lam, _ in out.blocks:
            assert lam.real > -1e-8
            assert lam.real > 1e-8 or lam.imag >= -1e-8

    def test_zero_matrix(self):
        m = DCMatrix.zeros(3)
        out = jordan_svd(m, rng=np.random.default_rng(0))
        assert out.residual == 0.0
        assert out.u.is_unitary(1e-8) and out.v.is_unitary(1e-8)
        assert max_abs(out.s.a) == 0.0
        k = pinv(m, rng=np.random.default_rng(0))
        assert k.approx_eq(DCMatrix.zeros(3), 1e-12)


class TestPinv:
    def test_invertible_scalar(self):
        k = pinv(DCMatrix([[2.0]], [[3.0]]))
        assert k.approx_eq(DCMatrix([[0.5]], [[1 / 3]]), 1e-12)

    def test_idempotent_scalar_no_pinv(self):
        with pytest.raises(NoPseudoinverse):
            pinv(DCMatrix([[1.0]], [[0.0]]))

    def test_diagonal_idempotent_self_inverse(self):
        m = DCMatrix(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        k = pinv(m, rng=np.random.default_rng(0))
        assert k.approx_eq(m, 1e-9)
        assert all(penrose_check(m, k))

    def test_invertible_pair_is_componentwise_inverse(self):
        rng = np.random.default_rng(6)
        m = rand_pair(rng, 3)
        k = pinv(m, rng=rng)
        want = DCMatrix(np.linalg.inv(m.a), np.linalg.inv(m.b))
        assert k.approx_eq(want, 1e-9)

    def test_axioms_on_singular_corpus(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            m = rank_condition_pair(int(rng.integers(1, 6)), rng)
            k = pinv(m, rng=np.random.default_rng(trial))
            assert all(penrose_check(m, k, 1e-8))


class TestPinvViaDiagrams:
    def test_invertible(self):
        rng = np.random.default_rng(8)
        m = rand_pair(rng, 3)
        k = pinv_via_diagrams(m)
        assert k.approx_eq(DCMatrix(np.linalg.inv(m.a), np.linalg.inv(m.b)), 1e-9)

    def test_diagonal_idempotent(self):
        m = DCMatrix(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        assert pinv_via_diagrams(m).approx_eq(m, 1e-12)

    def test_rejects_rank_violation(self):
        with pytest.raises(NoPseudoinverse):
            pinv_via_diagrams(counterexample_pair())

    def test_agreement_with_jsvd_route(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            m = rank_condition_pair(int(rng.integers(1, 6)), rng)
            k1 = pinv(m, rng=np.random.default_rng(trial))
            k2 = pinv_via_diagrams(m)
            assert (k1 - k2).norm_inf() <= 1e-8


class TestPenroseCheck:
    def test_identity(self):
        i2 = DCMatrix.identity(2)
        assert penrose_check(i2, i2) == (True, True, True, True)

    def test_no_scalar_candidate_works_for_idempotent(self):
        m = DCMatrix([[1.0]], [[0.0]])
        rng = np.random.default_rng(10)
        for _ in range(50):
            k = DCMatrix([[complex(*rng.standard_normal(2))]],
                         [[complex(*rng.standard_normal(2))]])
            assert not all(penrose_check(m, k))
        # the obvious candidates fail too
        for k in (m, DCMatrix([[1.0]], [[1.0]]), DCMatrix([[0.0]], [[0.0]])):
            assert not all(penrose_check(m, k))

    def test_construction_passes_on_corpus(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            m = rank_condition_pair(int(rng.integers(1, 5)), rng)
            k = pinv(m, rng=np.random.default_rng(trial))
            assert penrose_check(m, k, 1e-8) == (True, True, True, True)


class TestExistence:
    def test_counterexample_ranks(self):
        m = counterexample_pair()
        ok, ranks = pinv_exists(m)
        assert not ok
        # AB = 0 while BA is the nilpotent shift
        assert ranks == (1, 1, 0, 1)

    def test_unitary_full_rank(self):
        rng = np.random.default_rng(12)
        p = crand(rng, 3)
        ok, ranks = pinv_exists(DCMatrix(p, np.linalg.inv(p)))
        assert ok and ranks == (3, 3, 3, 3)

    def test_idempotent_scalar(self):
        ok, ranks = pinv_exists(DCMatrix([[1.0]], [[0.0]]))
        assert not ok
        assert ranks[0] == 1 and ranks[1] == 0

    def test_necessary_conditions_counterexample(self):
        assert jsvd_necessary(counterexample_pair()) == (True, True, False)

    def test_necessary_conditions_invertible(self):
        rng = np.random.default_rng(13)
        assert jsvd_necessary(rand_pair(rng, 3)) == (True, True, True)

    def test_necessary_conditions_nilpotent_pair(self):
        j = np.array([[0, 1], [0, 0]], dtype=complex)
        assert jsvd_necessary(DCMatrix(j, j)) == (True, True, True)


class TestAttempt:
    def test_nilpotent_hermitian_exists_without_pinv(self):
        j = np.array([[0, 1], [0, 0]], dtype=complex)
        jsvd, report = attempt_jordan_svd(DCMatrix(j, j))
        assert report.jsvd_status is JsvdStatus.EXISTS
        assert not report.pinv_exists
        assert jsvd.u.approx_eq(DCMatrix.identity(2), 1e-12)
        assert jsvd.v.approx_eq(DCMatrix.identity(2), 1e-12)
        assert np.allclose(jsvd.s.a, j)

    def test_counterexample_not_exists(self):
        jsvd, report = attempt_jordan_svd(counterexample_pair())
        assert jsvd is None
        assert report.jsvd_status is JsvdStatus.NOT_EXISTS
        assert report.reason == "necessary condition 3 fails"

    def test_pair_in_the_ambiguity_band_decided(self):
        # two eigenvalues of AB and BA 1.6e-5 apart, inside the clustering
        # ambiguity band; the kernel staircases decide the pair anyway: BA
        # has a J_2(0) block and so no square root
        rng = np.random.default_rng(2562788860415502239)
        m = explorer.generate_pair("counterexample", 4, rng)
        jsvd, report = attempt_jordan_svd(m)
        assert jsvd is None
        assert not report.pinv_exists
        assert report.jsvd_status is JsvdStatus.NOT_EXISTS
        assert (report.jsvd_nec1, report.jsvd_nec2, report.jsvd_nec3) == (
            True, True, False
        )
        assert report.reason == "necessary condition 3 fails"

    def test_cluster_ambiguity_reason_kept(self):
        # B has two eigenvalues 3e-6 apart, inside the ambiguity band: the
        # conditions hold, and building the factors refuses
        m = DCMatrix(np.eye(3), np.diag([1.0, 1 + 3e-6, 2.0]))
        jsvd, report = attempt_jordan_svd(m)
        assert jsvd is None
        assert report.pinv_exists
        assert report.jsvd_status is JsvdStatus.UNKNOWN
        assert report.jsvd_nec2 is True and report.jsvd_nec3 is True
        assert report.reason.startswith("ClusterAmbiguity:")

    def test_invertible_exists(self):
        rng = np.random.default_rng(14)
        jsvd, report = attempt_jordan_svd(rand_pair(rng, 3), rng=rng)
        assert report.jsvd_status is JsvdStatus.EXISTS
        assert report.pinv_exists
        assert jsvd is not None

    def test_unknown_region(self):
        # rank condition fails, all necessary conditions hold, not Hermitian:
        # A = diag(1,0), B = diag(0,1): AB = BA = 0, ranks (1,1,0,0)
        m = DCMatrix(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        jsvd, report = attempt_jordan_svd(m)
        assert jsvd is None
        assert report.jsvd_status is JsvdStatus.UNKNOWN
        assert report.jsvd_nec1 and report.jsvd_nec2 and report.jsvd_nec3


class TestVerdictsFromKernels:
    """AB ~ BA and the square-root conditions need no eigenvalues."""

    @staticmethod
    def nilpotent_pair(seed):
        # [N, cN] with N nilpotent: AB = BA = c N^2 = (sqrt(c) N)^2
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        sizes = []
        while sum(sizes) < n:
            sizes.append(int(rng.integers(1, n - sum(sizes) + 1)))
        r = crand(rng, n)
        nil = r @ jordan_matrix(tuple((0j, size) for size in sizes)) @ np.linalg.inv(r)
        c = complex(rng.standard_normal(), rng.standard_normal())
        return DCMatrix(nil, c * nil)

    def test_nilpotent_pairs_decided(self):
        # a nilpotent spectrum spreads as eps^(1/k), so eigenvalue
        # clustering refused some of these pairs and split others
        for seed in range(200):
            m = self.nilpotent_pair(seed)
            assert jsvd_necessary(m) == (True, True, True), seed
            assert _PairAnalysis(m, 1e-9).ab_similar_ba(), seed


def _shift(k):
    return jordan_matrix(((0j, k),))


# Canonical pieces [A_i, B_i] under (A, B) -> (S A T^-1, T B S^-1): the
# nonsingular part (I, J_k(lam)), nilpotent blocks on either side, and
# the strings whose AB and BA differ (the counterexample and its swap).
CANONICAL_PIECES = (
    (np.eye(1), np.eye(1)),
    (np.eye(1), -2 * np.eye(1)),
    (np.eye(2), jordan_matrix(((1j, 2),))),
    (np.zeros((1, 1)), np.zeros((1, 1))),
    (_shift(2), np.eye(2)),
    (_shift(3), np.eye(3)),
    (np.eye(2), _shift(2)),
    (np.eye(3), _shift(3)),
    (np.diag([0.0, 1.0]), _shift(2)),
    (_shift(2), np.diag([0.0, 1.0])),
    (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
)


def _gauge_factor(rng, n):
    """Random complex matrix with condition number below 30."""
    q1, _ = np.linalg.qr(crand(rng, n))
    q2, _ = np.linalg.qr(crand(rng, n))
    x = q1 @ np.diag(10.0 ** rng.uniform(0, 1.4, n)) @ q2
    assert np.linalg.cond(x) < 30
    return x


@st.composite
def prescribed_pairs(draw):
    """A direct sum of canonical pieces, a gauge seed and a scale s."""
    indices = draw(st.lists(st.integers(0, len(CANONICAL_PIECES) - 1),
                            min_size=1, max_size=4))
    pieces = [CANONICAL_PIECES[i] for i in indices]
    while sum(a.shape[0] for a, _ in pieces) > 6:
        pieces.pop()
    m = reduce(direct_sum, (DCMatrix(a, b) for a, b in pieces))
    # a product that is zero only through cancellation has no rank at
    # relative tolerance: its rounding error is all of its norm
    assume(np.any(m.a @ m.b) and np.any(m.b @ m.a))
    return m, draw(st.integers(0, 2**32 - 1)), 10.0 ** draw(st.floats(-100, 100))


def _verdicts(m):
    return rank_quadruple(m), _PairAnalysis(m, 1e-9).ab_similar_ba(), jsvd_necessary(m)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(prescribed_pairs())
def test_verdicts_invariant_under_scaling_and_gauge(case):
    m, seed, s = case
    rng = np.random.default_rng(seed)
    x, y = _gauge_factor(rng, m.n), _gauge_factor(rng, m.n)
    gauged = DCMatrix(x @ m.a @ np.linalg.inv(y), y @ m.b @ np.linalg.inv(x))
    want = _verdicts(m)
    for k in (gauged, DCMatrix(s * m.a, s * m.b), DCMatrix(s * gauged.a, s * gauged.b)):
        assert _verdicts(k) == want


@pytest.mark.xfail(
    strict=True,
    reason="AB is zero only through cancellation after the gauge; ranked "
    "relative to its own norm, its rounding error reads as rank 2",
)
def test_gauged_zero_product_keeps_its_rank():
    # the pair the invariance property excludes by assume
    m = DCMatrix(np.diag([0.0, 1.0]), _shift(2))
    rng = np.random.default_rng(0)
    x, y = _gauge_factor(rng, 2), _gauge_factor(rng, 2)
    gauged = DCMatrix(x @ m.a @ np.linalg.inv(y), y @ m.b @ np.linalg.inv(x))
    assert _verdicts(m) == ((1, 1, 0, 1), False, (True, True, False))
    assert _verdicts(gauged) == _verdicts(m)


class TestPolar:
    def test_unitary_input(self):
        rng = np.random.default_rng(15)
        p = crand(rng, 3)
        m = DCMatrix(p, np.linalg.inv(p))
        pd = polar(m, rng=rng)
        assert pd.unitary_factor.approx_eq(m, 1e-7)
        assert pd.hermitian_factor.approx_eq(DCMatrix.identity(3), 1e-7)

    def test_hermitian_input_reconstructs(self):
        rng = np.random.default_rng(16)
        a = crand(rng, 3)
        m = DCMatrix(a, a)
        pd = polar(m, rng=rng)
        assert (pd.reconstruct() - m).norm_inf() <= 1e-7 * m.norm_inf()
        assert pd.unitary_factor.is_unitary(1e-8)
        assert pd.hermitian_factor.is_hermitian(1e-8)

    def test_complex_embedded_structure(self):
        rng = np.random.default_rng(17)
        a = crand(rng, 3)
        m = embed_complex(a)
        pd = polar(m, rng=rng)
        # unitary factor of the form [U, U^T], hermitian of the form [P, P]
        uf, hf = pd.unitary_factor, pd.hermitian_factor
        assert np.abs(uf.b - uf.a.T).max() <= 1e-7 * max(1, uf.norm_inf())
        assert np.abs(hf.a - hf.b).max() <= 1e-7 * max(1, hf.norm_inf())
        assert np.abs(hf.a - hf.a.T).max() <= 1e-7 * max(1, hf.norm_inf())

    def test_fails_exactly_when_jsvd_fails(self):
        with pytest.raises(PreconditionFailed):
            polar(counterexample_pair())


class TestPolarToJsvd:
    def test_unitary_polar_gives_identity_s(self):
        rng = np.random.default_rng(18)
        p = crand(rng, 2)
        m = DCMatrix(p, np.linalg.inv(p))
        pd = PolarDecomposition(m, DCMatrix.identity(2))
        out = polar_to_jsvd(pd)
        assert out.s.approx_eq(DCMatrix.identity(2), 1e-9)

    def test_diagonal_hermitian_factor(self):
        pd = PolarDecomposition(
            DCMatrix.identity(2), DCMatrix(np.diag([2.0, 3.0]), np.diag([2.0, 3.0]))
        )
        out = polar_to_jsvd(pd)
        assert np.allclose(out.s.a, np.diag([2.0, 3.0]))

    def test_halfplane_normalization_of_negative_eigenvalue(self):
        pd = PolarDecomposition(
            DCMatrix.identity(1), DCMatrix([[-2.0]], [[-2.0]])
        )
        out = polar_to_jsvd(pd)
        assert np.allclose(out.s.a, [[2.0]])
        assert (out.reconstruct() - pd.reconstruct()).norm_inf() <= 1e-12

    def test_roundtrip_reconstructs(self):
        rng = np.random.default_rng(19)
        for trial in range(20):
            m = rand_pair(rng, int(rng.integers(1, 5)))
            pd = polar(m, rng=np.random.default_rng(trial))
            out = polar_to_jsvd(pd)
            assert (out.reconstruct() - m).norm_inf() <= 1e-7 * m.norm_inf()

    def test_rejects_non_hermitian_factor(self):
        pd = PolarDecomposition(
            DCMatrix.identity(2), DCMatrix(np.eye(2), 2 * np.eye(2))
        )
        with pytest.raises(PreconditionFailed):
            polar_to_jsvd(pd)


class TestHermitianRoute:
    def test_matches_direct_jordan_structure(self):
        rng = np.random.default_rng(20)
        j = jordan_matrix(((2 + 0j, 2), (0j, 1)))
        p = crand(rng, 3)
        a = p @ j @ np.linalg.inv(p)
        m = DCMatrix(a, a)
        out = hermitian_jsvd(m)
        assert blocks_close(out.blocks, ((0j, 1), (2 + 0j, 2)))
        assert (out.reconstruct() - m).norm_inf() <= 1e-7 * m.norm_inf()

    def test_converts_to_polar(self):
        rng = np.random.default_rng(21)
        m = rand_pair(rng, 3)
        out = jordan_svd(m, rng=rng)
        pd = jsvd_to_polar(out)
        assert pd.unitary_factor.is_unitary(1e-8)
        assert pd.hermitian_factor.is_hermitian(1e-10)
        assert (pd.reconstruct() - m).norm_inf() <= 1e-7 * m.norm_inf()


class TestBlockPinv:
    """The block lemma (L (+) M)+ = L+ (+) M+."""

    def test_scalar_blocks(self):
        l, m = DCMatrix([[2.0]], [[2.0]]), DCMatrix([[3.0]], [[3.0]])
        out = direct_sum(pinv(l), pinv(m))
        assert np.allclose(out.a, np.diag([0.5, 1 / 3]))
        assert np.allclose(out.b, np.diag([0.5, 1 / 3]))

    def test_block_without_pinv_poisons_sum(self):
        good = DCMatrix([[2.0]], [[2.0]])
        bad = DCMatrix([[1.0]], [[0.0]])
        with pytest.raises(NoPseudoinverse):
            direct_sum(pinv(good), pinv(bad))
        ok, _ = pinv_exists(direct_sum(good, bad))
        assert not ok

    def test_matches_pinv_of_direct_sum(self):
        rng = np.random.default_rng(22)
        for trial in range(20):
            l = rank_condition_pair(int(rng.integers(1, 4)), rng)
            m = rank_condition_pair(int(rng.integers(1, 4)), rng)
            lhs = pinv(direct_sum(l, m), rng=np.random.default_rng(trial))
            rng_t = np.random.default_rng(trial)
            rhs = direct_sum(pinv(l, rng=rng_t), pinv(m, rng=rng_t))
            assert (lhs - rhs).norm_inf() <= 1e-9 * max(1, lhs.norm_inf())

    def test_jordan_block_sums_exist_iff_blocks_invertible_or_zero(self):
        # S = (+)[J_i, J_i] has a pseudoinverse iff every J_i is
        # invertible or the 1x1 zero block
        j_inv = jordan_matrix(((2 + 0j, 2),))
        j_zero = np.zeros((1, 1), complex)
        j_nil = jordan_matrix(((0j, 2),))
        good = direct_sum(DCMatrix(j_inv, j_inv), DCMatrix(j_zero, j_zero))
        ok, _ = pinv_exists(good)
        assert ok
        k = pinv(good, rng=np.random.default_rng(0))
        # blockwise: the invertible block inverts, the zero block stays zero
        want_a = np.zeros((3, 3), complex)
        want_a[:2, :2] = np.linalg.inv(j_inv)
        assert k.approx_eq(DCMatrix(want_a, want_a), 1e-9)
        bad = direct_sum(DCMatrix(j_inv, j_inv), DCMatrix(j_nil, j_nil))
        ok, _ = pinv_exists(bad)
        assert not ok


class TestNonFiniteInput:
    ENTRY_POINTS = {
        "attempt_jordan_svd": attempt_jordan_svd,
        "jordan_svd": jordan_svd,
        "pinv": pinv,
        "pinv_via_diagrams": pinv_via_diagrams,
        "polar": polar,
        "naive_dc_svd": naive_dc_svd,
        "jordan_decomposition": lambda m: jordan_decomposition(m.b),
        "similar": lambda m: similar(m.a, m.b),
    }

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_raises_inside_the_hierarchy(self, entry, bad):
        b = np.eye(3, dtype=complex)
        b[2, 0] = bad
        with pytest.raises(NonFiniteInput):
            self.ENTRY_POINTS[entry](DCMatrix(np.eye(3), b))

    PAIR_ENTRY_POINTS = {
        "attempt_jordan_svd": attempt_jordan_svd,
        "jordan_svd": jordan_svd,
        "pinv": pinv,
        "pinv_via_diagrams": pinv_via_diagrams,
        "polar": polar,
        "naive_dc_svd": naive_dc_svd,
        "pinv_exists": pinv_exists,
        "rank_quadruple": rank_quadruple,
        "jsvd_necessary": jsvd_necessary,
        "uniqueness_scan": uniqueness_scan,
    }

    @pytest.mark.parametrize("entry", list(PAIR_ENTRY_POINTS))
    def test_overflowing_product_raises(self, entry):
        # finite entries whose products overflow: AB = BA = [[inf]]; the
        # pseudoinverse [[1e-200]] exists, so "no pseudoinverse" is wrong
        with pytest.raises(NonFiniteInput):
            self.PAIR_ENTRY_POINTS[entry](DCMatrix([[1e200]], [[1e200]]))

    def test_overflow_in_ba_alone_raises(self):
        a = np.array([[1e200, 0], [0, 0]], dtype=complex)
        b = np.array([[0, 0], [1e200, 0]], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(a @ b).all() and not np.isfinite(b @ a).all()
        with pytest.raises(NonFiniteInput):
            pinv_exists(DCMatrix(a, b))


@pytest.mark.filterwarnings("error")
class TestOverflowingJordanChains:
    """At scale 1e150 long Jordan chains overflow: the library refuses, quietly."""

    @staticmethod
    def pair():
        j = jordan_matrix(((2 + 0j, 3), (2 + 0j, 2), (2 + 0j, 1), (5j, 2)))
        p = crand(np.random.default_rng(0), 8)
        return DCMatrix(np.eye(8), 1e150 * (p @ j @ np.linalg.inv(p)))

    @pytest.mark.parametrize("entry", ["jordan_decomposition", "jordan_svd", "pinv"])
    def test_raises_inside_the_hierarchy(self, entry):
        call = TestNonFiniteInput.ENTRY_POINTS[entry]
        with pytest.raises(TessarineError):
            call(self.pair())

    def test_attempt_reports_unknown(self):
        jsvd, report = attempt_jordan_svd(self.pair())
        assert jsvd is None
        assert report.jsvd_status is JsvdStatus.UNKNOWN
        assert report.reason.startswith("ClusterAmbiguity: ")

    def test_four_long_chain(self):
        j = jordan_matrix(((1 + 0j, 4), (3 + 0j, 1)))
        p = crand(np.random.default_rng(0), 5)
        with pytest.raises(ClusterAmbiguity):
            jordan_decomposition(1e150 * (p @ j @ np.linalg.inv(p)), cluster_gap=1e-4)


class TestPairAnalysedOnce:
    """Each pair's Jordan forms and ranks are computed once per call."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"jordan_decomposition": 0, "rank": 0}
        for name in counts:
            original = getattr(complex_linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("tessarine") and getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
        return counts

    def test_dense_trial(self, counts):
        # the verdicts come from kernel staircases; only BA's form is built
        record = explorer.run_trial(7, "dense", 4)
        assert record.jsvd_status == "exists"
        assert counts == {"jordan_decomposition": 1, "rank": 4}

    def test_pinv(self, counts):
        m = rank_condition_pair(4, np.random.default_rng(3), r=2)
        counts.update(jordan_decomposition=0, rank=0)
        pinv(m)
        assert counts == {"jordan_decomposition": 1, "rank": 4}

    def test_scalar_pair_decomposed_once(self, counts):
        # scalars commute, so BA is AB bit for bit and shares its form
        record = explorer.run_trial(7, "dense", 1)
        assert record.jsvd_status == "exists"
        assert counts == {"jordan_decomposition": 1, "rank": 4}

    def test_commuting_pair_decomposed_once(self, counts):
        a = crand(np.random.default_rng(8), 4)
        jsvd, report = attempt_jordan_svd(DCMatrix(a, a))
        assert report.jsvd_status is JsvdStatus.EXISTS
        assert counts == {"jordan_decomposition": 1, "rank": 4}
