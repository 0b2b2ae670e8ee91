"""The core factorizations: naive SVD, Jordan SVD, pseudoinverses, polar."""

import itertools
import sys
import threading
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tessarine import complex_linalg, decompositions, explorer
from tessarine.dcmatrix import DCMatrix, _gram_drift, direct_sum, embed_complex, max_abs
from tessarine.dcnum import DEFAULT_TOL
from tessarine.complex_linalg import (
    jordan_decomposition,
    jordan_matrix,
    similar,
    _same_structure,
)
from tessarine.decompositions import (
    DEFAULT_RECON_TOL,
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
    VerificationFailed,
)
from tessarine.explorer import rank_condition_pair, uniqueness_scan


def crand(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rand_pair(rng, n):
    return DCMatrix(crand(rng, n), crand(rng, n))


def counterexample_pair():
    """A = diag(0,1), B = the nilpotent shift: conditions (T, T, F)."""
    return DCMatrix(np.diag([0.0, 1.0]), np.array([[0, 1], [0, 0]]))


def ab_not_similar_ba_pair():
    """AB is a nonzero nilpotent, BA = 0: conditions (T, T, T), AB !~ BA."""
    return DCMatrix(
        np.array([[0, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=complex),
        np.array([[1, 0, 0], [0, 0, 0], [1, 0, 0]], dtype=complex),
    )


def word_counterexample_pair():
    """AB ~ BA and conditions (T, T, T), but rank ABA = 1 and rank BAB = 0."""
    return DCMatrix(
        np.array([[1, 0, 1], [1, 0, 0], [0, 0, 0]], dtype=complex),
        np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    )


def permutation_pair():
    """Equal word ranks, so a Jordan SVD exists (J = J_3(0)); outside the
    rank condition and not Hermitian, so none is built."""
    return DCMatrix(
        np.array([[0, 0, 0], [0, 1, 0], [1, 0, 0]], dtype=complex),
        np.array([[1, 0, 0], [0, 0, 0], [0, 1, 0]], dtype=complex),
    )


def count_calls(monkeypatch, name, tally, key):
    """Count every call of ``complex_linalg``'s ``name`` in ``tally[key]``,
    through each tessarine module that binds it."""
    original = getattr(complex_linalg, name)

    def counted(*args, **kwargs):
        tally[key] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("tessarine") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)


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

    @pytest.mark.parametrize("k", [0, 700, -700, 1000, -1000])
    def test_defective_product_raises(self, k):
        # J's blocks are read before the gates, which refuse the rescaled
        # factors at 2^+-700 and beyond: the refusal is the same at every scale
        with pytest.raises(NotDiagonalizable):
            naive_dc_svd(DCMatrix(2.0**k * np.array([[1, 1], [0, 1]]), 2.0**k * np.eye(2)))

    def test_singular_a_raises(self):
        with pytest.raises(SingularComponent):
            naive_dc_svd(DCMatrix(np.diag([0.0, 1.0]), np.eye(2)))

    def test_small_invertible_pair_builds(self):
        # one zero rule: the kernel ladder finds diag(1, 1e-5) invertible, and
        # so does the naive SVD; S comes in canonical order
        m = DCMatrix(np.diag([1, 1e-5]), np.diag([1, 1e-5]))
        u, s, v = naive_dc_svd(m)
        assert s.approx_eq(DCMatrix(np.diag([1e-5, 1]), np.diag([1e-5, 1])), 1e-15)
        assert (u @ s @ v.star() - m).norm_inf() <= DEFAULT_RECON_TOL * m.norm_inf()

    def test_declared_cluster_gap(self):
        # BA = diag(1, 1 + 3e-6, 2): its roots are 1.5e-6 apart, inside the
        # default gap's ambiguity band, as for the Jordan SVD
        m = DCMatrix(np.eye(3), np.diag([1, 1 + 3e-6, 2]))
        for factor in (naive_dc_svd, jordan_svd):
            with pytest.raises(ClusterAmbiguity):
                factor(m)
        u, s, v = naive_dc_svd(m, cluster_gap=1e-9)
        assert np.allclose(np.diag(s.a), np.sqrt([1, 1 + 3e-6, 2]), rtol=1e-12)
        assert (u @ s @ v.star() - m).norm_inf() <= DEFAULT_RECON_TOL * m.norm_inf()

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
        out = jordan_svd(m)
        assert blocks_close(out.blocks, ((1 + 0j, 2), (3 + 0j, 1)))
        # U = V = [P', P'^-1] for the Hermitian invertible case
        assert (out.u - out.v).norm_inf() <= 1e-7
        assert (out.reconstruct() - m).norm_inf() <= 1e-7 * m.norm_inf()

    def test_invertible_random(self):
        rng = np.random.default_rng(3)
        for n in range(1, 6):
            m = rand_pair(rng, n)
            out = jordan_svd(m)
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
            out = jordan_svd(m)
            assert out.residual <= 1e-7 * m.norm_inf()
            assert out.u.is_unitary(1e-8) and out.v.is_unitary(1e-8)
            # square-root lemma: no non-trivially nilpotent blocks
            for lam, size in out.blocks:
                assert lam != 0 or size == 1

    def test_halfplane_eigenvalues(self):
        rng = np.random.default_rng(5)
        m = rand_pair(rng, 4)
        out = jordan_svd(m)
        for lam, _ in out.blocks:
            assert lam.real > -1e-8
            assert lam.real > 1e-8 or lam.imag >= -1e-8

    def test_zero_matrix(self):
        m = DCMatrix.zeros(3)
        out = jordan_svd(m)
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

    def test_non_similarity_proves_nonexistence(self):
        # ranks (1, 1, 1, 0): the rank condition fails and conditions 1-3
        # hold, but AB ~ BA, which a Jordan SVD implies, does not
        jsvd, report = attempt_jordan_svd(ab_not_similar_ba_pair())
        assert jsvd is None
        assert (report.rank_a, report.rank_b, report.rank_ab, report.rank_ba) == (
            1, 1, 1, 0
        )
        assert report.jsvd_nec1 and report.jsvd_nec2 and report.jsvd_nec3
        assert report.jsvd_status is JsvdStatus.NOT_EXISTS
        assert report.reason == "AB is not similar to BA"

    def test_unequal_word_ranks_prove_nonexistence(self):
        # AB ~ BA and conditions 1-3 hold; the words of length 3 differ
        jsvd, report = attempt_jordan_svd(word_counterexample_pair())
        assert jsvd is None
        assert _PairAnalysis(word_counterexample_pair(), 1e-9).ab_similar_ba()
        assert report.jsvd_nec1 and report.jsvd_nec2 and report.jsvd_nec3
        assert report.jsvd_status is JsvdStatus.NOT_EXISTS
        assert report.reason == "rank ABA = 1 but rank BAB = 0"

    def test_equal_word_ranks_stay_unknown(self):
        jsvd, report = attempt_jordan_svd(permutation_pair())
        assert jsvd is None
        assert report.jsvd_status is JsvdStatus.UNKNOWN

    def test_invertible_exists(self):
        rng = np.random.default_rng(14)
        jsvd, report = attempt_jordan_svd(rand_pair(rng, 3))
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


def _exact_rank(m):
    """Rank of an integer matrix by exact elimination in Python integers:
    row i becomes p * row i - c * pivot row, which keeps the rank over Q."""
    rows = [[int(x) for x in row] for row in m if row.any()]
    rank = 0
    for col in range(len(m)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            c = rows[i][col]
            rows[i] = [p * x - c * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_word_ranks_match_exact_ranks():
    # 0/1 pairs: the words are integer matrices, ranked exactly; all 256
    # pairs at n = 2, then random ones at n = 2..4
    rng = np.random.default_rng(11)
    bits = [np.array(x).reshape(2, 2) for x in itertools.product((0, 1), repeat=4)]
    pairs = [(a, b) for a in bits for b in bits]
    for _ in range(2000):
        n = int(rng.integers(2, 5))
        pairs.append(tuple((rng.random((n, n)) < 0.35).astype(int) for _ in range(2)))
    for trial, (a, b) in enumerate(pairs):
        n, m = len(a), DCMatrix(a, b)
        want = tuple(map(_exact_rank, (a, b, a @ b, b @ a)))
        assert rank_quadruple(m, 1e-9) == want, trial
        words = _PairAnalysis(m, 1e-9).words
        for side, (first, second) in enumerate(((b, a), (a, b))):
            word, want = first, []
            for k in range(2 * n + 1):  # no rank changes past length 2n
                want.append(_exact_rank(word) if not want or want[-1] else 0)
                word = (second, first)[k % 2] @ word
            got = words[side] + words[side][-1:] * (2 * n + 1 - len(words[side]))
            assert got == want, (trial, side)


def _shift(k):
    return jordan_matrix(((0j, k),))


# Canonical pieces [A_i, B_i] under (A, B) -> (S A T^-1, T B S^-1): the
# nonsingular part (I, J_k(lam)), nilpotent blocks on either side, the
# strings whose AB and BA differ (the counterexample and its swap), and
# two 3x3 pairs whose words of length 3 differ in rank or agree.
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
    (word_counterexample_pair().a, word_counterexample_pair().b),
    (permutation_pair().a, permutation_pair().b),
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
    return m, draw(st.integers(0, 2**32 - 1)), 10.0 ** draw(st.floats(-100, 100))


def _verdicts(m):
    return rank_quadruple(m), _PairAnalysis(m, 1e-9).ab_similar_ba(), jsvd_necessary(m)


def _verdicts_and_words(m):
    return (*_verdicts(m), _PairAnalysis(m, 1e-9).words)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(prescribed_pairs())
def test_verdicts_invariant_under_scaling_and_gauge(case):
    m, seed, s = case
    rng = np.random.default_rng(seed)
    x, y = _gauge_factor(rng, m.n), _gauge_factor(rng, m.n)
    gauged = DCMatrix(x @ m.a @ np.linalg.inv(y), y @ m.b @ np.linalg.inv(x))
    want = _verdicts_and_words(m)
    for k in (gauged, DCMatrix(s * m.a, s * m.b), DCMatrix(s * gauged.a, s * gauged.b)):
        assert _verdicts_and_words(k) == want


def test_gauged_zero_product_keeps_its_rank():
    # AB is zero only through cancellation after the gauge: ranked against
    # sigma1(A) * sigma1(B), its rounding error reads as rank 0
    m = DCMatrix(np.diag([0.0, 1.0]), _shift(2))
    rng = np.random.default_rng(0)
    x, y = _gauge_factor(rng, 2), _gauge_factor(rng, 2)
    gauged = DCMatrix(x @ m.a @ np.linalg.inv(y), y @ m.b @ np.linalg.inv(x))
    assert _verdicts(m) == ((1, 1, 0, 1), False, (True, True, False))
    assert _verdicts(gauged) == _verdicts(m)


@pytest.mark.parametrize("s", [1.0, 1e150, 1e-150])
def test_product_ranks_meet_sylvester_bound(s):
    # AB = BA = diag(1e-5, 1e-5, 1e-10) lies below tol * sigma1(A) *
    # sigma1(B) in one direction, but rank AB >= rank A + rank B - n = 3
    m = _scaled(DCMatrix(np.diag([1, 1e-5, 1e-5]), np.diag([1e-5, 1, 1e-5])), s)
    assert rank_quadruple(m) == (3, 3, 3, 3)
    assert all(penrose_check(m, pinv(m)))
    assert all(penrose_check(m, pinv_via_diagrams(m)))
    assert attempt_jordan_svd(m)[1].jsvd_status is JsvdStatus.EXISTS
    # B singular: AB = diag(0, 1e-5, 1e-10) keeps rank 3 + 2 - 3 = 2
    m = _scaled(DCMatrix(np.diag([1, 1e-5, 1e-5]), np.diag([0, 1, 1e-5])), s)
    assert rank_quadruple(m) == (3, 2, 2, 2)


def test_gauged_rank_deficient_pairs_build():
    # under (sA, B/s) the columns of U at J's zero blocks, ker B, meet the
    # columns A P J+ at their scale, so U passes its unitarity gate
    rng = np.random.default_rng(8)
    deficient = 0
    for _ in range(300):
        n = int(rng.integers(2, 7))
        m = rank_condition_pair(n, rng)
        s = 10 ** rng.uniform(-12, 12)
        gauged = DCMatrix(s * m.a, m.b / s)
        if rank_quadruple(gauged)[0] < n:
            deficient += 1
            assert all(penrose_check(gauged, pinv(gauged)))
    assert deficient == 207


def test_empty_pair_has_rank_zero():
    assert rank_quadruple(DCMatrix(np.zeros((0, 0)), np.zeros((0, 0)))) == (0, 0, 0, 0)


def test_product_ranks_never_below_sylvester_bound():
    # singular values spread over 1e-7..1, some exactly zero, each factor
    # diagonal or rotated by random unitaries
    rng = np.random.default_rng(5)

    def factor(n):
        d = 10.0 ** rng.uniform(-7, 0, n) * (rng.random(n) > 0.2)
        if rng.random() < 0.5:
            return np.diag(d)
        q1, q2 = (np.linalg.qr(crand(rng, n))[0] for _ in range(2))
        return q1 @ np.diag(d) @ q2

    for _ in range(200):
        n = int(rng.integers(2, 6))
        ra, rb, rab, rba = rank_quadruple(DCMatrix(factor(n), factor(n)))
        assert min(rab, rba) >= ra + rb - n


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_rejects_non_finite_factor(self, entry):
        for pd in (
            PolarDecomposition(DCMatrix.identity(1), DCMatrix([[entry]], [[entry]])),
            PolarDecomposition(DCMatrix([[entry]], [[1.0]]), DCMatrix.identity(1)),
        ):
            with pytest.raises(NonFiniteInput):
                polar_to_jsvd(pd)

    def test_rejects_non_hermitian_factor(self):
        pd = PolarDecomposition(
            DCMatrix.identity(2), DCMatrix(np.eye(2), 2 * np.eye(2))
        )
        with pytest.raises(PreconditionFailed):
            polar_to_jsvd(pd)

    def test_refuses_a_non_unitary_factor(self):
        # [G, G] with G real Gaussian is not unitary, and U [J, J] V* still
        # reconstructs [G H, G H]: only the unitarity gate refuses it
        rng = np.random.default_rng(1)
        g = rng.standard_normal((3, 3))
        h = rng.standard_normal(3)
        pd = PolarDecomposition(DCMatrix(g, g), DCMatrix(np.outer(h, h), np.outer(h, h)))
        with pytest.raises(VerificationFailed, match="U is not unitary"):
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

    @pytest.mark.filterwarnings("error")
    def test_near_the_largest_double(self):
        # H = (A + B) / 2 would overflow here and refuse finite entries
        m = DCMatrix(1e308 * np.eye(3), 1e308 * np.eye(3))
        out = hermitian_jsvd(m)
        assert out.blocks == ((1e308 + 0j, 1),) * 3 and out.residual == 0
        n = np.array([[0, 1], [0, 0]])
        _, report = attempt_jordan_svd(DCMatrix(1e308 * n, 1e308 * n))
        assert report.reason == "VerificationFailed: rescaling by 2^+-1023 leaves the range"

    def test_converts_to_polar(self):
        rng = np.random.default_rng(21)
        m = rand_pair(rng, 3)
        out = jordan_svd(m)
        pd = jsvd_to_polar(out)
        assert pd.unitary_factor.is_unitary(1e-8)
        assert pd.hermitian_factor.is_hermitian(1e-10)
        assert (pd.reconstruct() - m).norm_inf() <= 1e-7 * m.norm_inf()


class TestHermitianGateOnce:
    """The Hermitian route checks the form [H, H] once; the rank route never."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = decompositions._is_hermitian

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(decompositions, "_is_hermitian", counted)
        return calls

    def test_hermitian_route(self, calls):
        j = np.array([[0, 1], [0, 0]], dtype=complex)
        _, report = attempt_jordan_svd(DCMatrix(j, j))
        assert report.jsvd_status is JsvdStatus.EXISTS
        assert len(calls) == 1

    def test_rank_condition(self, calls):
        m = rank_condition_pair(4, np.random.default_rng(3), r=2)
        _, report = attempt_jordan_svd(m)
        assert report.jsvd_status is JsvdStatus.EXISTS
        assert calls == []

    def test_not_hermitian_keeps_its_reason(self, calls):
        m = DCMatrix(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        _, report = attempt_jordan_svd(m)
        assert report.reason == "rank condition fails; existence undetermined"
        assert len(calls) == 1
        with pytest.raises(PreconditionFailed, match=r"not of the form \[H, H\]"):
            hermitian_jsvd(m)


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
        "rank": lambda m: complex_linalg.rank(m.b),
        "sqrt_via_jordan": lambda m: complex_linalg.sqrt_via_jordan(m.b),
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

    # what each pair entry point returns for [[1e200]], [[1e200]]
    AT_1E200 = {
        "attempt_jordan_svd": lambda r: r[0].blocks == ((1e200 + 0j, 1),)
        and r[1].jsvd_status is JsvdStatus.EXISTS,
        "jordan_svd": lambda r: r.blocks == ((1e200 + 0j, 1),) and r.residual == 0,
        "pinv": lambda k: k.approx_eq(DCMatrix([[1e-200]], [[1e-200]]), 0),
        "pinv_via_diagrams": lambda k: k.approx_eq(DCMatrix([[1e-200]], [[1e-200]]), 0),
        "polar": lambda pd: pd.unitary_factor.approx_eq(DCMatrix.identity(1), 0)
        and pd.hermitian_factor.approx_eq(DCMatrix([[1e200]], [[1e200]]), 0),
        "naive_dc_svd": lambda usv: usv[1].approx_eq(DCMatrix([[1e200]], [[1e200]]), 0),
        "pinv_exists": lambda r: r == (True, (1, 1, 1, 1)),
        "rank_quadruple": lambda r: r == (1, 1, 1, 1),
        "jsvd_necessary": lambda r: r == (True, True, True),
        "uniqueness_scan": lambda r: r.verdict == "stable_j"
        and r.reference_blocks == [[1e200, 0.0, 1]],
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", list(PAIR_ENTRY_POINTS))
    def test_overflowing_product_raises(self, entry):
        # finite entries whose products overflow, AB = BA = [[1e400]]: once
        # NonFiniteInput, now answered on the normalized pair [[1]], [[1]]
        # and rescaled exactly: the pseudoinverse [[1e-200]], J = [[1e200]]
        got = self.PAIR_ENTRY_POINTS[entry](DCMatrix([[1e200]], [[1e200]]))
        assert self.AT_1E200[entry](got)

    @pytest.mark.filterwarnings("error")
    def test_overflow_in_ba_alone_raises(self):
        # BA overflows and AB does not: once NonFiniteInput, now the verdicts
        # of the pair at scale 1
        a = np.array([[1e200, 0], [0, 0]], dtype=complex)
        b = np.array([[0, 0], [1e200, 0]], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(a @ b).all() and not np.isfinite(b @ a).all()
        assert pinv_exists(DCMatrix(a, b)) == (False, (1, 1, 0, 1))
        want = attempt_jordan_svd(DCMatrix(a / 1e200, b / 1e200))[1]
        assert attempt_jordan_svd(DCMatrix(a, b))[1] == want


@pytest.mark.filterwarnings("error")
class TestOverflowingJordanChains:
    """At scale 1e150 the Jordan chains resolve, but the Jordan basis of the
    root is too ill-conditioned for a unitary U: the library refuses,
    quietly.  A chain of length 6 leaves the double range."""

    @staticmethod
    def pair():
        j = jordan_matrix(((2 + 0j, 3), (2 + 0j, 2), (2 + 0j, 1), (5j, 2)))
        p = crand(np.random.default_rng(0), 8)
        return DCMatrix(np.eye(8), 1e150 * (p @ j @ np.linalg.inv(p)))

    @pytest.mark.parametrize("entry", ["jordan_svd", "pinv"])
    def test_raises_inside_the_hierarchy(self, entry):
        call = TestNonFiniteInput.ENTRY_POINTS[entry]
        with pytest.raises(TessarineError):
            call(self.pair())

    def test_jordan_decomposition_resolves(self):
        b = self.pair().b
        jf = jordan_decomposition(b)
        assert sorted(size for _, size in jf.blocks) == [1, 2, 2, 3]
        residual = max_abs(jf.p @ jf.j @ np.linalg.inv(jf.p) - b)
        assert residual <= complex_linalg.JORDAN_RECON_TOL * max_abs(b)

    def test_attempt_reports_unknown(self):
        jsvd, report = attempt_jordan_svd(self.pair())
        assert jsvd is None
        assert report.jsvd_status is JsvdStatus.UNKNOWN
        assert report.reason.startswith("VerificationFailed: ")
        # the Hermitian route: A = J_2(0) + J_1(1) needs a Jordan basis
        # that spans the scale, and the rank route's gate refuses its U
        a = np.array([[1, 0, 1], [0, 0, 0], [0, 1, 0]], dtype=float)
        assert attempt_jordan_svd(DCMatrix(a, a))[1].jsvd_status is JsvdStatus.EXISTS
        for scale in (1e150, 1e-150, 2.0**1000, 2.0**-1000):
            jsvd, report = attempt_jordan_svd(DCMatrix(scale * a, scale * a))
            assert jsvd is None
            assert report.jsvd_status is JsvdStatus.UNKNOWN
            assert report.reason.startswith("VerificationFailed: U is not unitary")

    def test_four_long_chain(self):
        # once refused; now the form of a / 2^e, max modulus in [1, 2),
        # rescaled exactly: column i of the chain by 2^(e (2 - i))
        j = jordan_matrix(((1 + 0j, 4), (3 + 0j, 1)))
        p = crand(np.random.default_rng(0), 5)
        a = 1e150 * (p @ j @ np.linalg.inv(p))
        jf = jordan_decomposition(a, cluster_gap=1e-4)
        assert [size for _, size in jf.blocks] == [4, 1]
        assert [lam / 1e150 for lam, _ in jf.blocks] == pytest.approx([1, 3], rel=1e-8)
        e = int(np.frexp(max_abs(a))[1]) - 1
        unit = jordan_decomposition(a / 2.0**e, cluster_gap=1e-4)
        assert jf.blocks == tuple((lam * 2.0**e, size) for lam, size in unit.blocks)
        assert np.array_equal(jf.p, unit.p * 2.0 ** (e * np.array([2, 1, 0, -1, 0])))
        # a chain of length 6 would need a column of 2^(3 e)
        j = jordan_matrix(((1 + 0j, 6), (3 + 0j, 1)))
        p = crand(np.random.default_rng(0), 7)
        jordan_decomposition(p @ j @ np.linalg.inv(p), cluster_gap=1e-2)
        with pytest.raises(VerificationFailed, match="leaves the range"):
            jordan_decomposition(1e150 * (p @ j @ np.linalg.inv(p)), cluster_gap=1e-2)

    def test_overflowing_reconstruction_is_refused(self):
        # BA near 1e300 with a J_2(1) block (exists at scale 1): the form is
        # built on the normalized pair, and the unitarity gate then refuses
        # the rescaled U, whose root chain spans a factor 2^498
        a = np.array([[1, 1, 1], [0, 0, 0], [1, 1, 0]])
        b = np.array([[0, 0, 1], [0, 0, 0], [1, 1, 1]])
        assert attempt_jordan_svd(DCMatrix(a, b))[1].jsvd_status is JsvdStatus.EXISTS
        jsvd, report = attempt_jordan_svd(DCMatrix(1e150 * a, 1e150 * b))
        assert report.jsvd_status is JsvdStatus.UNKNOWN
        assert report.reason.startswith("VerificationFailed: U is not unitary")


def two_block_matrix():
    """B = P (J_2(4) + J_2(i)) P^-1 with P a complex Gaussian."""
    p = crand(np.random.default_rng(0), 4)
    return p @ jordan_matrix(((4 + 0j, 2), (1j, 2))) @ np.linalg.inv(p)


def near_double_pair():
    """BA has eigenvalues 1 and 1 + 1e-8 with nearly parallel eigenvectors:
    apart at cluster_gap 1e-10, they give a U' about 1e-8 from unitary."""
    p = crand(np.random.default_rng(2), 3)
    p_inv = np.linalg.inv(p)
    b = np.array([[1, 1, 0], [0, 1 + 1e-8, 0], [0, 0, 0]])
    return DCMatrix(p @ np.diag([1, 1, 0]) @ p_inv, p @ b @ p_inv)


class TestUnitarityGate:
    """The Jordan SVD checks that the U it returns is unitary."""

    def test_wrong_root_form_is_refused(self, monkeypatch):
        # J_mu in the chain basis of J_lam is not a root of BA
        monkeypatch.setattr(
            complex_linalg,
            "_root_chain_basis",
            lambda lam, mu, size: np.eye(size, dtype=complex),
        )
        m = DCMatrix(np.eye(4), two_block_matrix())
        with pytest.raises(TessarineError):
            jordan_svd(m)
        jsvd, report = attempt_jordan_svd(m)
        assert jsvd is None
        assert report.jsvd_status is JsvdStatus.UNKNOWN

    @pytest.mark.parametrize(
        "scale", [1e-20, 1e-16, 1e-12, 1.0, 1e12, 1e16, 1e20]
    )
    def test_every_returned_u_is_unitary(self, scale):
        m = DCMatrix(np.eye(4), scale * two_block_matrix())
        jsvd, report = attempt_jordan_svd(m)
        if scale in (1e-12, 1.0, 1e12):
            assert report.jsvd_status is JsvdStatus.EXISTS
        if report.jsvd_status is JsvdStatus.EXISTS:
            eye = np.eye(4)
            assert max_abs(jsvd.u.b @ jsvd.u.a - eye) <= 1e-7
            assert max_abs(jsvd.u.a @ jsvd.u.b - eye) <= 1e-7
            # the polar round trip passes the same gate: at 1e-16 its U,
            # (U V*) [Z, Z^-1] E, drifts to 3.6e-7 and is refused
            try:
                round_trip = polar_to_jsvd(polar(m))
            except VerificationFailed as ex:
                assert str(ex).startswith("U is not unitary")
            else:
                assert _gram_drift(round_trip.u.a, round_trip.u.b) <= 1e-7
        else:
            assert report.reason.startswith("VerificationFailed: U is not unitary")
        # the Hermitian route, [J_2(0), J_2(0)]
        j = scale * np.array([[0, 1], [0, 0]], dtype=complex)
        jsvd, report = attempt_jordan_svd(DCMatrix(j, j))
        assert report.jsvd_status is JsvdStatus.EXISTS
        assert _gram_drift(jsvd.u.a, jsvd.u.b) <= 1e-7

    def test_near_double_eigenvalue_stays_in_the_hierarchy(self):
        # all of U = [X, X^-1] is checked at recon_tol by the one gate:
        # no error outside the hierarchy escapes
        jsvd, report = attempt_jordan_svd(near_double_pair(), cluster_gap=1e-10)
        assert report.jsvd_status is JsvdStatus.EXISTS
        assert jsvd.u.is_unitary(1e-7)


def zero_block_columns(blocks):
    return [span.start for lam, span in complex_linalg._block_spans(blocks) if lam == 0]


class TestUnitaryByConstruction:
    """U = [X, X^-1] with ker B at J's zero blocks: no random draw."""

    PAIRS = {
        "diagonal": lambda: DCMatrix(np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 2.0, 0.0])),
        "rank_condition": lambda: rank_condition_pair(6, np.random.default_rng(3), r=3),
    }

    @pytest.mark.parametrize("name", PAIRS)
    def test_factors_do_not_depend_on_the_rng(self, name):
        m = self.PAIRS[name]()
        first = jordan_svd(m)
        jordan_svd(DCMatrix.identity(m.n))  # the memo now holds another pair
        second = jordan_svd(m)  # built again, with no rng to draw from
        assert second is not first
        assert zero_block_columns(first.blocks)
        assert np.array_equal(first.u.a, second.u.a)
        assert np.array_equal(first.u.b, second.u.b)
        first, second = (polar(m, rng=np.random.default_rng(s)) for s in (0, 1))
        assert np.array_equal(first.unitary_factor.a, second.unitary_factor.a)
        assert np.array_equal(first.unitary_factor.b, second.unitary_factor.b)

    @pytest.mark.parametrize("name", PAIRS)
    def test_zero_block_columns_span_ker_b(self, name):
        m = self.PAIRS[name]()
        jsvd = jordan_svd(m)
        zero = zero_block_columns(jsvd.blocks)
        assert len(zero) == m.n - rank_quadruple(m)[1]
        assert max_abs(m.b @ jsvd.u.a[:, zero]) <= 1e-12 * max_abs(m.b)

    def test_singular_x_is_refused_inside_the_hierarchy(self, monkeypatch):
        # X = 0 at the nonzero blocks: inverting it fails
        monkeypatch.setattr(
            decompositions, "_jordan_pinv", lambda j: np.zeros_like(j)
        )
        jsvd, report = attempt_jordan_svd(self.PAIRS["diagonal"]())
        assert jsvd is None
        assert report.jsvd_status is JsvdStatus.UNKNOWN
        assert report.reason == "VerificationFailed: U is not unitary: X is singular"

    def test_corpus_u_is_unitary_both_ways(self):
        rng = np.random.default_rng(5)
        for trial in range(50):
            n = (2, 4, 6, 8, 16)[trial % 5]
            m = rank_condition_pair(n, rng, r=int(rng.integers(1, n)))
            jsvd = jordan_svd(m)
            assert zero_block_columns(jsvd.blocks), trial
            eye = np.eye(n)
            drift = max(max_abs(jsvd.u.b @ jsvd.u.a - eye),
                        max_abs(jsvd.u.a @ jsvd.u.b - eye))
            assert drift <= 1e-12, trial


class TestRootZeroRule:
    """J has exactly n - rank(BA) zero blocks: a small nonzero eigenvalue of
    an invertible BA gets its square root, not root 0."""

    @pytest.mark.parametrize("diag", [(1.0, 5e-7), (1000.0, 5e-4)])
    def test_small_eigenvalue_of_invertible_pair(self, diag):
        m = DCMatrix(np.eye(2), np.diag(diag))
        assert rank_quadruple(m) == (2, 2, 2, 2)
        assert all(penrose_check(m, pinv(m)))
        jsvd, report = attempt_jordan_svd(m)
        assert report.jsvd_status is JsvdStatus.EXISTS
        assert all(lam != 0 for lam, _ in jsvd.blocks)


def _scaled(m, s):
    return DCMatrix(s * m.a, s * m.b)


class TestScaleRelative:
    """Every zero decision and gate is relative to what it compares, so
    the result for s * m is the result for m, rescaled."""

    SCALES = [1e12, 1e-12, 1e150, 1e-150]

    @pytest.fixture(scope="class")
    def deficient(self):
        rng = np.random.default_rng(1)
        pairs = [rank_condition_pair(int(rng.integers(2, 7)), rng) for _ in range(20)]
        return [m for m in pairs if rank_quadruple(m)[0] < m.n]

    @pytest.mark.parametrize("s", SCALES)
    @pytest.mark.parametrize("factor", [pinv, pinv_via_diagrams])
    def test_pinv_of_scaled_pair(self, deficient, factor, s):
        # pinv(s m) = pinv(m) / s: the direct sums Im(A) + ker(B) of
        # pinv_via_diagrams meet A's image and the unit kernel at one scale
        assert len(deficient) >= 10
        for m in deficient:
            want = factor(m)
            got = factor(_scaled(m, s))
            assert (_scaled(got, s) - want).norm_inf() <= 1e-10 * want.norm_inf()

    @pytest.mark.parametrize("s", [1e150, 1e-150])
    def test_hermitian_gate_accepts_scaled_hermitian(self, s):
        h = crand(np.random.default_rng(2), 3)
        assert decompositions._is_hermitian(DCMatrix(s * h, s * h), DEFAULT_TOL)

    def test_hermitian_gate_rejects_small_random_pair(self):
        m = _scaled(rand_pair(np.random.default_rng(0), 3), 1e-12)
        assert not decompositions._is_hermitian(m, DEFAULT_TOL)
        with pytest.raises(PreconditionFailed):
            hermitian_jsvd(m)

    @pytest.mark.filterwarnings("error")
    def test_nan_residual_is_refused(self):
        # U = [1e200 I, 1e-200 I] times H = 1e200 diag(1, 2) overflows:
        # the residual is NaN and the reconstruction is not finite
        h = 1e200 * np.diag([1.0, 2.0])
        pd = PolarDecomposition(
            DCMatrix(1e200 * np.eye(2), 1e-200 * np.eye(2)), DCMatrix(h, h)
        )
        with pytest.raises(TessarineError, match="residual nan"):
            polar_to_jsvd(pd)

    def test_penrose_check_has_no_floor(self):
        m = _scaled(rand_pair(np.random.default_rng(0), 3), 1e-12)
        assert not all(penrose_check(m, DCMatrix.zeros(3), 1e-7))


@st.composite
def rank_condition_draws(draw):
    """A ``rank_condition_pair`` of size 1 to 6 and an exponent k."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rank_condition_pair(draw(st.integers(1, 6)), rng), draw(st.integers(-700, 700))


def _outcome(factor, m):
    try:
        return factor(m)
    except TessarineError as ex:
        return type(ex)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(rank_condition_draws())
def test_power_of_two_scaling_is_exact(case):
    # every pair is factored as its normalized pair, so 2^k m gives the
    # results of m rescaled bit for bit
    m, k = case
    s = 2.0**k
    big = _scaled(m, s)
    assert rank_quadruple(big) == rank_quadruple(m)
    (jsvd, report), (big_jsvd, big_report) = attempt_jordan_svd(m), attempt_jordan_svd(big)
    assert big_report == report
    if jsvd is not None:
        assert big_jsvd.blocks == tuple((lam * s, size) for lam, size in jsvd.blocks)
    # a pseudoinverse scales by 1 / s, the naive SVD's S by s
    for factor, t in (
        (pinv, 1 / s), (pinv_via_diagrams, 1 / s), (lambda x: naive_dc_svd(x)[1], s)
    ):
        want, got = _outcome(factor, m), _outcome(factor, big)
        if isinstance(want, DCMatrix):
            assert np.array_equal(got.a, want.a * t) and np.array_equal(got.b, want.b * t)
        else:
            assert got is want


_DEFECTIVE = jordan_matrix(((1, 2), (3, 1)))  # J_2(1) + [3]
_GAUGE = crand(np.random.default_rng(0), 3)


@pytest.mark.parametrize("e", [-40, 40])
@pytest.mark.parametrize("b", [
    _DEFECTIVE, _GAUGE @ _DEFECTIVE @ np.linalg.inv(_GAUGE)
], ids=["jordan", "gauged"])
def test_power_of_two_scaling_is_exact_for_defective_j(b, e):
    # J's chain columns are rescaled one power of two each, and pinv reads
    # V [J+, J+] U* off the rescaled factors: [I, 2^e B]+ = [C, 2^-e D]
    eye = np.eye(3)
    want, got = pinv(DCMatrix(eye, b)), pinv(DCMatrix(eye, 2.0**e * b))
    assert np.array_equal(got.a, want.a)
    assert np.array_equal(got.b, want.b * 2.0**-e)
    assert all(penrose_check(DCMatrix(eye, 2.0**e * b), got, 1e-7))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(rank_condition_draws())
def test_pinv_commutes_with_star(case):
    # [A, B]* = [B, A] moves the odd power of two from B's scale to A's
    m, _ = case
    want = pinv(m).star()
    assert (pinv(m.star()) - want).norm_inf() <= 1e-10 * want.norm_inf()


def long_chain_pair():
    """[I, P J P^-1] with J = J_4(1) + J_1(3): the root of BA has a chain
    of length 4."""
    p = crand(np.random.default_rng(0), 5)
    return DCMatrix(np.eye(5), p @ jordan_matrix(((1 + 0j, 4), (3 + 0j, 1))) @ np.linalg.inv(p))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [1000, -1000])
@pytest.mark.parametrize("entry", list(TestNonFiniteInput.PAIR_ENTRY_POINTS))
def test_extreme_scales_stay_in_the_hierarchy(entry, k):
    # at 2^+-1000 a rescaled factor may leave the double range: then a
    # TessarineError, never a RuntimeWarning or an OverflowError
    call = TestNonFiniteInput.PAIR_ENTRY_POINTS[entry]
    for m in (rank_condition_pair(4, np.random.default_rng(3)), long_chain_pair()):
        try:
            call(_scaled(m, 2.0**k))
        except TessarineError:
            pass
    with pytest.raises(VerificationFailed, match="leaves the range"):
        jordan_decomposition(2.0**k * long_chain_pair().b, cluster_gap=1e-4)


@pytest.mark.filterwarnings("error")
def test_pinv_out_of_range_is_refused():
    # [A, I] with A^-1 = 1e308 diag(1, 10): V [J+, J+] U* overflows as it
    # is formed from the returned factors, and pinv refuses inside the
    # hierarchy; a pseudoinverse just inside the range is still returned
    with pytest.raises(VerificationFailed, match="leaves the range"):
        pinv(DCMatrix(1e-308 * np.diag([1, 0.1]), np.eye(2)))
    k = pinv(DCMatrix(1e-308 * np.diag([1, 0.6]), np.eye(2)))
    assert np.isfinite(k.a).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("construction", [pinv, pinv_via_diagrams])
def test_both_pseudoinverses_leave_the_normalized_scale_alike(construction):
    # K = [1e-308 I, I] has subnormal entries and is returned by both; the
    # A^-1 = 1e308 diag(1, 10) of the second pair overflows and is refused
    # by both, with one message
    k = construction(DCMatrix(1e308 * np.eye(2), np.eye(2)))
    assert np.array_equal(k.a, 1e-308 * np.eye(2)) and np.array_equal(k.b, np.eye(2))
    with pytest.raises(VerificationFailed, match="^pseudoinverse leaves the range$"):
        construction(DCMatrix(1e-308 * np.diag([1, 0.1]), np.eye(2)))


def test_pinv_near_the_end_of_the_range_is_returned():
    # A^-1 has entries near 1.5e308: V [J+, J+] U* formed at the pair's own
    # scale overflows, but formed on the normalized pair's factors and
    # rescaled once it is finite and passes the axioms
    rng = np.random.default_rng(0)
    q = crand(rng, 2)
    m = DCMatrix(1e-308 * (q @ np.diag([1, 0.5]) @ np.linalg.inv(q)), np.eye(2))
    k = pinv(m)
    assert np.isfinite(k.a).all() and np.isfinite(k.b).all()
    assert k.norm_inf() > 1e308
    assert penrose_check(m, k, DEFAULT_RECON_TOL) == (True, True, True, True)


class TestInversesPerCall:
    """At most one inverse per similarity: the Jordan basis of BA, inverted
    by its builder's gate (the root's basis, shared by V, reuses it), J's
    nonzero blocks (shared by pinv) where J is not diagonal, and X."""

    @pytest.fixture
    def inversions(self, monkeypatch):
        calls = {"inv": 0}
        count_calls(monkeypatch, "_inv", calls, "inv")
        return calls

    @pytest.mark.parametrize("n", [4, 16])
    @pytest.mark.parametrize("factor", [pinv, polar])
    def test_at_most_four(self, inversions, factor, n):
        m = rank_condition_pair(n, np.random.default_rng(n), r=n // 2)
        factor(m)
        assert inversions["inv"] <= 4

    @pytest.mark.parametrize("n", [4, 16])
    def test_polar_to_jsvd_at_most_two(self, inversions, n):
        # the Jordan basis of H, by its builder's gate: Z^-1 is its inverse
        # with the signs applied, W^-1 that with rows sign-flipped
        pd = polar(rank_condition_pair(n, np.random.default_rng(n), r=n // 2))
        inversions["inv"] = 0
        polar_to_jsvd(pd)
        assert inversions["inv"] <= 2


class TestInverseReuse:
    """The root's basis inverse is the Jordan builder's P^-1, solved against
    the chain blocks' small chain bases when the root has a chain; the round
    trip's Z^-1 is that inverse with signs; a semisimple cluster takes the
    staircase's kernel basis.  Every gate holds on the factors built."""

    @staticmethod
    def check_factors(m):
        jsvd = jordan_svd(m)
        assert _gram_drift(jsvd.u.a, jsvd.u.b) <= DEFAULT_RECON_TOL
        assert all(penrose_check(m, pinv(m), DEFAULT_RECON_TOL))
        round_trip = polar_to_jsvd(polar(m))
        assert _gram_drift(round_trip.v.a, round_trip.v.b) <= DEFAULT_RECON_TOL
        match_tol = 1e-6 * max(abs(lam) for lam, _ in jsvd.blocks)
        assert _same_structure(round_trip.blocks, jsvd.blocks, match_tol)
        return jsvd

    def test_root_chain_block_solves_against_its_basis(self, monkeypatch):
        # BA = J_2(1) + [3]: the root has a size-2 block
        solves = {"solve": 0}
        count_calls(monkeypatch, "_solve", solves, "solve")
        m = DCMatrix(np.eye(3), jordan_matrix(((1 + 0j, 2), (3 + 0j, 1))))
        jsvd = self.check_factors(m)
        assert [size for _, size in jsvd.blocks] == [2, 1]
        assert solves["solve"]

    @pytest.mark.parametrize("s", [1.0, 1e150, 1e-150])
    def test_semisimple_zero_cluster(self, s):
        # BA = diag(2, 0, 0): a zero cluster of 2 with a one-level staircase
        m = _scaled(DCMatrix(np.diag([1.0, 0, 0]), np.diag([2.0, 0, 0])), s)
        jsvd = self.check_factors(m)
        assert [size for _, size in jsvd.blocks] == [1, 1, 1]
        assert sum(lam == 0 for lam, _ in jsvd.blocks) == 2


@st.composite
def gauged_rank_condition_draws(draw):
    """A ``rank_condition_pair`` of size 1 to 6 and two gauge factors X, Y."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rank_condition_pair(draw(st.integers(1, 6)), rng)
    return m, _gauge_factor(rng, m.n), _gauge_factor(rng, m.n)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(gauged_rank_condition_draws())
def test_unitary_gauge_keeps_j(case):
    # [X, X^-1] m [Y, Y^-1]* = [X A Y^-1, Y B X^-1]: BA goes to Y BA Y^-1
    m, x, y = case
    u, v = DCMatrix(x, np.linalg.inv(x)), DCMatrix(y, np.linalg.inv(y))
    gauged = u @ m @ v.star()
    want = jordan_svd(m).blocks
    match_tol = 1e-6 * max(abs(lam) for lam, _ in want)
    assert _same_structure(jordan_svd(gauged).blocks, want, match_tol)


@st.composite
def real_matrices(draw):
    """A real matrix of size 1 to 6 and rank 1 to n whose nonzero singular
    values lie within a factor 100 of each other: s_min^2 >= 1e-4 s_max^2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, n))
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sv = 10.0 ** rng.uniform(0, 2, r)
    return q1[:, :r] @ np.diag(sv) @ q2[:, :r].T


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(real_matrices())
def test_pinv_of_real_embedding_is_the_complex_pinv(a):
    # A -> [A, A^T] respects products and the star, so it carries A's pinv
    k, want = pinv(embed_complex(a)), np.linalg.pinv(a, rcond=DEFAULT_TOL)
    scale = max_abs(want)
    assert max_abs(k.a - want) <= DEFAULT_RECON_TOL * scale
    assert max_abs(k.b - want.T) <= DEFAULT_RECON_TOL * scale


class TestPairAnalysedOnce:
    """Each pair's Jordan forms and ranks are computed once: level 1 of the
    kernel ladder is one stacked SVD of A and B, and each later level, taken
    once, one SVD for each operand whose other operand is neither injective
    nor zero.  Every call of the one Jordan builder
    (``_jordan_form``) and of the LAPACK layer's ``_svd`` and ``_inv`` is
    counted, a stacked call once; each Jordan basis is inverted once, by the
    builder's residual gate.  Each test starts with an empty analysis memo."""

    @pytest.fixture
    def counts(self, monkeypatch):
        monkeypatch.setattr(decompositions, "_last", None)
        counts = {"jordan": 0, "svd": 0, "inv": 0}
        for name, key in (("_jordan_form", "jordan"), ("_svd", "svd"), ("_inv", "inv")):
            count_calls(monkeypatch, name, counts, key)
        return counts

    def test_dense_trial(self, counts):
        # the verdicts come from the ladder; only BA's form is built
        record = explorer.run_trial(7, "dense", 4)
        assert record.jsvd_status == "exists"
        assert counts == {"jordan": 1, "svd": 1, "inv": 2}

    def test_invertible_trial(self, counts, monkeypatch):
        # the redraw test's rank quadruple is the trial's analysis: the
        # counts of a dense trial, and numpy's own rank is never taken
        ranked = []
        matrix_rank = np.linalg.matrix_rank

        def counted_rank(*args, **kwargs):
            ranked.append(args)
            return matrix_rank(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "matrix_rank", counted_rank)
        record = explorer.run_trial(7, "invertible", 4)
        assert record.jsvd_status == "exists"
        assert counts == {"jordan": 1, "svd": 1, "inv": 2}
        assert ranked == []

    @staticmethod
    def unseen_pair(monkeypatch):
        """A rank-condition pair the memo has not seen: drawing it analyses
        it through ``pinv_exists``, so the memo is emptied afterwards."""
        m = rank_condition_pair(4, np.random.default_rng(3), r=2)
        monkeypatch.setattr(decompositions, "_last", None)
        return m

    def test_pinv(self, counts, monkeypatch):
        # 1 for level 1, 2 for level 2, 1 for BA's semisimple zero cluster;
        # P^-1 from the builder's gate, J diagonal: X is the one inverted
        m = self.unseen_pair(monkeypatch)
        counts.update(jordan=0, svd=0, inv=0)
        pinv(m)
        assert counts == {"jordan": 1, "svd": 4, "inv": 2}

    def test_pinv_via_diagrams(self, counts, monkeypatch):
        # Im and ker of A and B come from level 1; both direct sums are
        # checked by one stacked SVD and inverted by one stacked inv
        m = self.unseen_pair(monkeypatch)
        counts.update(jordan=0, svd=0, inv=0)
        pinv_via_diagrams(m)
        assert counts == {"jordan": 0, "svd": 4, "inv": 1}

    def test_pinv_after_pinv_exists(self, counts, monkeypatch):
        # the ladder is the memo's; 1 for BA's semisimple zero cluster
        m = self.unseen_pair(monkeypatch)
        pinv_exists(m)
        counts.update(jordan=0, svd=0, inv=0)
        pinv(m)
        assert counts == {"jordan": 1, "svd": 1, "inv": 2}

    def test_polar_after_pinv(self, counts, monkeypatch):
        # the ladder and the Jordan SVD are both the memo's
        m = self.unseen_pair(monkeypatch)
        pinv(m)
        counts.update(jordan=0, svd=0, inv=0)
        polar(m)
        assert counts == {"jordan": 0, "svd": 0, "inv": 0}

    def test_naive_svd_after_pinv(self, counts):
        # the naive SVD is the memo's Jordan SVD: nothing is computed again
        m = explorer.generate_pair("invertible", 4, np.random.default_rng(3))
        pinv(m)
        counts.update(jordan=0, svd=0, inv=0)
        naive_dc_svd(m)
        assert counts == {"jordan": 0, "svd": 0, "inv": 0}

    def test_naive_svd_is_the_jordan_svd(self, monkeypatch):
        # an invertible pair with a diagonalizable BA: built afresh, the naive
        # SVD's factors are the Jordan SVD's, bit for bit
        m = explorer.generate_pair("invertible", 4, np.random.default_rng(4))
        jsvd = jordan_svd(m)
        assert all(size == 1 for _, size in jsvd.blocks)
        monkeypatch.setattr(decompositions, "_last", None)
        for got, want in zip(naive_dc_svd(m), (jsvd.u, jsvd.s, jsvd.v)):
            assert np.array_equal(got.a, want.a) and np.array_equal(got.b, want.b)

    def test_factor_op(self, counts, monkeypatch):
        # both pseudoinverses, polar and its round trip: 2 Jordan forms, each
        # basis inverted once by its gate, X once, the two direct sums together
        m = self.unseen_pair(monkeypatch)
        counts["eig"] = 0
        count_calls(monkeypatch, "_eig", counts, "eig")
        counts.update(jordan=0, svd=0, inv=0)
        pinv(m)
        pinv_via_diagrams(m)
        polar_to_jsvd(polar(m))
        assert (counts["jordan"], counts["eig"], counts["inv"]) == (2, 2, 4)

    def test_scalar_pair_decomposed_once(self, counts):
        # n = 1: the rank quadruple alone decides the verdicts
        record = explorer.run_trial(7, "dense", 1)
        assert record.jsvd_status == "exists"
        assert counts == {"jordan": 1, "svd": 1, "inv": 2}

    def test_commuting_pair_decomposed_once(self, counts):
        a = crand(np.random.default_rng(8), 4)
        jsvd, report = attempt_jordan_svd(DCMatrix(a, a))
        assert report.jsvd_status is JsvdStatus.EXISTS
        assert counts == {"jordan": 1, "svd": 1, "inv": 2}

    def test_climb_skips_a_side_that_did_not_grow(self, counts):
        # ranks (1, 1, 0, 1): levels 1 and 2 on construction; at level 3 B's
        # side is reused, as A's did not grow, and A's meets a full kernel
        jsvd, report = attempt_jordan_svd(counterexample_pair())
        assert report.jsvd_status is JsvdStatus.NOT_EXISTS
        assert counts == {"jordan": 0, "svd": 3, "inv": 0}

    def test_word_verdict_climbs_once(self, counts):
        # levels 1 and 2 on construction, then level 3 on top of them; past
        # it every step reuses a level or meets a full kernel
        jsvd, report = attempt_jordan_svd(word_counterexample_pair())
        assert report.jsvd_status is JsvdStatus.NOT_EXISTS
        assert counts == {"jordan": 0, "svd": 5, "inv": 0}


class TestScalesReadOnce:
    """Each array's scale is read once and handed on: every ``max_abs`` call
    is counted, in every module that calls it, with the analysis memo empty.
    A Jordan SVD reads A and B once for the normalization and the residual
    gate's scale, BA once for the Jordan builder and the root's gate, and
    then one array per gate: the builder's and the root's residuals, |Y X -
    I| and the two components of the reconstruction residual."""

    @pytest.fixture
    def reads(self, monkeypatch):
        monkeypatch.setattr(decompositions, "_last", None)
        reads = []
        original = max_abs

        def counted(a):
            reads.append(a.shape)
            return original(a)

        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.startswith("tessarine")
                    and getattr(mod, "max_abs", None) is original):
                monkeypatch.setattr(mod, "max_abs", counted)
        return reads

    def test_jordan_svd(self, reads):
        # ea = eb = 1: no factor is rescaled, so no range check reads one
        m = explorer.generate_pair("invertible", 4, np.random.default_rng(3))
        jordan_svd(m)
        assert len(reads) == 8

    def test_polar_to_jsvd(self, reads):
        # both factors' finiteness (2 + 2, H's scale kept for the Hermitian
        # gate), A - B of that gate, H for its Jordan builder and the
        # builder's residual, |Y X - I|, the residual and its target's scale
        m = explorer.generate_pair("invertible", 4, np.random.default_rng(3))
        pd = polar(m)
        reads.clear()
        polar_to_jsvd(pd)
        assert len(reads) == 12

    def test_dense_trial(self, reads):
        # the verdicts read no scale: only the Jordan SVD's 8 reads remain
        record = explorer.run_trial(7, "dense", 4)
        assert record.jsvd_status == "exists"
        assert len(reads) == 8


def _same(x: DCMatrix, y: DCMatrix) -> bool:
    return np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b)


def _twelve_product_penrose(m, k, tol):
    """``penrose_check`` as one product per matrix of each axiom: 12 in all."""
    ab, ea, eb = decompositions._normalized(m)
    (a, b), c, d = ab, complex_linalg._pow2(k.a, ea), complex_linalg._pow2(k.b, eb)
    ref = tol * max(map(max_abs, (a, b, c, d)))
    ax1 = max_abs(a @ c @ a - a) <= ref and max_abs(b @ d @ b - b) <= ref
    ax2 = max_abs(c @ a @ c - c) <= ref and max_abs(d @ b @ d - d) <= ref
    ax3 = max_abs(b @ d - c @ a) <= ref
    ax4 = max_abs(d @ b - a @ c) <= ref
    return ax1, ax2, ax3, ax4


class TestGatesOnComponents:
    """The factor path takes both components in one numpy call where they are
    stacked, and forms each gate's products on component arrays in the
    DCMatrix algebra's order: every value is the algebra's, bit for bit."""

    @pytest.fixture(params=range(1, 17))
    def m(self, request):
        return rank_condition_pair(request.param, np.random.default_rng(request.param))

    def test_stacked_level_one(self, m):
        pa = _PairAnalysis(m, DEFAULT_TOL)
        for side, operand in enumerate(pa.operands):
            for got, want in zip(pa.svds, np.linalg.svd(operand)):
                assert np.array_equal(got[side], want)

    def test_jordan_svd_residual(self, m):
        jsvd = jordan_svd(m)
        assert jsvd.residual == (jsvd.u @ jsvd.s @ jsvd.v.star() - m).norm_inf()

    def test_polar_factors_and_residual(self, m):
        jsvd = jordan_svd(m)
        pd, residual = decompositions._verified_polar(jsvd, m, DEFAULT_RECON_TOL)
        assert _same(pd.unitary_factor, jsvd.u @ jsvd.v.star())
        assert _same(pd.hermitian_factor, jsvd.v @ jsvd.s @ jsvd.v.star())
        assert residual == (pd.reconstruct() - m).norm_inf()

    def test_round_trip_residual(self, m):
        pd = polar(m)
        rt = polar_to_jsvd(pd)
        assert rt.residual == (rt.reconstruct() - pd.reconstruct()).norm_inf()

    def test_penrose_check_is_the_twelve_product_formula(self, m):
        k = pinv(m)
        near = k + DCMatrix(1e-9 * np.ones((m.n, m.n)), np.zeros((m.n, m.n)))
        far = DCMatrix(1e150 * m.a, 1e-150 * m.b)
        cases = (m, k), (m, pinv_via_diagrams(m)), (m, near), (far, pinv(far))
        for pair, inverse in cases:
            for tol in (1e-16, 1e-13, 1e-10, 1e-7):
                want = _twelve_product_penrose(pair, inverse, tol)
                assert penrose_check(pair, inverse, tol) == want

    @pytest.mark.parametrize(
        "e, want", [([[0, 0], [1, 0]], (True, True, False, True)),
                    ([[0, 1], [0, 0]], (True, True, True, False))])
    def test_axioms_three_and_four_apart(self, e, want):
        # k = [A + E, A] for m = [A, A]: E A != 0 = A E breaks axiom 3 only,
        # and the transposed E axiom 4 only
        a = np.diag([1.0, 0.0])
        m, k = DCMatrix(a, a), DCMatrix(a + np.array(e), a)
        assert penrose_check(m, k) == _twelve_product_penrose(m, k, 1e-8) == want

    @pytest.mark.parametrize("side", [0, 1])
    def test_nan_in_either_component_fails(self, m, side):
        target = m.a, m.b
        approx = [m.a.copy(), m.b.copy()]
        approx[side][0, 0] = np.nan
        with pytest.raises(VerificationFailed, match="residual nan"):
            decompositions._verified_residual("test", approx, target, DEFAULT_RECON_TOL)
        k = pinv(m)
        parts = [k.a.copy(), k.b.copy()]
        parts[side][0, 0] = np.nan
        assert penrose_check(m, DCMatrix(*parts)) == (False,) * 4


def _as_bytes(result) -> bytes:
    """Every array of a factorization result, as one byte string."""
    if isinstance(result, tuple):
        return b"".join(_as_bytes(r) for r in result)
    if isinstance(result, DCMatrix):
        return result.a.tobytes() + result.b.tobytes()
    if isinstance(result, decompositions.JordanSVD):
        return _as_bytes((result.u, result.s, result.v)) + repr(
            (result.blocks, result.residual)
        ).encode()
    if isinstance(result, PolarDecomposition):
        return _as_bytes((result.unitary_factor, result.hermitian_factor))
    return repr(result).encode()


class TestAnalysisMemo:
    """The last pair analysed is kept in a one-slot memo keyed by its
    content, tol and cluster_gap; its analysis keeps one Jordan SVD, or its
    refusal, per recon_tol."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(decompositions, "_last", None)

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = decompositions._jordan_svd

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(decompositions, "_jordan_svd", counted)
        return calls

    @staticmethod
    def pair():
        return rank_condition_pair(4, np.random.default_rng(5), r=3)

    @pytest.mark.parametrize(
        "factor",
        [pinv, polar, jordan_svd, pinv_via_diagrams, attempt_jordan_svd],
        ids=lambda f: f.__name__,
    )
    def test_warm_call_is_bit_identical(self, factor, monkeypatch):
        m = self.pair()
        monkeypatch.setattr(decompositions, "_last", None)
        cold = _as_bytes(factor(m))
        assert decompositions._last is not None
        assert _as_bytes(factor(m)) == cold

    def test_copied_arrays_hit(self, builds):
        m = self.pair()
        pinv(m)
        copy = DCMatrix(m.a.copy(), m.b.copy())
        assert decompositions._analysis(copy, DEFAULT_TOL) is decompositions._last[1]
        polar(copy)
        assert len(builds) == 1

    def test_signed_zero_misses(self):
        a = np.eye(2)
        b = np.diag([1.0, 0.0])
        first = decompositions._analysis(DCMatrix(a, b), DEFAULT_TOL)
        b[1, 1] = -0.0
        second = decompositions._analysis(DCMatrix(a, b), DEFAULT_TOL)
        assert second is not first
        assert second.ranks == first.ranks

    @pytest.mark.parametrize("change", [{"tol": 1e-8}, {"cluster_gap": 1e-7}])
    def test_other_tolerances_miss(self, change):
        m = self.pair()
        options = {"tol": DEFAULT_TOL, "cluster_gap": 1e-6, **change}
        first = decompositions._analysis(m, DEFAULT_TOL, 1e-6)
        assert decompositions._analysis(m, **options) is not first

    def test_other_recon_tol_rebuilds(self, builds):
        m = self.pair()
        jordan_svd(m)
        jordan_svd(m, recon_tol=1e-6)
        jordan_svd(m)
        assert len(builds) == 2

    def test_mutated_view_misses(self):
        # a DCMatrix over a view of a writable array: content, not identity
        base = np.zeros((2, 4), complex)
        m = DCMatrix(base[:, :2], base[:, 2:])
        assert rank_quadruple(m) == (0, 0, 0, 0)
        base[:] = np.hstack([np.eye(2), np.eye(2)])
        assert rank_quadruple(m) == (2, 2, 2, 2)
        assert pinv(m).approx_eq(DCMatrix.identity(2))

    def test_hit_builds_from_the_callers_pair(self):
        # the memo's pair is a view that has changed since it was analysed;
        # a hit on the old content builds from the caller's pair instead
        base = np.zeros((2, 4), complex)
        base[:, :2] = base[:, 2:] = np.diag([1, 2])
        m = DCMatrix(base[:, :2], base[:, 2:])
        rank_quadruple(m)
        old = DCMatrix(m.a.copy(), m.b.copy())
        base[:] = 0
        half = np.diag([1, 0.5])
        assert pinv(old).approx_eq(DCMatrix(half, half))

    def test_refusal_is_raised_again(self, builds):
        m = DCMatrix(np.eye(3), np.diag([1, 1 + 3e-6, 2]))
        with pytest.raises(ClusterAmbiguity) as cold:
            jordan_svd(m)
        with pytest.raises(ClusterAmbiguity) as warm:
            pinv(m)
        assert str(warm.value) == str(cold.value)
        _, report = attempt_jordan_svd(m)
        assert report.reason == f"ClusterAmbiguity: {cold.value}"
        assert len(builds) == 1

    def test_threads_share_the_slot(self):
        # more threads than cores, on two pairs that evict each other from
        # the slot: every thread must get its own pair's pseudoinverse
        pairs = [rank_condition_pair(4, np.random.default_rng(s), r=3) for s in (6, 7)]
        expected = [_as_bytes(pinv(m)) for m in pairs]
        wrong, done = [], []

        def work(k):
            for i in range(40):
                j = (i + k) % 2
                try:
                    if _as_bytes(pinv(pairs[j])) != expected[j]:
                        wrong.append(j)
                except TessarineError as ex:
                    wrong.append(ex)
            done.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == list(range(6)) and not wrong

    def test_non_finite_pair_is_not_kept(self):
        m = self.pair()
        pinv(m)
        kept = decompositions._last
        bad = DCMatrix([[np.nan]], [[1.0]])
        for _ in range(2):
            with pytest.raises(NonFiniteInput):
                pinv(bad)
        assert decompositions._last is kept
