"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass.  Shared corpora are seeded, so every run is identical.
"""

import math
import time

import numpy as np
import pytest

from tessarine.dcmatrix import DCMatrix, direct_sum, max_abs
from tessarine.complex_linalg import jordan_matrix, null_space
from tessarine.decompositions import (
    JsvdStatus,
    attempt_jordan_svd,
    jordan_svd,
    jsvd_necessary,
    naive_dc_svd,
    pinv,
    pinv_exists,
    pinv_via_diagrams,
    polar,
    polar_to_jsvd,
)
from tessarine.errors import (
    NotDiagonalizable,
    SingularComponent,
    TessarineError,
    ZeroNorm,
)
from tessarine.explorer import (
    conjecture_scan,
    generate_pair,
    rank_condition_pair,
    run_trial,
)
from tessarine.orthonormal import (
    DCVector,
    extend_orthonormal,
    normalize,
)


def report(number: int, description: str):
    print(f"ACCEPTANCE {number:2d} PASS  {description}")


def crand(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def multiset_match(got, want, tol):
    """Blocks agree as a multiset: sizes exact, eigenvalues within tol."""
    if len(got) != len(want):
        return False
    pool = list(got)
    for lam, size in want:
        hit = next(
            (
                i
                for i, (mu, sz) in enumerate(pool)
                if sz == size and abs(mu - lam) <= tol
            ),
            None,
        )
        if hit is None:
            return False
        pool.pop(hit)
    return True


@pytest.fixture(scope="module")
def corpus():
    """500 seeded rank-condition pairs, n in 1..6, with their factorizations."""
    rng = np.random.default_rng(20260808)
    out = []
    for i in range(500):
        n = (i % 6) + 1
        m = rank_condition_pair(n, rng)
        jsvd = jordan_svd(m, rng=np.random.default_rng(i))
        k = pinv(m, rng=np.random.default_rng(i))
        out.append((m, jsvd, k))
    return out


def test_criterion_01_known_negatives():
    t0 = time.monotonic()
    # (a) the scalar (1+j)/2 reports no pseudoinverse
    ok, _ = pinv_exists(DCMatrix([[1.0]], [[0.0]]))
    assert ok is False
    # (b) A = diag(0,1), B = nilpotent shift: conditions (T, T, F), NotExists
    m = DCMatrix(np.diag([0.0, 1.0]), np.array([[0, 1], [0, 0]]))
    assert jsvd_necessary(m) == (True, True, False)
    jsvd, rep = attempt_jordan_svd(m)
    assert jsvd is None and rep.jsvd_status is JsvdStatus.NOT_EXISTS
    # (c) nilpotent [J, J]: Jordan SVD exists with U = V = I, no pseudoinverse
    j = np.array([[0, 1], [0, 0]], dtype=complex)
    jsvd, rep = attempt_jordan_svd(DCMatrix(j, j))
    assert rep.jsvd_status is JsvdStatus.EXISTS and rep.pinv_exists is False
    assert jsvd.u.approx_eq(DCMatrix.identity(2), 1e-12)
    assert jsvd.v.approx_eq(DCMatrix.identity(2), 1e-12)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, f"known negatives reproduced exactly ({elapsed * 1000:.0f} ms)")


def test_criterion_02_penrose_suite(corpus):
    t0 = time.monotonic()
    worst = 0.0
    for m, _, k in corpus:
        a, b, c, d = m.a, m.b, k.a, k.b
        residuals = [
            max_abs(a @ c @ a - a),
            max_abs(b @ d @ b - b),
            max_abs(c @ a @ c - c),
            max_abs(d @ b @ d - d),
            max_abs(b @ d - c @ a),
            max_abs(d @ b - a @ c),
        ]
        worst = max(worst, max(residuals))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-8
    assert elapsed <= 60.0
    report(2, f"500-pair Penrose suite, worst residual {worst:.2e} in {elapsed:.1f}s")


def test_criterion_03_uniqueness_cross_check(corpus):
    worst = 0.0
    for m, _, k in corpus:
        k2 = pinv_via_diagrams(m)
        worst = max(worst, (k - k2).norm_inf())
    assert worst <= 1e-8
    report(3, f"pinv and diagram construction agree, worst gap {worst:.2e}")


def test_criterion_04_jsvd_reconstruction(corpus):
    worst = 0.0
    for m, jsvd, _ in corpus:
        scale = max(m.norm_inf(), 1e-300)
        worst = max(worst, (jsvd.reconstruct() - m).norm_inf() / scale)
        assert jsvd.u.is_unitary(1e-8)
        assert jsvd.v.is_unitary(1e-8)
        for lam, size in jsvd.blocks:
            assert lam != 0 or size == 1  # square-root lemma
    assert worst <= 1e-7
    report(4, f"Jordan SVD reconstruction, worst relative residual {worst:.2e}")


def test_criterion_05_specializations():
    # (a) Hermitian [A, A] with hand-built Jordan structures
    rng = np.random.default_rng(55)
    structures = [
        ((1 + 0j, 2), (3 + 0j, 1)),
        ((1j, 2), (2 + 0j, 1)),
        ((0j, 1), (1 + 0j, 2), (4 + 0j, 1)),
        ((2 + 1j, 2), (2 + 0j, 2)),
        ((5 + 0j, 1), (0j, 1), (1 + 1j, 1)),
    ]
    for blocks in structures:
        j = jordan_matrix(blocks)
        n = j.shape[0]
        q, _ = np.linalg.qr(crand(rng, n))
        p = q + 0.1 * crand(rng, n)
        a = p @ j @ np.linalg.inv(p)
        m = DCMatrix(a, a)
        out = jordan_svd(m, rng=rng, cluster_gap=1e-5)
        assert multiset_match(out.blocks, blocks, 1e-5)
    # (b) naive SVD eigendecomposition identities
    checked = 0
    for trial in range(60):
        m = DCMatrix(crand(rng, 4), crand(rng, 4))
        try:
            u, s, v = naive_dc_svd(m)
        except (NotDiagonalizable, SingularComponent):
            continue
        checked += 1
        ab, ba = m.a @ m.b, m.b @ m.a
        d2 = s.a @ s.a
        scale = max(max_abs(ab), 1.0)
        assert max_abs(u.a @ d2 @ np.linalg.inv(u.a) - ab) <= 1e-8 * scale
        assert max_abs(v.a @ d2 @ np.linalg.inv(v.a) - ba) <= 1e-8 * scale
    assert checked >= 50
    report(5, f"Hermitian block multisets and {checked} naive-SVD reductions verified")


def test_criterion_06_polar_equivalence(corpus):
    rng = np.random.default_rng(66)
    sample = [m for m, _, _ in corpus[:100]]
    for i in range(50):
        sample.append(generate_pair("ranks", (i % 4) + 2, rng))
    for i in range(50):
        sample.append(generate_pair("counterexample", (i % 4) + 2, rng))
    successes = 0
    for i, m in enumerate(sample):
        try:
            jordan_svd(m, rng=np.random.default_rng(i))
            jsvd_ok = True
        except TessarineError:
            jsvd_ok = False
        try:
            pd = polar(m, rng=np.random.default_rng(i))
            polar_ok = True
        except TessarineError:
            polar_ok = False
        assert jsvd_ok == polar_ok
        if polar_ok:
            successes += 1
            back = polar_to_jsvd(pd)
            scale = max(m.norm_inf(), 1e-300)
            assert (back.reconstruct() - m).norm_inf() <= 1e-7 * scale
    assert len(sample) == 200 and successes >= 100
    report(6, f"polar succeeds iff Jordan SVD does (200 matrices, {successes} roundtrips)")


def test_criterion_07_block_lemma():
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(100):
        l = rank_condition_pair(int(rng.integers(1, 4)), rng)
        m = rank_condition_pair(int(rng.integers(1, 4)), rng)
        lhs = pinv(direct_sum(l, m), rng=np.random.default_rng(trial))
        rhs = direct_sum(
            pinv(l, rng=np.random.default_rng(trial)),
            pinv(m, rng=np.random.default_rng(trial)),
        )
        worst = max(worst, (lhs - rhs).norm_inf())
    assert worst <= 1e-9
    # a non-trivial nilpotent [J_i, J_i] block poisons the direct sum
    j = np.array([[0, 1], [0, 0]], dtype=complex)
    good = rank_condition_pair(3, rng)
    ok, _ = pinv_exists(direct_sum(good, DCMatrix(j, j)))
    assert ok is False
    report(7, f"block pseudoinverse lemma on 100 pairs, worst gap {worst:.2e}")


def test_criterion_08_orthonormal_extension():
    rng = np.random.default_rng(88)
    draws = retries = 0
    for i in range(1000):
        d = (i % 6) + 1
        stats = {}
        basis = extend_orthonormal([], d, rng, stats=stats)
        draws += stats["draws"]
        retries += stats["retries"]
        u = DCMatrix(
            np.column_stack([v.u for v in basis]), np.vstack([v.v for v in basis])
        )
        assert u.is_unitary(1e-8)
    first_draw_rate = 1.0 - retries / draws
    assert first_draw_rate >= 0.99
    with pytest.raises(ZeroNorm):
        normalize(DCVector([1, 1], [1, -1]))  # the witness (1, j)^T
    report(
        8,
        f"1000 extensions, first-draw success {first_draw_rate:.2%}, "
        "zero-norm witness rejected",
    )


def test_criterion_09_kernel_lemma(corpus):
    for m, _, _ in corpus:
        ba = m.b @ m.a
        # ker over the module splits into the two component kernels
        assert null_space(m.a).equals(null_space(ba), 1e-8)
        assert null_space(m.b.T).equals(null_space(ba.T), 1e-8)
    report(9, "ker(M* M) = ker(M) componentwise on the whole corpus")


def test_criterion_10_explorer_consistency():
    t0 = time.monotonic()
    records, summary = conjecture_scan(
        trials=10_000, profiles=("dense", "ranks"), n_max=5, seed=2026
    )
    assert summary.trials == 10_000
    flagged = {
        (c["seed"], c["construction_profile"]): c
        for c in summary.candidate_counterexamples
    }
    for rec in records:
        if rec.jsvd_status == "exists":
            assert rec.residual is not None and math.isfinite(rec.residual)
            assert rec.j_blocks is not None
        else:
            assert rec.residual is None
        if rec.jsvd_status == "not_exists":
            assert rec.pinv_exists is False
        conjecture_hit = (
            rec.jsvd_status == "exists" and rec.similar_ab_ba is False
        ) or (rec.jsvd_status == "not_exists" and rec.similar_ab_ba is True)
        if conjecture_hit:
            assert (rec.seed, rec.construction_profile) in flagged
    # flagged findings carry replay seeds that reproduce the record
    for cand in summary.candidate_counterexamples[:50]:
        replay = run_trial(cand["seed"], cand["construction_profile"], cand["n"])
        assert replay.as_dict() == cand
    elapsed = time.monotonic() - t0
    assert elapsed <= 600.0
    report(
        10,
        f"10^4 trials in {elapsed:.0f}s, zero inconsistent records, "
        f"{len(summary.candidate_counterexamples)} flagged findings preserved",
    )
