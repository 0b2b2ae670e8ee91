"""Randomized scans of the existence conjecture and J uniqueness."""

import dataclasses
import json

import numpy as np
import pytest

from tessarine import decompositions, explorer
from tessarine.dcmatrix import DCMatrix
from tessarine.complex_linalg import jordan_matrix
from tessarine.decompositions import (
    JsvdStatus,
    jsvd_necessary,
    pinv_exists,
    rank_quadruple,
)
from tessarine.errors import BadProfile
from tessarine.explorer import (
    MAX_N,
    PROFILES,
    conjecture_scan,
    generate_pair,
    rank_condition_pair,
    run_trial,
    trial_seed,
    uniqueness_scan,
)


def crand(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestGeneratePair:
    def test_fixed_seed_reproducible(self):
        for profile in PROFILES:
            a = generate_pair(profile, 3, np.random.default_rng(5))
            b = generate_pair(profile, 3, np.random.default_rng(5))
            assert np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b)

    def test_invertible_profile_full_rank(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = generate_pair("invertible", 4, rng)
            ok, ranks = pinv_exists(m)
            assert ok and ranks == (4, 4, 4, 4)

    def test_counterexample_profile_breaks_condition_3(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4):
            m = generate_pair("counterexample", n, rng)
            nec = jsvd_necessary(m)
            assert nec[2] is False

    def test_bad_profile(self):
        with pytest.raises(BadProfile):
            generate_pair("nonsense", 3, np.random.default_rng(0))

    def test_jordan_profile_prescribes_ab_structure(self):
        from tessarine.complex_linalg import similar

        rng = np.random.default_rng(2)
        for _ in range(5):
            m = generate_pair("jordan", 4, rng)
            # B was coupled through A^-1, so BA is similar to AB by construction
            assert similar(m.a @ m.b, m.b @ m.a, cluster_gap=1e-5)

    def test_rank_condition_pair(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rank_condition_pair(int(rng.integers(1, 7)), rng)
            ok, _ = pinv_exists(m)
            assert ok

    def test_full_rank_factor_products_are_invertible(self):
        rng = np.random.default_rng(13)
        m = rank_condition_pair(4, rng, r=4)
        ok, ranks = pinv_exists(m)
        assert ok and ranks == (4, 4, 4, 4)

    def test_rank_zero_is_the_zero_pair(self):
        m = rank_condition_pair(3, np.random.default_rng(0), r=0)
        assert not m.a.any() and not m.b.any()
        assert pinv_exists(m) == (True, (0, 0, 0, 0))

    @pytest.mark.parametrize("n,r", [(3, 4), (3, -1), (0, None)], ids=["r>n", "r<0", "n0"])
    def test_bad_arguments_rejected_before_drawing(self, n, r):
        # no n x n factor product has rank above n, so the draw loop would not end
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"drew {name} before checking the arguments")

        with pytest.raises(BadProfile):
            rank_condition_pair(n, NoDraws(), r=r)


class TestRunTrial:
    def test_determinism(self):
        seed = trial_seed(42, 7)
        a = run_trial(seed, "dense", 4)
        b = run_trial(seed, "dense", 4)
        assert a == b

    def test_as_dict_is_the_dataclass_dict(self):
        # the hand-built dict has asdict's keys, order and values, and its
        # block list shares no list with the record
        for profile in PROFILES:
            rec = run_trial(trial_seed(8, 1), profile, 3)
            d = rec.as_dict()
            assert json.dumps(d) == json.dumps(dataclasses.asdict(rec))
            if rec.j_blocks is not None:
                d["j_blocks"][0][2] = -1
                d["j_blocks"].append(None)
                assert rec.j_blocks == run_trial(trial_seed(8, 1), profile, 3).j_blocks

    def test_scan_records_replay(self):
        # a scan draws n and the pair from one generator; each record is
        # what run_trial replays from its seed, profile and n
        records, _ = conjecture_scan(150, PROFILES, n_max=6, seed=31)
        assert {r.construction_profile for r in records} == set(PROFILES)
        for r in records:
            assert r.as_dict() == run_trial(r.seed, r.construction_profile, r.n).as_dict()

    def test_invertible_redraw(self, monkeypatch):
        # a first draw whose A has rank 1 is redrawn; the second draw is the
        # trial's pair, and the analysis its redraw test made is the trial's
        original = explorer._random_complex
        draws = []

        def drawn(rng, rows, cols):
            x = original(rng, rows, cols)
            if not draws:
                x = np.outer(x[:, 0], x[0])
            draws.append(x)
            return x

        analysed = []

        class Counted(decompositions._PairAnalysis):
            def __init__(self, m, *args):
                analysed.append(m)
                super().__init__(m, *args)

        monkeypatch.setattr(explorer, "_random_complex", drawn)
        monkeypatch.setattr(decompositions, "_PairAnalysis", Counted)
        monkeypatch.setattr(decompositions, "_last", None)
        rec = run_trial(5, "invertible", 4)
        assert len(draws) == 4 and len(analysed) == 2
        first, second = analysed
        assert np.array_equal(first.a, draws[0]) and np.array_equal(first.b, draws[1])
        assert np.array_equal(second.a, draws[2]) and np.array_equal(second.b, draws[3])
        assert decompositions._last[1].m is second
        assert rank_quadruple(second) == (4, 4, 4, 4)
        assert len(analysed) == 2
        assert rec.jsvd_status == "exists" and rec.similar_ab_ba
        assert rank_quadruple(first)[:2] == (1, 4)

    def test_nilpotent_hermitian_cell_consistent(self):
        # [J, J] has a Jordan SVD and AB = BA = 0; the cell must be consistent
        j = np.array([[0, 1], [0, 0]], dtype=complex)
        m = DCMatrix(j, j)
        from tessarine.decompositions import attempt_jordan_svd
        from tessarine.complex_linalg import similar

        jsvd, report = attempt_jordan_svd(m)
        assert report.jsvd_status is JsvdStatus.EXISTS
        assert similar(m.a @ m.b, m.b @ m.a)


class TestConjectureScan:
    def test_invertible_trials_all_exist_and_similar(self):
        records, summary = conjecture_scan(
            trials=1000, profiles=("invertible",), n_max=4, seed=0
        )
        assert summary.cells == {("similar", "exists"): 1000}
        assert summary.consistent
        assert not summary.candidate_counterexamples

    def test_counterexample_profile_yields_not_exists(self):
        records, summary = conjecture_scan(
            trials=30, profiles=("counterexample",), n_max=4, seed=1
        )
        assert {r.jsvd_status for r in records} == {"not_exists"}
        # AB = 0-block structure vs nilpotent BA: never similar
        assert all(r.similar_ab_ba is False for r in records)

    def test_exists_records_carry_verified_residual(self):
        records, _ = conjecture_scan(
            trials=60, profiles=("dense", "ranks"), n_max=4, seed=2
        )
        for r in records:
            if r.jsvd_status == "exists":
                assert r.residual is not None and r.j_blocks is not None
            else:
                assert r.residual is None

    def test_candidates_flagged_with_replay_seeds(self):
        records, summary = conjecture_scan(
            trials=80, profiles=("ranks",), n_max=4, seed=3
        )
        for cand in summary.candidate_counterexamples:
            replay = run_trial(cand["seed"], cand["construction_profile"], cand["n"])
            assert replay.as_dict() == cand

    def test_scan_is_deterministic(self):
        r1, s1 = conjecture_scan(trials=40, profiles=("dense", "ranks"), seed=9)
        r2, s2 = conjecture_scan(trials=40, profiles=("dense", "ranks"), seed=9)
        assert [a.as_dict() for a in r1] == [b.as_dict() for b in r2]
        assert json.dumps(s1.as_dict()) == json.dumps(s2.as_dict())

    def test_bad_profile_rejected(self):
        with pytest.raises(BadProfile):
            conjecture_scan(trials=1, profiles=("bogus",))

    @pytest.mark.parametrize(
        "profiles,n_max",
        [((), 5), (("dense",), 0), (("dense",), -1), (("dense",), MAX_N + 1)],
        ids=["no-profile", "n0", "n-1", "n-too-large"],
    )
    def test_bad_arguments_rejected_before_first_trial(self, profiles, n_max):
        seen = []
        with pytest.raises(BadProfile):
            conjecture_scan(40, profiles, n_max, sink=seen.append)
        assert seen == []


class TestUniqueness:
    def test_invertible_stable(self):
        rng = np.random.default_rng(4)
        m = DCMatrix(crand(rng, 3), crand(rng, 3))
        verdict = uniqueness_scan(m, repetitions=6, seed=0)
        assert verdict.verdict == "stable_j"
        assert not verdict.witnesses

    def test_hermitian_matches_jordan_structure(self):
        rng = np.random.default_rng(5)
        j = jordan_matrix(((2 + 0j, 2), (5 + 0j, 1)))
        p = crand(rng, 3)
        a = p @ j @ np.linalg.inv(p)
        m = DCMatrix(a, a)
        verdict = uniqueness_scan(m, repetitions=5, seed=1)
        assert verdict.verdict == "stable_j"
        got = sorted((round(l[0]), round(l[1]), l[2]) for l in verdict.reference_blocks)
        assert got == [(2, 0, 2), (5, 0, 1)]

    @pytest.mark.parametrize("seed", range(4))
    def test_small_scale_stable(self, seed):
        # J scales with m: matched within cluster_gap * |m|, with no floor
        m = generate_pair("dense", 3, np.random.default_rng(seed))
        verdict = uniqueness_scan(DCMatrix(1e-12 * m.a, 1e-12 * m.b), repetitions=3)
        assert verdict.verdict == "stable_j"

    def test_singular_rank_condition_stable(self):
        rng = np.random.default_rng(6)
        m = rank_condition_pair(4, rng, r=2)
        verdict = uniqueness_scan(m, repetitions=5, seed=2)
        assert verdict.verdict == "stable_j"
