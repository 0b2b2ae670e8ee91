"""Randomized scans of the existence conjecture and J uniqueness."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

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
from tessarine.errors import BadProfile, VerificationFailed
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
    @pytest.mark.parametrize("seed", [-1, 1.5, np.int32(-4)])
    def test_bad_seed(self, seed):
        with pytest.raises(BadProfile):
            run_trial(seed, "dense", 3)

    @pytest.mark.parametrize("n", [0, 2.0, MAX_N + 1])
    def test_bad_n(self, n):
        with pytest.raises(BadProfile):
            run_trial(5, "dense", n)

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

    @pytest.mark.parametrize(
        "kwargs",
        [{"seed": -1}, {"seed": 1.5}, {"seed": np.int64(-1)}, {"seed": "3"},
         {"trials": 1.5}, {"trials": -1}, {"n_max": 2.5}],
        ids=["seed-1", "seed1.5", "np-seed-1", "seed-str", "trials1.5", "trials-1",
             "n2.5"],
    )
    def test_bad_counts_rejected_before_first_trial(self, kwargs):
        seen = []
        with pytest.raises(BadProfile):
            conjecture_scan(**{"trials": 3, "seed": 0, **kwargs}, sink=seen.append)
        assert seen == []

    def test_numpy_integer_arguments(self):
        records, _ = conjecture_scan(np.int64(12), n_max=np.uint8(3), seed=np.uint64(2**40 + 3))
        assert [r.as_dict() for r in records] == [
            r.as_dict() for r in conjecture_scan(12, n_max=3, seed=2**40 + 3)[0]
        ]

    def test_prefix_of_a_longer_scan(self):
        # the seeding runs in blocks of _BLOCK trials: a scan that ends inside
        # a block records what the first trials of a longer scan record
        k = explorer._BLOCK - 3
        short, _ = conjecture_scan(k, ("counterexample", "dense"), n_max=2, seed=77)
        long, _ = conjecture_scan(k + 8, ("counterexample", "dense"), n_max=2, seed=77)
        assert [r.as_dict() for r in short] == [r.as_dict() for r in long[:k]]

    def test_scan_builds_no_seed_sequence(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a trial seeded through SeedSequence")

        expected = [r.as_dict() for r in conjecture_scan(25, PROFILES, seed=4)[0]]
        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(explorer, "trial_seed", refuse)
        assert [r.as_dict() for r in conjecture_scan(25, PROFILES, seed=4)[0]] == expected

    def test_short_scans_raise_no_warning(self):
        # the seed hashes wrap uint32 products: under -X dev -W error a
        # numpy scalar product would raise its overflow warning.  Importing
        # the explorer leaves numpy.random to the first scan.
        code = (
            "import sys\n"
            "from tessarine.explorer import PROFILES, conjecture_scan\n"
            "assert 'numpy.random' not in sys.modules\n"
            "for trials in (0, 1):\n"
            "    for seed in (0, 2**32 - 1, 2**130 + 9):\n"
            "        conjecture_scan(trials, PROFILES, seed=seed)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


class TestTrialSeeding:
    """The scan's vectorized seeding against numpy's SeedSequence."""

    BASES = [0, 1, 2**32 - 1, 2**32, 2**64, 2**130 + 9]

    @pytest.mark.parametrize("base", BASES)
    def test_seeds_and_words_across_a_block(self, base):
        # trials _BLOCK - 2 .. _BLOCK + 1 are seeded by two passes
        pairs = list(explorer._trial_words(base, explorer._BLOCK + 2))
        assert len(pairs) == explorer._BLOCK + 2
        for t in [0, 1, 2, *range(explorer._BLOCK - 2, explorer._BLOCK + 2)]:
            seed_t, words = pairs[t]
            ss = np.random.SeedSequence(entropy=base, spawn_key=(t,))
            assert seed_t == int(ss.generate_state(1, np.uint64)[0]) == trial_seed(base, t)
            expected = np.random.SeedSequence(seed_t).generate_state(4, np.uint64)
            assert words.dtype == np.uint64 and np.array_equal(words, expected)

    @pytest.mark.parametrize("base", BASES)
    def test_two_word_indices(self, base):
        for start, stop in [(2**32 - 2, 2**32), (2**32, 2**32 + 2)]:
            expected = [trial_seed(base, t) for t in range(start, stop)]
            assert explorer._trial_seeds(base, start, stop).tolist() == expected

    @pytest.mark.parametrize("seed_t", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_pcg64_words(self, seed_t):
        # seeds below 2**32 are one word of SeedSequence entropy, others two
        words = explorer._pcg64_words(np.array([seed_t], dtype=np.uint64))[0]
        expected = np.random.SeedSequence(seed_t).generate_state(4, np.uint64)
        assert np.array_equal(words, expected)

    def test_generators_match_default_rng(self):
        for seed_t, words in explorer._trial_words(2**130 + 9, 20):
            rng, oracle = explorer._generator(words), np.random.default_rng(seed_t)
            assert rng.integers(1, 7) == oracle.integers(1, 7)
            assert np.array_equal(rng.standard_normal(5), oracle.standard_normal(5))


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

    @pytest.mark.filterwarnings("error")
    def test_gauge_leaving_the_range_is_refused(self):
        # at 1.7e308 the gauged pair overflows: refused quietly, with the
        # repetition and its replay seed, not blamed on the finite input
        rng = np.random.default_rng(12)
        m = rank_condition_pair(int(rng.integers(2, 6)), rng)
        s = 1.7e308 / m.norm_inf()
        want = f"repetition 1's gauge leaves the range (replay seed {trial_seed(0, 1)})"
        with pytest.raises(VerificationFailed, match=re.escape(want)):
            uniqueness_scan(DCMatrix(s * m.a, s * m.b), repetitions=4)

    @pytest.mark.parametrize(
        "kwargs",
        [{"seed": -1}, {"seed": 0.5}, {"repetitions": -1}, {"repetitions": 2.0}],
        ids=["seed-1", "seed0.5", "repetitions-1", "repetitions2.0"],
    )
    def test_bad_arguments_rejected(self, kwargs):
        m = DCMatrix(np.eye(2), np.diag([1.0, 2.0]))
        with pytest.raises(BadProfile):
            uniqueness_scan(m, **kwargs)
