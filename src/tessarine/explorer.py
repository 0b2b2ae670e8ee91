"""Randomized search harness for the two open problems.

Problem 1 (existence): is "AB similar to BA" equivalent to the Jordan
SVD existing?  The scan records the similarity verdict next to the
three-valued construction status and flags any (exists, not similar) or
(not exists, similar) cell as a candidate counterexample - a reportable
finding, never a silent drop.  Similarity and the necessary conditions
are read off one alternating kernel ladder of A and B; a Jordan form is
computed only when the construction builds factors.

Problem 2 (uniqueness of J): the scan reruns the construction under
random unitary gauges and through the polar route and compares the
canonical block multisets after half-plane normalization.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .dcmatrix import DCMatrix
from .complex_linalg import (
    DEFAULT_CLUSTER_GAP,
    jordan_matrix,
    rank,
    _inv,
    _same_structure,
    _solve,
    _svd,
)
from .dcnum import DEFAULT_TOL
from .decompositions import (
    JsvdStatus,
    jordan_svd,
    jsvd_to_polar,
    pinv_exists,
    polar_to_jsvd,
    rank_quadruple,
    _analysis,
    _attempt_jordan_svd,
)
from .errors import PROFILES, BadProfile
from .pairfile import _blocks_as_json

MAX_N = 6


@dataclass(frozen=True)
class TrialRecord:
    """One explorer trial; reproducible from (seed, n, construction_profile)."""

    seed: int
    n: int
    construction_profile: str
    similar_ab_ba: bool
    jsvd_status: str
    pinv_exists: bool
    j_blocks: list | None
    residual: float | None
    consistent: bool
    error: str | None = None  # kept in the record format; always None

    def as_dict(self) -> dict:
        """``dataclasses.asdict`` of the record, without its deep copy: the
        fields in order, the block list and its inner lists copied."""
        blocks = self.j_blocks
        if blocks is not None:
            blocks = [list(b) for b in blocks]
        return {**vars(self), "j_blocks": blocks}


@dataclass
class ScanSummary:
    trials: int = 0
    cells: dict = field(default_factory=dict)  # (similarity, status) -> count
    candidate_counterexamples: list = field(default_factory=list)
    unknown_cells: int = 0
    errors: int = 0
    consistent: bool = True

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "cells": {f"{sim}|{status}": c for (sim, status), c in sorted(self.cells.items())},
            "candidate_counterexamples": self.candidate_counterexamples,
            "unknown_cells": self.unknown_cells,
            "errors": self.errors,
            "consistent": self.consistent,
        }


def trial_seed(base_seed: int, index: int) -> int:
    """Stable per-trial seed derived from the scan seed: the first uint64
    word of ``SeedSequence(base_seed, spawn_key=(index,))``.  Trial
    ``index`` of a scan draws from ``default_rng(trial_seed(seed, index))``,
    which ``conjecture_scan`` builds without a ``SeedSequence`` per trial.
    ``base_seed`` and ``index`` are non-negative integers."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# numpy's SeedSequence (numpy/random/bit_generator.pyx) on uint32 words:
# each entropy word is hashed into a pool of 4 words with the constants
# INIT_A * MULT_A**k, the pool words are mixed with MIX_L and MIX_R, and the
# state is read out with INIT_B * MULT_B**k.  The arithmetic is on uint32
# arrays, which wrap mod 2**32 without a warning.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
# trials seeded per pass; a power of two dividing 2**32, so the indices of
# one block have the same number of uint32 words
_BLOCK = 1024


def _uint32_words(value: int) -> list[int]:
    """``value`` as SeedSequence reads an int: little-endian uint32 words,
    ``[0]`` for 0."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k mod 2**32`` for k in ``0..count``, a uint32 column."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashed(values, consts: np.ndarray) -> np.ndarray:
    """Row i of ``values`` (broadcast against ``consts[:-1]``) hashed as
    SeedSequence hashes a word: xor ``consts[i]``, times ``consts[i + 1]``."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ values >> 16


def _mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    values = x * _MIX_L - y * _MIX_R
    return values ^ values >> 16


def _pool(entropy: list) -> np.ndarray:
    """SeedSequence's pool for ``entropy``, a list of uint32 words, each a
    1-d array of one value per row or a Python int for every row; one column
    per row.  Every hash takes the next constant, so the hashes into the
    pool words of one step are one array operation."""
    head, extra = entropy[:_POOL], entropy[_POOL:]
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * (_POOL + len(extra)))
    pool = np.zeros((_POOL, max(np.size(word) for word in head)), dtype=np.uint32)
    for i, word in enumerate(head):  # short entropy hashes 0s
        pool[i] = word
    pool = _hashed(pool, consts[:_POOL + 1])
    k = _POOL
    for src in range(_POOL):  # mix every word into every other word
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mixed(pool[dst], _hashed(pool[src], consts[k:k + _POOL]))
        k += _POOL - 1
    for word in extra:  # mix each remaining word into every pool word
        pool = _mixed(pool, _hashed(word, consts[k:k + _POOL + 1]))
        k += _POOL
    return pool


def _uint64_state(pool: np.ndarray, n_words: int) -> np.ndarray:
    """``generate_state(n_words, np.uint64)`` of each column of a pool, one
    row per column."""
    count = 2 * n_words
    state = _hashed(pool[np.arange(count) % _POOL], _hash_consts(_INIT_B, _MULT_B, count))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


def _trial_seeds(base_seed: int, start: int, stop: int) -> np.ndarray:
    """``trial_seed(base_seed, t)`` for t in ``start..stop-1``, as uint64.
    The indices must have the same number of uint32 words."""
    run = _uint32_words(int(base_seed))
    run += [0] * (_POOL - len(run))  # a spawned sequence pads its entropy
    t = np.arange(start, stop, dtype=np.uint64)
    spawn = [(t >> 32 * k & _MASK32).astype(np.uint32)
             for k in range(len(_uint32_words(stop - 1)))]
    return _uint64_state(_pool(run + spawn), 1)[:, 0]


def _pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each uint64 seed
    s: the words ``default_rng(s)`` seeds its PCG64 with, one row per seed.
    A seed below 2**32 is one word; its zero high word hashes as the pool's
    padding does, so one path serves both."""
    # registered here, not at import, so importing the explorer loads no
    # numpy.random: the first scan loads it, as default_rng did
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    lo = (seeds & _MASK32).astype(np.uint32)
    hi = (seeds >> 32).astype(np.uint32)
    return _uint64_state(_pool([lo, hi]), 4)


def _trial_words(base_seed: int, trials: int):
    """Yield ``(trial_seed(base_seed, t), words)`` for t in ``0..trials-1``,
    seeded ``_BLOCK`` trials per pass; ``words`` are the PCG64 seed words of
    ``default_rng`` of that seed."""
    for start in range(0, trials, _BLOCK):
        seeds = _trial_seeds(base_seed, start, min(start + _BLOCK, trials))
        yield from zip(seeds.tolist(), _pcg64_words(seeds))


class _SeedWords:
    """Precomputed PCG64 seed words, handed to ``PCG64`` as its seed
    sequence (``_pcg64_words`` registers the class as numpy's
    ``ISeedSequence``): ``Generator(PCG64(_SeedWords(w)))`` starts where
    ``default_rng(s)`` does when ``w`` is ``_pcg64_words`` of s."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds the 4 uint64 words a PCG64 asks for")
        return self.words


def _generator(words: np.ndarray) -> np.random.Generator:
    """The generator of a row of ``_pcg64_words``."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def _check_count(name: str, value) -> None:
    """Raise ``BadProfile`` unless ``value`` is a non-negative integer, a
    Python or numpy one."""
    if not isinstance(value, (int, np.integer)) or value < 0:
        raise BadProfile(f"{name} must be a non-negative integer, got {value!r}")


def _check_n(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_N:
        raise BadProfile(f"n must be an integer in 1..{MAX_N}, got {n!r}")


def _random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _rank_factored(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    if r == 0:
        return np.zeros((n, n), dtype=complex)
    return _random_complex(rng, n, r) @ _random_complex(rng, r, n)


def generate_pair(profile: str, n: int, rng: np.random.Generator) -> DCMatrix:
    """Draw a matrix pair according to a named construction profile.

    dense            both components dense Gaussian;
    ranks            components rank-deficient via factor products, with
                     ranks drawn independently (probes all rank cells);
    invertible       dense, redrawn until both components have full rank
                     by the library's rank rule (``rank_quadruple``), so
                     the accepted draw's analysis is in the memo;
    jordan           AB gets a prescribed random Jordan structure through
                     an invertible coupling B = A^-1 (P J P^-1);
    counterexample   embeds the diag(0,1) / nilpotent-shift structure
                     whose BA has no square root.
    """
    _check_n(n)
    if profile == "dense":
        return DCMatrix(_random_complex(rng, n, n), _random_complex(rng, n, n))
    if profile == "ranks":
        ra = int(rng.integers(0, n + 1))
        rb = int(rng.integers(0, n + 1))
        return DCMatrix(_rank_factored(rng, n, ra), _rank_factored(rng, n, rb))
    if profile == "invertible":
        while True:
            m = DCMatrix(_random_complex(rng, n, n), _random_complex(rng, n, n))
            if rank_quadruple(m)[:2] == (n, n):
                return m
    if profile == "jordan":
        sizes = []
        total = 0
        while total < n:
            size = int(rng.integers(1, min(2, n - total) + 1))
            sizes.append(size)
            total += size
        eig_pool = [0j, 1 + 0j, 2 + 0j, 1j, -1 + 0j]
        blocks = tuple(
            (eig_pool[int(rng.integers(0, len(eig_pool)))], s) for s in sizes
        )
        p = _random_complex(rng, n, n)
        target = p @ jordan_matrix(blocks) @ _inv(p)
        while True:
            a = _random_complex(rng, n, n)
            if rank(a) == n:
                break
        return DCMatrix(a, _solve(a, target))
    if profile == "counterexample":
        if n < 2:
            raise BadProfile("counterexample profile needs n >= 2")
        a = np.zeros((n, n), dtype=complex)
        b = np.zeros((n, n), dtype=complex)
        a[1, 1] = 1.0
        b[0, 1] = 1.0
        for i in range(2, n):
            a[i, i] = complex(rng.standard_normal()) + 1.5
            b[i, i] = complex(rng.standard_normal()) + 1.5
        return DCMatrix(a, b)
    raise BadProfile(f"unknown profile {profile!r}; choose from {PROFILES}")


def rank_condition_pair(
    n: int, rng: np.random.Generator, r: int | None = None
) -> DCMatrix:
    """Pair satisfying the pseudoinverse rank condition, by construction.

    Generic rank-r factor products satisfy rank(AB) = rank(BA) = r; the
    draw is verified and repeated on the measure-zero degenerate cases.
    ``r`` is in 0..n (r = 0 gives the zero pair), or None to draw it from
    1..n; n >= 1, with no upper bound.  Other values raise ``BadProfile``:
    no product of n x n factors has rank above n.
    """
    if n < 1 or not (r is None or 0 <= r <= n):
        raise BadProfile(f"need n >= 1 and r in 0..n or None, got n={n}, r={r}")
    while True:
        rr = int(rng.integers(1, n + 1)) if r is None else r
        m = DCMatrix(_rank_factored(rng, n, rr), _rank_factored(rng, n, rr))
        ok, ranks = pinv_exists(m)
        if ok and ranks[0] == rr:
            return m


def run_trial(
    seed: int,
    profile: str,
    n: int,
    tol: float = DEFAULT_TOL,
    cluster_gap: float = DEFAULT_CLUSTER_GAP,
) -> TrialRecord:
    """Run one reproducible trial: generate, test similarity, try the JSVD.
    ``seed`` is a non-negative integer, else ``BadProfile`` is raised."""
    _check_count("seed", seed)
    return _run_trial(np.random.default_rng(seed), seed, profile, n, tol, cluster_gap)


def _run_trial(
    rng: np.random.Generator,
    seed: int,
    profile: str,
    n: int,
    tol: float,
    cluster_gap: float,
) -> TrialRecord:
    """``run_trial`` on ``rng``, a generator in the state
    ``default_rng(seed)`` starts in.  The pair is read through the memo:
    an ``invertible`` draw was analysed by its redraw test."""
    pa = _analysis(generate_pair(profile, n, rng), tol, cluster_gap)
    sim = pa.ab_similar_ba()
    jsvd, report = _attempt_jordan_svd(pa)
    status = report.jsvd_status
    blocks = _blocks_as_json(jsvd.blocks) if jsvd is not None else None
    residual = jsvd.residual if jsvd is not None else None

    consistent = not (
        (status is JsvdStatus.EXISTS and not sim)
        or (status is JsvdStatus.NOT_EXISTS and sim)
    )
    return TrialRecord(
        seed=seed,
        n=n,
        construction_profile=profile,
        similar_ab_ba=sim,
        jsvd_status=status.value,
        pinv_exists=report.pinv_exists,
        j_blocks=blocks,
        residual=residual,
        consistent=consistent,
    )


def _check_scan_args(
    trials: int, profiles: tuple[str, ...], n_max: int, seed: int
) -> None:
    """Raise ``BadProfile`` unless ``conjecture_scan`` accepts these arguments."""
    _check_count("trials", trials)
    _check_count("seed", seed)
    if not profiles:
        raise BadProfile(f"no profile given; choose from {PROFILES}")
    for p in profiles:
        if p not in PROFILES:
            raise BadProfile(f"unknown profile {p!r}; choose from {PROFILES}")
    _check_n(n_max)


def conjecture_scan(
    trials: int,
    profiles: tuple[str, ...] = ("dense", "ranks"),
    n_max: int = 5,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    cluster_gap: float = DEFAULT_CLUSTER_GAP,
    sink=None,
) -> tuple[list[TrialRecord], ScanSummary]:
    """Scan random pairs for the existence conjecture.

    Each trial records whether AB is similar to BA next to the JSVD
    status; similarity is always decided, so the summary's ``errors``
    count stays 0.  ``sink``, if given, is called with each record as it
    is produced.
    Trial t draws from ``default_rng(trial_seed(seed, t))``: ``n`` is its
    first draw, and the pair is what ``run_trial`` of that seed, the
    profile and ``n`` draws.  The seeds and the generators' PCG64 seed
    words are computed a block of trials at a time, following
    ``SeedSequence``'s mixing, so no trial builds a ``SeedSequence``.
    Bad arguments raise ``BadProfile`` before the first trial.
    """
    _check_scan_args(trials, profiles, n_max, seed)
    records: list[TrialRecord] = []
    summary = ScanSummary()
    for t, (seed_t, words) in enumerate(_trial_words(seed, trials)):
        profile = profiles[t % len(profiles)]
        # n is the first draw of default_rng(seed_t), and the pair is drawn
        # by a second generator in the state run_trial(seed_t, ...) starts from
        n = int(_generator(words).integers(1, n_max + 1))
        if profile == "counterexample":
            n = max(n, 2)
        rec = _run_trial(_generator(words), seed_t, profile, n, tol, cluster_gap)
        records.append(rec)
        if sink is not None:
            sink(rec)
        summary.trials += 1
        key = ("similar" if rec.similar_ab_ba else "not_similar", rec.jsvd_status)
        summary.cells[key] = summary.cells.get(key, 0) + 1
        if rec.jsvd_status == "unknown":  # JsvdStatus.UNKNOWN.value
            summary.unknown_cells += 1
        if not rec.consistent:
            summary.consistent = False
            summary.candidate_counterexamples.append(rec.as_dict())
    return records, summary


@dataclass(frozen=True)
class UniquenessVerdict:
    verdict: str  # "stable_j" or "distinct_j"
    reference_blocks: list
    repetitions: int
    witnesses: list

    def as_dict(self) -> dict:
        return asdict(self)


def uniqueness_scan(
    m: DCMatrix,
    repetitions: int = 8,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    cluster_gap: float = DEFAULT_CLUSTER_GAP,
) -> UniquenessVerdict:
    """Probe uniqueness of the Jordan factor J for a fixed matrix.

    Reruns the construction under random unitary gauges
    m -> [X,X^-1] m [Y,Y^-1]* (which must not change J), and through
    the polar-decomposition round trip.  Verdict is ``stable_j``
    unless some repetition produced a different canonical block multiset,
    in which case every witness carries its replay seed.  Block lists are
    compared as ``similar`` compares them: eigenvalue groups match within
    cluster_gap * |m|, which scales with J as m does, and an eigenvalue
    of J within that distance of two groups of a repetition raises
    ``ClusterAmbiguity``.  ``repetitions`` and ``seed`` are non-negative
    integers, else ``BadProfile`` is raised.
    """
    _check_count("repetitions", repetitions)
    _check_count("seed", seed)
    base = jordan_svd(m, tol, cluster_gap=cluster_gap)
    match_tol = cluster_gap * m.norm_inf()
    witnesses = []

    def compare(rep: int, blocks, route: str, rep_seed: int):
        if not _same_structure(base.blocks, blocks, match_tol):
            witnesses.append(
                {
                    "repetition": rep,
                    "route": route,
                    "seed": rep_seed,
                    "blocks": _blocks_as_json(blocks),
                }
            )

    # polar round trip on the base matrix
    roundtrip = polar_to_jsvd(jsvd_to_polar(base), tol, cluster_gap=cluster_gap)
    compare(0, roundtrip.blocks, "polar_roundtrip", trial_seed(seed, 0))

    for rep in range(1, repetitions + 1):
        rep_seed = trial_seed(seed, rep)
        rng = np.random.default_rng(rep_seed)
        x = _well_conditioned(rng, m.n)
        y = _well_conditioned(rng, m.n)
        gauge = (
            DCMatrix(x, _inv(x))
            @ m
            @ DCMatrix(y, _inv(y)).star()
        )
        alt = jordan_svd(gauge, tol, cluster_gap=cluster_gap)
        compare(rep, alt.blocks, "unitary_gauge", rep_seed)

    verdict = "distinct_j" if witnesses else "stable_j"
    return UniquenessVerdict(
        verdict=verdict,
        reference_blocks=_blocks_as_json(base.blocks),
        repetitions=repetitions,
        witnesses=witnesses,
    )


def _well_conditioned(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        x = _random_complex(rng, n, n)
        sv = _svd(x, compute_uv=False)
        if sv[-1] > 1e-2 * sv[0]:
            return x
