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
    """Stable per-trial seed derived from the scan seed."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


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
    if n < 1 or n > MAX_N:
        raise BadProfile(f"n must be in 1..{MAX_N}, got {n}")
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
    """Run one reproducible trial: generate, test similarity, try the JSVD."""
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


def _check_scan_args(trials: int, profiles: tuple[str, ...], n_max: int) -> None:
    """Raise ``BadProfile`` unless ``conjecture_scan`` accepts these arguments."""
    if trials < 0:
        raise BadProfile(f"trials must be non-negative, got {trials}")
    if not profiles:
        raise BadProfile(f"no profile given; choose from {PROFILES}")
    for p in profiles:
        if p not in PROFILES:
            raise BadProfile(f"unknown profile {p!r}; choose from {PROFILES}")
    if n_max < 1 or n_max > MAX_N:
        raise BadProfile(f"n must be in 1..{MAX_N}, got {n_max}")


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
    Bad arguments raise ``BadProfile`` before the first trial.
    """
    _check_scan_args(trials, profiles, n_max)
    records: list[TrialRecord] = []
    summary = ScanSummary()
    for t in range(trials):
        profile = profiles[t % len(profiles)]
        seed_t = trial_seed(seed, t)
        # one generator per trial: n is its first draw, then it is put back
        # in its initial state, the one run_trial(seed_t, ...) starts from
        rng = np.random.default_rng(seed_t)
        start = rng.bit_generator.state
        n = int(rng.integers(1, n_max + 1))
        rng.bit_generator.state = start
        if profile == "counterexample":
            n = max(n, 2)
        rec = _run_trial(rng, seed_t, profile, n, tol, cluster_gap)
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
    ``ClusterAmbiguity``.
    """
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
