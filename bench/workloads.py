"""The four workloads, each a closed loop with one caller.

Every workload makes its inputs from the seed, runs ops one after the
other, and checks every output with ``gate`` before counting it.  An op
is one explorer trial (``scan_*``), one corpus pair (``factor_corpus``)
or one CLI command in a fresh interpreter (``cli_cold``).

``run_ops(inputs, first_op, tracer)`` runs the next op or ops and returns
one ``Op`` per op.  Gate checks run after the timed region and, when a
tracer is given, with it paused.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from tessarine import decompositions, explorer, pairfile  # noqa: E402
from tessarine.errors import ClusterAmbiguity  # noqa: E402

import gate  # noqa: E402

N_MAX = 5


@dataclass
class Op:
    latency_s: float
    misses: list[str] = field(default_factory=list)
    refused: bool = False  # a documented refusal the gate accepts
    child: dict | None = None  # what a traced CLI child reported


def _seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


class Scan:
    """``conjecture_scan`` over fixed profiles, ``n`` drawn from 1..N_MAX.

    Each scan call runs ``CHUNK`` trials (a multiple of 2 and 3, so every
    profile gets the same share); a trial's latency runs from the previous
    trial's record, or the call's start, to its own record.
    """

    CHUNK = 60
    window = 300
    tail_cap = 95.0
    in_process = True

    def __init__(self, name: str, profiles: tuple[str, ...]):
        self.name = name
        self.profiles = profiles

    def sizes(self) -> dict:
        return {"profiles": list(self.profiles), "n": [1, N_MAX],
                "trials_per_scan_call": self.CHUNK}

    def prepare(self, seed: int) -> int:
        return seed

    def run_ops(self, seed: int, first_op: int, tracer=None) -> list[Op]:
        stamps: list[float] = []

        def sink(rec):
            stamps.append(time.perf_counter())
            if tracer is not None:
                tracer.next_op(first_op + len(stamps))

        if tracer is not None:
            tracer.next_op(first_op)
        error = None
        start = time.perf_counter()
        try:
            records, summary = explorer.conjecture_scan(
                trials=self.CHUNK,
                profiles=self.profiles,
                n_max=N_MAX,
                seed=_seed(seed, first_op),
                sink=sink,
            )
        except Exception as ex:  # one failed trial; the loop goes on
            stamps.append(time.perf_counter())
            error = f"raised {type(ex).__name__}: {ex}"
        ops = [Op(t - s) for s, t in zip([start] + stamps, stamps)]
        if error is not None:
            ops[-1].misses.append(error)
            return ops
        with _paused(tracer):
            pairs = [
                explorer.generate_pair(
                    r.construction_profile, r.n, np.random.default_rng(r.seed)
                )
                for r in records
            ]
            misses, chunk_misses, refused = gate.scan(records, summary, pairs)
        for op, miss, r in zip(ops, misses, refused):
            op.misses.extend(miss)
            op.refused = r
        ops[-1].misses.extend(chunk_misses)
        return ops


class FactorCorpus:
    """Pre-generated rank-condition pairs, sizes in a fixed round-robin.

    Each op builds and verifies the pseudoinverse both ways, the polar
    decomposition and the polar round trip on one pair.  The corpus holds
    ``PER_SIZE`` pairs of each size and is reused from the start if a run
    gets through all of them.
    """

    name = "factor_corpus"
    SIZES = (2, 4, 6, 8, 16)
    PER_SIZE = 500
    window = 50
    tail_cap = 95.0
    in_process = True

    def sizes(self) -> dict:
        return {"n": list(self.SIZES), "rank": "uniform in 1..n",
                "pairs": self.PER_SIZE * len(self.SIZES)}

    def prepare(self, seed: int) -> list:
        rngs = [np.random.default_rng(_seed(seed, n)) for n in self.SIZES]
        return [
            explorer.rank_condition_pair(n, rng)
            for _ in range(self.PER_SIZE)
            for n, rng in zip(self.SIZES, rngs)
        ]

    def run_ops(self, pairs: list, first_op: int, tracer=None) -> list[Op]:
        m = pairs[first_op % len(pairs)]
        if tracer is not None:
            tracer.next_op(first_op)
        start = time.perf_counter()
        try:
            k1 = decompositions.pinv(m, rng=np.random.default_rng(first_op))
            k2 = decompositions.pinv_via_diagrams(m)
            axioms = decompositions.penrose_check(
                m, k2, decompositions.DEFAULT_RECON_TOL
            )
            pd = decompositions.polar(m, rng=np.random.default_rng(first_op))
            rt = decompositions.polar_to_jsvd(pd)
        except Exception as ex:  # a failed op; the loop goes on
            op = Op(time.perf_counter() - start)
            with _paused(tracer):
                refused = isinstance(ex, ClusterAmbiguity) and gate.near_ambiguous(m)
            if refused:  # documented refusal, see gate.justified_refusal
                op.refused = True
            else:
                op.misses.append(f"raised {type(ex).__name__}: {ex}")
            return [op]
        op = Op(time.perf_counter() - start)
        with _paused(tracer):
            if not all(axioms):
                op.misses.append(f"penrose_check rejected pinv_via_diagrams: {axioms}")
            op.misses.extend(gate.factorization(m, k1, k2, pd, rt))
        return [op]


class CliCold:
    """One ``tessarine`` CLI command per op, each in a fresh interpreter.

    Commands cycle through ``COMMANDS`` on each of the pair files in turn.
    The pairs have invertible components, so every command succeeds.
    Traced ops run ``cli_child.py`` instead, which records spans.
    """

    name = "cli_cold"
    COMMANDS = ("check", "jsvd", "pinv", "svd", "polar")
    FILE_SIZES = (2, 4, 6)
    window = 15
    tail_cap = 50.0
    in_process = False
    TIMEOUT_S = 120

    def sizes(self) -> dict:
        return {"commands": list(self.COMMANDS), "n": list(self.FILE_SIZES),
                "profile": "invertible"}

    def prepare(self, seed: int) -> list:
        directory = OUT / f"cli-pairs-{seed}"
        directory.mkdir(parents=True, exist_ok=True)
        files = []
        for n in self.FILE_SIZES:
            m = explorer.generate_pair(
                "invertible", n, np.random.default_rng(_seed(seed, n))
            )
            path = directory / f"pair-n{n}.json"
            pairfile.save_pair(path, m)
            files.append((path, m))
        return files

    def run_ops(self, files: list, first_op: int, tracer=None) -> list[Op]:
        cmd = self.COMMANDS[first_op % len(self.COMMANDS)]
        path, m = files[(first_op // len(self.COMMANDS)) % len(files)]
        spans_path = OUT / f"child-spans-{os.getpid()}.json"
        if tracer is None:
            argv = [sys.executable, "-m", "tessarine.cli", cmd, str(path)]
        else:
            argv = [sys.executable, str(BENCH / "cli_child.py"), str(spans_path),
                    cmd, str(path)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                                  capture_output=True, text=True,
                                  timeout=self.TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return [Op(time.perf_counter() - start, [f"{cmd} timed out"])]
        op = Op(time.perf_counter() - start)
        op.misses.extend(gate.cli(cmd, proc.returncode, proc.stdout, m))
        if tracer is not None:
            try:
                with open(spans_path, encoding="utf-8") as fh:
                    child = json.load(fh)
                spans_path.unlink()
            except (OSError, ValueError) as ex:
                op.misses.append(f"no spans from traced child: {ex}")
            else:
                tracer.merge(child["spans"], first_op)
                op.child = child
        return [op]


def child_env() -> dict:
    """Environment for child interpreters: tessarine from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("TESSARINE_SEED", None)
    return env


def _paused(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


WORKLOADS = {
    "scan_generic": Scan("scan_generic", ("dense", "invertible")),
    "scan_clustered": Scan("scan_clustered", ("jordan", "counterexample", "ranks")),
    "factor_corpus": FactorCorpus(),
    "cli_cold": CliCold(),
}
