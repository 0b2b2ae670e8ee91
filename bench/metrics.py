"""Metric definitions: end-to-end figures from op latencies, per-layer
figures from spans.

Per-layer figures come in two kinds.  Counts (``calls``, ``unique_ratio``,
``fail``, ``count``, ``draws``, ``retries``, ``accept_ratio``) are taken
over the first ``window`` ops of a traced run; those ops and their inputs
are fixed by the seed, so the counts repeat exactly for the same code and
seed.  Times (``self_ms``) are per op over every traced op.  A layer that
a workload never reaches reads 0.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

# Names, units and directions of the metrics, in output order.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = SPEC["end_to_end"]
PER_LAYER = SPEC["per_layer"]

# Percentiles tried for op_tail_ms, highest first.  Each workload caps
# the list so that faster code, which completes more ops, keeps the same
# percentile; slower code steps down when fewer than ten samples remain
# beyond it.
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(ordered: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted values, and the samples beyond it."""
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(latencies: list[float], cap: float) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the op_tail_ms rule."""
    ordered = sorted(latencies)
    for p in TAIL_LADDER:
        value, beyond = percentile(ordered, p)
        if p <= cap and beyond >= TAIL_MIN_BEYOND:
            return value, p, beyond
    return ordered[-1], 100.0, 0


def end_to_end(ops: list[tuple[float, bool]], speed: float, setup_s: float,
               rss_mb: float, cap: float) -> tuple[dict, dict]:
    """End-to-end metric values and the facts reported next to them.

    ``ops`` are (latency in s, passed the gate) in run order.  ``speed``
    is the machine's speed during the ops relative to the reference speed
    (see ``run.reference_kernel``); ops_per_s, op_p50_ms and op_tail_ms
    are divided back to that speed, and their raw values are reported as
    facts.  Latency percentiles are over the ops that passed, or over all
    ops when none did (the run is then not correct anyway).
    """
    ok = [latency for latency, passed in ops if passed]
    passed = len(ok)
    ok = sorted(ok or [latency for latency, _ in ops])
    rate = passed / sum(latency for latency, _ in ops)
    p50 = percentile(ok, 50.0)[0] * 1e3
    tail_s, pct, beyond = tail(ok, cap)
    values = {
        "ops_per_s": rate / speed,
        "op_p50_ms": p50 * speed,
        "op_tail_ms": tail_s * 1e3 * speed,
        "ok_ratio": passed / len(ops),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    facts = {
        "speed": speed,
        "raw_ops_per_s": rate,
        "raw_op_p50_ms": p50,
        "raw_op_tail_ms": tail_s * 1e3,
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "latency_samples": len(ok),
        "fail_ratio": (len(ops) - passed) / len(ops),
        "fail_ratio_base": len(ops),
    }
    return values, facts


# Metrics that sum several span names; any other metric reads its own.
GROUPS = {
    "complex_linalg.subspace": (
        "complex_linalg.column_space",
        "complex_linalg.null_space",
    ),
    "lapack.inv_solve": ("lapack.inv", "lapack.solve"),
    "decompositions.hermitian_route": (
        "decompositions.hermitian_jsvd",
        "decompositions.polar_to_jsvd",
    ),
}

EXACT_KINDS = ("calls", "unique_ratio", "fail", "count")
EXACT_NAMES = ("orthonormal.draws", "orthonormal.retries", "orthonormal.accept_ratio")
EXACT = tuple(
    m["name"]
    for m in PER_LAYER
    if m["name"].rsplit(".", 1)[1] in EXACT_KINDS or m["name"] in EXACT_NAMES
)


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def per_layer(spans: list[list], ops: int, window: int, cli: dict) -> dict:
    """Per-layer metric values from the spans of ``ops`` traced ops.

    ``cli`` carries the CLI timings measured outside spans (import,
    reference processes, command time); in-process workloads pass zeros.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op, info in spans:
        if parent >= 0:
            child[parent] += end - start

    calls = defaultdict(int)
    self_s = defaultdict(float)
    fails = defaultdict(int)
    keys = defaultdict(set)
    draws = retries = ambiguities = 0
    for i, (name, start, end, parent, op, info) in enumerate(spans):
        own = end - start - child[i]
        names = [name, _layer(name)]
        if info and "path" in info:
            names.append(f"complex_linalg.jordan_{info['path']}")
        for key in names:
            self_s[key] += own
        if op >= window:
            continue
        for key in names:
            calls[key] += 1
        if not info:
            continue
        if "key" in info:
            keys[name].add((op, info["key"]))
        if "error" in info:
            fails[name] += 1
            if info["origin"]:
                fails[_layer(name)] += 1
                if info["error"] == "ClusterAmbiguity":
                    ambiguities += 1
        draws += info.get("draws", 0)
        retries += info.get("retries", 0)

    def group_sum(table, group):
        return sum(table[n] for n in GROUPS.get(group, (group,)))

    values = {}
    for metric in (m["name"] for m in PER_LAYER):
        group, kind = metric.rsplit(".", 1)
        if kind == "calls":
            values[metric] = group_sum(calls, group) / window
        elif kind == "self_ms":
            values[metric] = group_sum(self_s, group) / ops * 1e3
        elif kind == "unique_ratio":
            n = group_sum(calls, group)
            values[metric] = len(keys[group]) / n if n else 0.0
        elif kind == "fail":
            values[metric] = group_sum(fails, group) / window
    values["complex_linalg.cluster_ambiguity.count"] = ambiguities / window
    values["orthonormal.draws"] = draws / window
    values["orthonormal.retries"] = retries / window
    values["orthonormal.accept_ratio"] = (draws - retries) / draws if draws else 0.0
    values.update(cli)
    return values
