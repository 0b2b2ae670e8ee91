"""tessarine benchmark.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``scan_generic``,
``scan_clustered``, ``factor_corpus``, ``cli_cold``.

``--trace 0`` measures the end-to-end metrics with tracing off: a closed
loop of ops for S seconds, plus the set-up time as the median of several
set-ups.  ``--trace 1`` gives the per-layer metrics: S/2 seconds of traced
ops (at least the workload's count window), then S/2 seconds untraced for
the tracing overhead.

Output: a readable table, one JSON line with the details (run record,
tail percentile, fail ratio and its base, failures by op), and as the last
line the result object ``{"correct", "attempted", "failed", "metrics"}``.
Both JSON lines are also written to ``bench/.out/``.  The exit code is 0
when a result was printed, 2 when the checkout has no tessarine sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"

SETUP_PROBES = 5  # fresh-interpreter set-ups per end-to-end run
FLOOR_PROBES = 5
SCIPY_PROBES = 3
HARD_LIMIT_S = 120.0  # a segment stops here even short of its count window
MAX_LISTED_FAILURES = 50


def _printed(argv: list[str], env: dict) -> float:
    """The number a child process prints last."""
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


# ``import scipy.linalg`` (and with it numpy) timed in a fresh interpreter
IMPORT_REF_ARGV = [
    sys.executable, "-c",
    "import time; t = time.perf_counter(); import scipy.linalg; "
    "print(time.perf_counter() - t)",
]


def measure_setup(wl, seed: int) -> tuple[float, float]:
    """Set-up time at the reference speed, and as measured.

    Each of SETUP_PROBES set-ups runs in a fresh interpreter and is
    followed by the import reference (see the speed adjustment below);
    both values are medians over the probes.
    """
    import workloads

    env = workloads.child_env()
    argv = [sys.executable, str(BENCH / "setup_probe.py"), wl.name, str(seed)]
    raw, adjusted = [], []
    for _ in range(SETUP_PROBES):
        setup = _printed(argv, env)
        raw.append(setup)
        adjusted.append(setup * REF_IMPORT_NOMINAL_S / _printed(IMPORT_REF_ARGV, env))
    return statistics.median(adjusted), statistics.median(raw)


# How fast the shared host runs drifts by a quarter or more between runs
# a minute apart.  A fixed reference, timed between ops, follows it, and
# dividing it out keeps the timing metrics steady.  In process the
# reference is a kernel of interpreter work and small LAPACK calls, as in
# tessarine; for ops in child processes it is a bare interpreter start,
# since a kernel timed in the parent between two children does not follow
# the children's speed.  Set-up, mostly imports, is referred to a fresh
# ``import scipy.linalg``.  None of them uses tessarine, so a change to
# tessarine moves the adjusted metrics in full.
REF_EVERY_S = 0.1  # of op time between two reference runs
# reference times on the host where the benchmark was defined
REF_KERNEL_NOMINAL_S = 1 / 230.0
REF_CHILD_NOMINAL_S = 0.080
REF_IMPORT_NOMINAL_S = 0.40


def reference_kernel() -> float:
    """Run the fixed reference computation once; return its time in s."""
    import numpy as np

    a = np.arange(16, dtype=complex).reshape(4, 4) ** 0.5 + np.eye(4) * 1j
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    for _ in range(40):
        np.linalg.eig(a)
        np.linalg.svd(a)
        np.linalg.inv(a)
        a @ a
    return time.perf_counter() - start


def reference_child() -> float:
    """Start a bare interpreter (``python -c pass``); return the wall time in s."""
    import workloads

    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=workloads.child_env(),
                   capture_output=True, timeout=60, check=True)
    return time.perf_counter() - start


class Segment:
    """Ops run back to back for a while, with the reference timed between."""

    def __init__(self, wl, inputs, first_op: int, seconds: float, min_ops: int,
                 tracer=None):
        if wl.in_process:
            reference, nominal = reference_kernel, REF_KERNEL_NOMINAL_S
        else:
            reference, nominal = reference_child, REF_CHILD_NOMINAL_S
        self.ops = []
        ref_times = [reference()]
        since_ref = 0.0
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(self.ops) >= min_ops and elapsed >= seconds:
                break
            if elapsed >= HARD_LIMIT_S:
                break
            new = wl.run_ops(inputs, first_op + len(self.ops), tracer)
            self.ops.extend(new)
            since_ref += sum(op.latency_s for op in new)
            if since_ref >= REF_EVERY_S:
                ref_times.append(reference())
                since_ref = 0.0
        # > 1 when the host runs faster than on the defining host
        self.speed = nominal * len(ref_times) / sum(ref_times)

    def timeline(self) -> list[tuple[float, bool]]:
        return [(op.latency_s, not op.misses) for op in self.ops]

    def rate(self) -> float:
        """Passing ops per second of op time, at the reference speed."""
        passed = sum(1 for op in self.ops if not op.misses)
        return passed / sum(op.latency_s for op in self.ops) / self.speed


def untraced(wl, inputs, seed: int, seconds: float):
    import metrics

    seg = Segment(wl, inputs, 0, seconds, 1)
    # read before the set-up probes, which are child processes too
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setup_s, raw_setup_s = measure_setup(wl, seed)
    values, facts = metrics.end_to_end(seg.timeline(), seg.speed, setup_s, rss_mb,
                                       wl.tail_cap)
    facts["raw_setup_s"] = raw_setup_s
    return seg.ops, values, facts, []


def _cli_measured(wl, traced_ops) -> dict:
    import workloads

    if wl.in_process:
        return {"cli.import_ms": 0.0, "cli.import_scipy_linalg_ms": 0.0,
                "cli.python_floor_ms": 0.0, "cli.command_ms": 0.0}
    floor = statistics.median(reference_child() for _ in range(FLOOR_PROBES)) * 1e3
    env = workloads.child_env()
    scipy_ms = statistics.median(
        _printed(IMPORT_REF_ARGV, env) for _ in range(SCIPY_PROBES)
    ) * 1e3
    imports, commands = [], []
    for op in traced_ops:
        if op.child is None:
            continue
        imports.append(op.child["import_ms"])
        spans = op.child["spans"]
        main = sum(e - s for name, s, e, *_ in spans if name == "cli.main")
        load = sum(e - s for name, s, e, *_ in spans if name == "pairfile.load_pair")
        commands.append((main - load) * 1e3)
    return {
        "cli.import_ms": statistics.median(imports) if imports else 0.0,
        "cli.import_scipy_linalg_ms": scipy_ms,
        "cli.python_floor_ms": floor,
        "cli.command_ms": statistics.median(commands) if commands else 0.0,
    }


def traced(wl, inputs, seed: int, seconds: float):
    import metrics
    from tracer import Tracer

    tracer = Tracer()
    run_misses = []
    if wl.in_process:
        import scipy.linalg  # noqa: F401  (so that schur is wrapped if loaded lazily)

        tracer.install()
    try:
        traced_seg = Segment(wl, inputs, 0, seconds / 2, wl.window, tracer)
    finally:
        tracer.uninstall()
    t_ops = traced_seg.ops
    untraced_seg = Segment(wl, inputs, len(t_ops), seconds / 2, 1)
    if len(t_ops) < wl.window:
        run_misses.append(f"traced ops {len(t_ops)} short of the count window {wl.window}")
    measured = _cli_measured(wl, t_ops)
    traced_rate, untraced_rate = traced_seg.rate(), untraced_seg.rate()
    measured["trace.ops_per_s"] = traced_rate
    measured["trace.untraced_ops_per_s"] = untraced_rate
    measured["trace.overhead"] = untraced_rate / traced_rate if traced_rate else 0.0
    values = metrics.per_layer(tracer.spans, len(t_ops), wl.window, measured)
    tracer.write(OUT / f"spans-{wl.name}.json", {"window": wl.window, "ops": len(t_ops)})
    run_misses += check_exact(wl, seed, values)
    facts = {"traced_ops": len(t_ops), "untraced_ops": len(untraced_seg.ops),
             "count_window_ops": wl.window, "spans": len(tracer.spans),
             "speed_traced": traced_seg.speed, "speed_untraced": untraced_seg.speed}
    return t_ops + untraced_seg.ops, values, facts, run_misses


def code_digest() -> str:
    """sha256 over the tessarine sources and the benchmark's own files."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_exact(wl, seed: int, values: dict) -> list[str]:
    """Exact counts must repeat for the same code and seed.

    The first traced run of a (workload, count window, seed, code) stores
    its counts in ``bench/.out``; every later one is compared against them.
    """
    import metrics

    counts = {k: values[k] for k in metrics.EXACT}
    path = OUT / f"counts-{wl.name}-w{wl.window}-{seed}-{code_digest()[:16]}.json"
    if not path.exists():
        path.write_text(json.dumps(counts, sort_keys=True))
        return []
    earlier = json.loads(path.read_text())
    differ = sorted(k for k in counts if earlier.get(k) != counts[k])
    if differ:
        return [f"exact counts differ from an earlier run of this code and seed: {differ}"]
    return []


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import ctypes
    import numpy

    info = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    threads = None
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    info["threads"] = threads
    return info


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "code_sha256": code_digest(),
        "seed": seed,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tessarine" / "__init__.py").is_file():
        print(f"no tessarine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import metrics
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    inputs = wl.prepare(args.seed)
    measure = traced if args.trace else untraced
    ops, values, facts, run_misses = measure(wl, inputs, args.seed, args.seconds)

    table = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    failures = [{"op": i, "misses": op.misses} for i, op in enumerate(ops) if op.misses]
    result = {
        "correct": not failures and not run_misses,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in table},
    }
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": wl.sizes(),
        "record": run_record(args.seed),
        "facts": facts,
        "exact": list(metrics.EXACT) if args.trace else [],
        "run_misses": run_misses,
        "refusals": {"count": sum(op.refused for op in ops), "base": len(ops)},
        "failures_total": len(failures),
        "failures": failures[:MAX_LISTED_FAILURES],
    }
    print(f"# {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for m in table:
        print(f"{m['name']:46s} {values[m['name']]:>14.6g} {m['unit']}")
    for key, value in facts.items():
        print(f"  {key}: {value}")
    for miss in run_misses + [f"op {f['op']}: {m}" for f in failures[:10] for m in f["misses"]]:
        print(f"  MISS {miss}")
    stem = f"result-{wl.name}-{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"detail": detail, "result": result}))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
