"""Tests of the benchmark itself: ``python -m pytest bench``.

They run every workload at a tiny size, compare the printed metric and
workload names with BENCHMARK.json, and inject faults that the output
gate must reject.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gate
import run
import workloads
from tessarine import decompositions, explorer, pairfile
from tessarine.dcmatrix import DCMatrix
from tessarine.errors import ClusterAmbiguity

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Small corpus and count windows, so each workload runs in seconds."""
    monkeypatch.setattr(workloads.FactorCorpus, "PER_SIZE", 2)
    for name in ("scan_generic", "scan_clustered"):
        monkeypatch.setattr(workloads.WORKLOADS[name], "window", 60)
    monkeypatch.setattr(workloads.WORKLOADS["factor_corpus"], "window", 5)
    monkeypatch.setattr(workloads.WORKLOADS["cli_cold"], "window", 2)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "FLOOR_PROBES", 1)
    monkeypatch.setattr(run, "SCIPY_PROBES", 1)


def _run(capsys, workload: str, trace: int, seed: int = 11) -> dict:
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.3", "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(tiny, capsys, workload, trace):
    result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if trace:
        return
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


def test_traced_structure(tiny, capsys):
    generic = _run(capsys, "scan_generic", 1)["metrics"]
    assert generic["complex_linalg.jordan_decomposition.calls"]["value"] == 5.0
    assert generic["complex_linalg.jordan_clustered.calls"]["value"] == 0.0
    clustered = _run(capsys, "scan_clustered", 1)["metrics"]
    assert (clustered["complex_linalg.jordan_clustered.calls"]["value"]
            > clustered["complex_linalg.jordan_generic.calls"]["value"])
    assert clustered["lapack.schur.calls"]["value"] > 0


def test_exact_counts_repeat(tiny, capsys):
    first = _run(capsys, "factor_corpus", 1, seed=12)
    second = _run(capsys, "factor_corpus", 1, seed=12)
    assert second["correct"] is True
    import metrics

    for name in metrics.EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def test_tracer_reaches_from_imports_and_uninstalls():
    from tracer import Tracer

    original = decompositions.jordan_decomposition
    tracer = Tracer()
    tracer.install()
    try:
        assert decompositions.jordan_decomposition is not original
        decompositions.jordan_svd(explorer.rank_condition_pair(3, np.random.default_rng(0)))
    finally:
        tracer.uninstall()
    assert decompositions.jordan_decomposition is original
    names = {span[0] for span in tracer.spans}
    assert {"decompositions.jordan_svd", "complex_linalg.jordan_decomposition",
            "lapack.eig", "dcmatrix.matmul"} <= names


def _factor(n: int = 4, seed: int = 3):
    m = explorer.rank_condition_pair(n, np.random.default_rng(seed))
    k1 = decompositions.pinv(m, rng=np.random.default_rng(0))
    k2 = decompositions.pinv_via_diagrams(m)
    pd = decompositions.polar(m, rng=np.random.default_rng(0))
    return m, k1, k2, pd, decompositions.polar_to_jsvd(pd)


def test_gate_rejects_perturbed_pinv():
    m, k1, k2, pd, rt = _factor()
    assert gate.factorization(m, k1, k2, pd, rt) == []
    c = np.array(k1.a)
    c[0, 0] += 1e-4 * np.abs(c).max()
    misses = gate.factorization(m, DCMatrix(c, k1.b), k2, pd, rt)
    assert any(miss.startswith("pinv ") for miss in misses)
    assert any("vs pinv_via_diagrams" in miss for miss in misses)


@pytest.mark.parametrize("field, value", [("jsvd_status", "unknown"),
                                          ("similar_ab_ba", None)])
def test_gate_rejects_a_changed_decision(field, value):
    records, summary = explorer.conjecture_scan(
        trials=12, profiles=("jordan", "counterexample", "ranks"), seed=4
    )
    pairs = [explorer.generate_pair(r.construction_profile, r.n,
                                    np.random.default_rng(r.seed)) for r in records]
    assert gate.scan(records, summary, pairs) == ([[]] * 12, [], [False] * 12)
    i = next(i for i, r in enumerate(records) if getattr(r, field) != value)
    old = records[i]
    records[i] = dataclasses.replace(old, **{field: value})
    key = (gate.SIMILARITY_LABELS[old.similar_ab_ba], old.jsvd_status)
    new = (gate.SIMILARITY_LABELS[records[i].similar_ab_ba], records[i].jsvd_status)
    summary.cells[key] -= 1  # the summary follows the changed record
    summary.cells[new] = summary.cells.get(new, 0) + 1
    per_trial, whole, refused = gate.scan(records, summary, pairs)
    assert not any(refused)
    assert [bool(m) for m in per_trial] == [j == i for j in range(12)]
    assert "derived" in per_trial[i][0]
    assert whole and "summary cells" in whole[0]


def test_gate_accepts_a_refusal_in_the_ambiguity_band():
    """AB and BA have two eigenvalues 1.6e-5 apart, inside the band where
    the library refuses to cluster; BA has a size-2 nilpotent block."""
    seed, n = 2562788860415502239, 4
    rec = explorer.run_trial(seed, "counterexample", n)
    m = explorer.generate_pair("counterexample", n, np.random.default_rng(seed))
    assert (rec.similar_ab_ba, rec.jsvd_status) == (None, "unknown")
    assert gate.decide(m) == (False, "not_exists", False)
    summary = explorer.ScanSummary(trials=1, cells={("ambiguous", "unknown"): 1})
    assert gate.scan([rec], summary, [m]) == ([[]], [], [True])
    # the same refusal on a pair with well separated eigenvalues is a miss
    clear = explorer.generate_pair("counterexample", n, np.random.default_rng(1))
    assert not gate.near_ambiguous(clear)
    per_trial, _, refused = gate.scan([rec], summary, [clear])
    assert per_trial[0] and refused == [False]


def test_factor_corpus_accepts_a_refusal_in_the_ambiguity_band(monkeypatch):
    """Pair 629 of seed 911648020 (n = 16): two eigenvalues of BA lie
    8e-6 of its largest entry apart, and pinv refuses to cluster them."""
    monkeypatch.setattr(workloads.FactorCorpus, "PER_SIZE", 126)
    wl = workloads.WORKLOADS["factor_corpus"]
    pairs = wl.prepare(911648020)
    [op] = wl.run_ops(pairs, 629)
    assert op.refused and not op.misses
    # the same refusal on a pair with well separated eigenvalues is a miss
    def refuse(*args, **kwargs):
        raise ClusterAmbiguity("injected")

    monkeypatch.setattr(decompositions, "pinv", refuse)
    [op] = wl.run_ops(pairs, 0)
    assert not op.refused and op.misses == ["raised ClusterAmbiguity: injected"]


def test_gate_derives_the_counterexample():
    """diag(0, 1) with the nilpotent shift: BA has no square root."""
    a = np.diag([0.0, 1.0]) + 0j
    b = np.array([[0, 1], [0, 0]], dtype=complex)
    assert gate.decide(DCMatrix(a, b)) == (False, "not_exists", False)
    assert gate.nilpotent_sizes(gate.nullities(b @ a)) == [2]
    assert gate.nilpotent_sizes(gate.nullities(a @ b)) == [1, 1]  # AB = 0


def test_gate_rejects_cli_exit_code_4(tmp_path):
    rng = np.random.default_rng(1)
    b = rng.standard_normal((3, 3)) + 0j
    m = DCMatrix(np.diag([1.0, 2.0, 0.0]) + 0j, b)  # svd needs A invertible
    path = tmp_path / "pair.json"
    pairfile.save_pair(path, m)
    proc = subprocess.run([sys.executable, "-m", "tessarine.cli", "svd", str(path)],
                          env=workloads.child_env(), capture_output=True, text=True)
    assert proc.returncode == 4
    assert gate.cli("svd", proc.returncode, proc.stdout, m) == ["svd: exit code 4"]


def test_wrong_answers_count_as_failures(tiny, capsys, monkeypatch):
    real = decompositions.pinv

    def off_by_a_little(m, *args, **kwargs):
        k = real(m, *args, **kwargs)
        return DCMatrix(k.a * (1 + 1e-4), k.b)

    monkeypatch.setattr(decompositions, "pinv", off_by_a_little)
    result = _run(capsys, "factor_corpus", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_ratio"]["value"] == 0.0


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan_generic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
