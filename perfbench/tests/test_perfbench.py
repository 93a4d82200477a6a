"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Each workload runs one or two passes in-process (``--seconds 0``), so the
whole file takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)


def bench(capsys, workload: str, seed: int, trace: int) -> tuple:
    """Run the benchmark in-process; return (exit code, result, stdout lines)."""
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


def digest(lines: list) -> str:
    (line,) = [x for x in lines if x.startswith("output sha256 ")]
    return line.split()[-1]


@pytest.fixture(scope="module")
def runs():
    """(workload, seed, trace, repeat) -> (exit code, result, lines)."""
    return {}


def cached(runs, capsys, workload, seed, trace, repeat=0):
    key = (workload, seed, trace, repeat)
    if key not in runs:
        runs[key] = bench(capsys, workload, seed, trace)
    return runs[key]


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == NAMES


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("seed", [1, 2])
def test_fail_ratio_is_zero(runs, capsys, workload, seed):
    code, result, _ = cached(runs, capsys, workload, seed, 0)
    assert code == 0 and result["correct"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_repeats_output_and_counts(runs, capsys, workload):
    _, untraced, plain_lines = cached(runs, capsys, workload, 1, 0)
    first = cached(runs, capsys, workload, 1, 1, 0)
    second = cached(runs, capsys, workload, 1, 1, 1)
    assert digest(first[2]) == digest(plain_lines) == digest(second[2])
    for code, result, _ in (first, second):
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.PER_LAYER)
    for name, unit in run.PER_LAYER.items():
        if unit in ("count", "bits"):
            assert first[1]["metrics"][name]["value"] == second[1]["metrics"][name]["value"], name


def test_trace_sees_the_layers_each_workload_exercises(runs, capsys):
    layers = {w: cached(runs, capsys, w, 1, 1)[1]["metrics"] for w in NAMES}
    assert layers["gin_principal"]["polyring.apply_linear_change.calls"]["value"] > 0
    assert layers["gin_principal"]["groebner.leading_terms.calls"]["value"] > 0
    assert layers["gin_principal"]["distraction.make_matrix.self_s"]["value"] == 0
    assert layers["gin_distraction"]["distraction.distract_ideal.terms_out"]["value"] > 0
    assert layers["elim_validate"]["gin.gin.calls"]["value"] == 0
    assert layers["elim_validate"]["groebner.reduced_gb.calls"]["value"] > 0
    assert layers["elim_validate"]["numeric.det.calls"]["value"] > 0
    assert all(layers["verify_all"]["checks.%s.s" % s]["value"] > 0 for s in ("main", "gindl", "counterexample"))
    for metrics in layers.values():
        assert 0.9 < metrics["trace.attributed_ratio"]["value"] <= 1.0


def test_layer_metrics_are_per_pass():
    import tracing

    wl = workloads.WORKLOADS["gin_principal"]
    inputs = wl.build(1)[:30]
    tracer = tracing.Tracer()
    passes = []
    for _ in range(2):
        first = len(tracer.spans)
        tracer.install([workloads])
        try:
            start = time.thread_time()
            wl.run_pass(inputs, tracer)
            wall = time.thread_time() - start
        finally:
            tracer.uninstall()
        tracer.finish_pass(first)
        passes.append((first, len(tracer.spans), wall))
    layers = [tracing.layer_metrics(tracer.spans, *p) for p in passes]
    assert workloads.gin is tracing.sys.modules["ginforge.gin"].gin
    for name, unit in run.PER_LAYER.items():
        if unit in ("count", "bits"):
            assert layers[0][name] == layers[1][name], name
    assert layers[0]["gin.gin.calls"] == 30
    assert all(0.9 < m["trace.attributed_ratio"] <= 1.0 for m in layers)


def test_reference_flanks_each_untraced_item():
    import tracing

    wl = workloads.WORKLOADS["gin_principal"]
    inputs = wl.build(1)[:10]
    outputs, latencies, speeds = wl.run_pass(inputs)
    assert len(outputs) == len(latencies) == len(speeds) == 10
    assert all(t > 0 for t in speeds)
    tracer = tracing.Tracer()
    tracer.install([workloads])
    try:
        assert wl.run_pass(inputs, tracer)[2] == []
    finally:
        tracer.uninstall()
    # halving the measured host speed doubles every scaled latency
    p = {"latencies": latencies, "speeds": speeds}
    slow = {"latencies": [2 * t for t in latencies], "speeds": [2 * t for t in speeds]}
    assert run.scaled(slow) == pytest.approx(run.scaled(p))


def test_verify_lines_exclude_the_reference_time():
    wl = workloads.WORKLOADS["verify_all"]
    start = time.thread_time()
    outputs, latencies, speeds = wl.run_pass(wl.build(1)[:1])
    elapsed = time.thread_time() - start
    assert len(outputs) == len(latencies) == len(speeds) == 20
    assert all(t > 0 for t in latencies)
    # each reference sample flanks at most two lines, so the speeds sum to at
    # most the reference time, which the latencies must leave out
    assert sum(latencies) + sum(speeds) <= elapsed


def test_planted_wrong_gin_is_caught(capsys, monkeypatch):
    real_gin = workloads.gin

    def wrong_gin(*args, **kwargs):
        result = real_gin(*args, **kwargs)
        ideal = workloads.MonomialIdeal(result.ideal.n, result.ideal.gens[:-1])
        return type(result)(ideal, result.trials_used, result.agreed, result.seeds)

    monkeypatch.setattr(workloads, "gin", wrong_gin)
    code, result, lines = bench(capsys, "gin_distraction", 1, 0)
    assert code == 1 and not result["correct"]
    assert result["failed"] > 0
    assert any(line.startswith("fail_ratio ") and not line.startswith("fail_ratio 0.0000") for line in lines)


@pytest.mark.parametrize("workload", NAMES)
def test_oracle_rejects_a_changed_output(workload):
    wl = workloads.WORKLOADS[workload]
    inputs = wl.build(1)
    outputs, _, _ = wl.run_pass(inputs)
    assert all(wl.check(inputs, outputs, 1))
    if workload == "verify_all":
        bad = outputs[0].replace('"status": "pass"', '"status": "fail"')
    else:
        k = max(i for i, ch in enumerate(outputs[0]) if ch.isdigit())
        bad = outputs[0][:k] + ("2" if outputs[0][k] == "1" else "1") + outputs[0][k + 1 :]
    assert bad != outputs[0]
    assert not wl.check(inputs, [bad] + outputs[1:], 1)[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
