"""The ginforge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, one thread, one item at a time (a closed
loop with a single caller).  Passes over the workload's seeded inputs repeat
until ``--seconds`` have been measured; each pass builds fresh kernel
objects.  Every output is checked exactly after the timed region.

Times are CPU time of the thread that does the work, scaled to a nominal
host speed.  The kernel is synchronous, single-threaded and does no I/O, so
its wall time is that CPU time plus time it was kept off a core; on a shared
host other tenants also slow the instructions themselves, by up to a factor
of two, in bursts and in phases that can cover a whole run.  Before and
after each item the run times a fixed reference computation
(``reference.py``), and each item's latency is multiplied by
``reference.NOMINAL_S`` over the mean of those two samples.
``items_per_s`` is the number of items over the median of the passes'
scaled totals; ``item_p50_ms`` and ``item_p90_ms`` are percentiles over the
items of each item's median scaled latency over the passes.  ``setup_s`` is
the median over fresh processes, one started after each of the first nine
passes, of the CPU time each spends from its start through ``import
ginforge`` and input generation, scaled by the reference samples that
process takes before the import and after the inputs are built.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and the JSON object holds the per-layer metrics read from the traced passes.
The spans are written to ``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import reference
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS = os.path.join(HERE, "results")

# Fresh processes timed for ``setup_s``, one after each of the first passes,
# and the reference samples each takes to scale its time.
SETUPS = 9
SETUP_REFERENCES = 20

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "polyring.apply_linear_change.calls": "count",
    "polyring.apply_linear_change.self_s": "s",
    "polyring.apply_linear_change.terms_out": "count",
    "polyring.apply_linear_change.coeff_bits_max": "bits",
    "polyring.substitute_variable.calls": "count",
    "polyring.substitute_variable.self_s": "s",
    "groebner.leading_terms.calls": "count",
    "groebner.leading_terms.self_s": "s",
    "groebner.leading_terms.gens_out": "count",
    "groebner.reduced_gb.calls": "count",
    "groebner.reduced_gb.self_s": "s",
    "groebner.reduced_gb.gens_out": "count",
    "groebner.reduced_gb.coeff_bits_max": "bits",
    "groebner.saturate.self_s": "s",
    "groebner.intersect.self_s": "s",
    "numeric.det.calls": "count",
    "numeric.det.self_s": "s",
    "distraction.make_matrix.self_s": "s",
    "distraction.is_sufficiently_generic.self_s": "s",
    "distraction.distract_ideal.self_s": "s",
    "distraction.distract_ideal.terms_out": "count",
    "distraction.is_radical_for.self_s": "s",
    "gin.gin.calls": "count",
    "gin.gin.self_s": "s",
    "gin.gin.trials": "count",
    "gin.agreed_ratio": "ratio",
    "monomial.closure.self_s": "s",
    "monomial.hilbert.self_s": "s",
    "monomial.stability_flags.self_s": "s",
    "points.points_from_ideal.self_s": "s",
    "points.verify_points.self_s": "s",
    "checks.main.s": "s",
    "checks.gindl.s": "s",
    "checks.hyperplane.s": "s",
    "checks.sumprinc.s": "s",
    "checks.counterexample.s": "s",
    "checks.gcd.s": "s",
    "checks.radical.s": "s",
    "checks.points.s": "s",
    "checks.inconclusive_ratio": "ratio",
    "cli.main.self_s": "s",
    "trace.attributed_ratio": "ratio",
    "trace_overhead_ratio": "ratio",
}


def load_workloads():
    """Import the benchmark's workloads against the kernel in ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "ginforge", "__init__.py")):
        sys.exit("error: the ginforge sources are not at %s" % SRC)
    sys.path.insert(0, SRC)
    import workloads

    return workloads


def time_setup(workload: str, seed: int) -> float:
    """Scaled CPU seconds a fresh process spends from its start through
    ``import ginforge`` and input generation, as the process reports them
    with the mean of the reference samples it takes around them."""
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-only"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = child.stdout.readline().split()
        child.stdout.read()
    finally:
        child.stdout.close()
        code = child.wait(timeout=120)
    if len(line) != 3 or line[0] != "ready" or code != 0:
        sys.exit("error: set-up of %s failed (exit %s)" % (workload, code))
    return float(line[1]) * reference.NOMINAL_S / float(line[2])


def run_passes(wl, inputs, seconds: float, tracer, callers, between) -> list:
    """Passes until ``seconds`` have elapsed, calling ``between()`` after each.
    With a tracer, untraced and traced passes alternate and there is at least
    one of each."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        first = len(tracer.spans) if traced else 0
        gc.collect()
        if traced:
            tracer.install(callers)
        start = time.thread_time()
        try:
            outputs, latencies, speeds = wl.run_pass(inputs, tracer if traced else None)
        finally:
            cpu = time.thread_time() - start
            if traced:
                tracer.uninstall()
        if traced:
            tracer.finish_pass(first)
        last = len(tracer.spans) if traced else 0
        passes.append(
            {
                "traced": traced,
                "cpu": cpu,
                "outputs": outputs,
                "latencies": latencies,
                "speeds": speeds,
                "spans": (first, last),
            }
        )
        between()
        if time.perf_counter() >= deadline and (tracer is None or len(passes) >= 2):
            return passes


def best(passes: list) -> list:
    """Each item's fastest CPU time over the passes."""
    return [min(column) for column in zip(*(p["latencies"] for p in passes))]


def scaled(p: dict) -> list:
    """The pass's item latencies at the nominal host speed."""
    return [t * reference.NOMINAL_S / speed for t, speed in zip(p["latencies"], p["speeds"])]


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # a timed set-up takes half its reference samples before the import and
    # half after the inputs are built, and leaves their time out of its own
    samples = [reference.sample(time.process_time) for _ in range(SETUP_REFERENCES // 2)] if args.setup_only else []
    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(workloads.WORKLOADS)))
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        wl.build(args.seed)
        cpu = time.process_time() - sum(samples)
        samples += [reference.sample(time.process_time) for _ in range(SETUP_REFERENCES // 2)]
        print("ready %r %r" % (cpu, statistics.fmean(samples)), flush=True)
        return 0

    inputs = wl.build(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    setups = []

    def between():
        if tracer is None and len(setups) < SETUPS:
            setups.append(time_setup(wl.name, args.seed))

    passes = run_passes(wl, inputs, args.seconds, tracer, [workloads], between)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # exact oracle on the first pass; every later pass must repeat it
    expected = passes[0]["outputs"]
    ok = wl.check(inputs, expected, args.seed)
    attempted = failed = 0
    for p in passes:
        attempted += len(p["outputs"])
        failed += sum(1 for good, out, ref in zip(ok, p["outputs"], expected) if not good or out != ref)
        failed += abs(len(p["outputs"]) - len(expected))
    digest = hashlib.sha256("\n".join(expected).encode()).hexdigest()

    untraced = [p for p in passes if not p["traced"]]
    correct = failed == 0
    print("workload %s, seed %d: %s" % (wl.name, args.seed, wl.size))
    print("closed loop, 1 caller; %d passes, %d items" % (len(passes), attempted))
    print("output sha256 %s" % digest)
    print("fail_ratio %.4f (%d of %d items)" % (failed / attempted, failed, attempted))

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        for p in traced:
            p["layers"] = tracing.layer_metrics(tracer.spans, *p["spans"], p["cpu"])
        counts = [{k: v for k, v in p["layers"].items() if PER_LAYER.get(k) in ("count", "bits")} for p in traced]
        if any(c != counts[0] for c in counts):
            print("error: layer counts differ between traced passes", file=sys.stderr)
            correct = False
        # layer times from the fastest traced pass, so they add up to its CPU time
        layers = min(traced, key=lambda p: p["cpu"])["layers"]
        values = {name: layers.get(name) for name in PER_LAYER}
        values["trace_overhead_ratio"] = sum(best(untraced)) / sum(best(traced))
        values["checks.inconclusive_ratio"] = sum('"status": "inconclusive"' in out for out in expected) / len(expected)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        os.makedirs(RESULTS, exist_ok=True)
        spans_path = os.path.join(RESULTS, "spans-%s-seed%d.jsonl" % (wl.name, args.seed))
        tracer.write(spans_path)
        print("%d spans written to %s" % (len(tracer.spans), os.path.relpath(spans_path)))
        for name, unit in PER_LAYER.items():
            print("%-46s %14.6g %s" % (name, values[name], unit))
    else:
        per_pass = [scaled(p) for p in untraced]
        items = [statistics.median(column) for column in zip(*per_pass)]
        speeds = [1000 * statistics.fmean(p["speeds"]) for p in untraced]
        print(
            "reference %.4g ms per sample (median of %d pass means, range %.4g-%.4g); nominal %.4g ms"
            % (statistics.median(speeds), len(speeds), min(speeds), max(speeds), 1000 * reference.NOMINAL_S)
        )
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": len(items) / statistics.median(sum(t) for t in per_pass),
            "item_p50_ms": 1000 * statistics.median(items),
            "item_p90_ms": 1000 * p90(items),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        samples = "%d items, each the median of %d passes" % (len(items), len(per_pass))
        notes = {
            "setup_s": "median scaled CPU time of %d fresh processes" % len(setups),
            "items_per_s": "%d items over the median scaled CPU time of %d passes" % (len(items), len(per_pass)),
            "item_p50_ms": samples,
            "item_p90_ms": samples,
            "peak_rss_mb": "ru_maxrss after the timed passes",
        }
        for name, m in metrics.items():
            print("%-12s %12.6g %-4s (%s)" % (name, m["value"], m["unit"], notes[name]))

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
