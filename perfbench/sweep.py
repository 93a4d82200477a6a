"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --workloads gin_principal,verify_all --seeds 1-10 [--trace 1] [--out FILE]

Runs ``perfbench/run.py`` once per (workload, seed), one process at a time,
with the ``run_seconds`` of ``BENCHMARK.json``.  For every metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the interquartile distance as a share of the median.  ``--out``
writes the raw values and the summary as JSON, which is how
``perfbench/BASELINE.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d): %s" % (workload, seed, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated names (default: all in BENCHMARK.json)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write raw values and summary as JSON")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    report = {}
    for workload in names:
        raw: dict = {}
        for seed in parse_seeds(args.seeds):
            result = run_one(workload, seed, spec["run_seconds"], args.trace)
            if not result["correct"] or result["failed"]:
                raise RuntimeError("%s seed %d: incorrect output" % (workload, seed))
            for name, m in result["metrics"].items():
                raw.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in raw.items() if k in bounds or args.trace}, flush=True)
        report[workload] = {"values": raw, "summary": {k: summarize(v) for k, v in raw.items()}}
        for name, s in report[workload]["summary"].items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if s["spread"] < bound / 3 else ("within bound" if s["spread"] <= bound else "TOO WIDE")
            print(
                "%-16s %-44s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.4f %s"
                % (workload, name, s["median"], s["q1"], s["q3"], s["spread"], flag)
            )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
