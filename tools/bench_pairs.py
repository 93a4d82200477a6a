"""Compare two checkouts on the benchmark in alternating pairs of runs.

Run from the repository root:

    python tools/bench_pairs.py PARENT CHANGE --workload W --seed S [--seconds T] [--pairs N] [--out FILE]

PARENT and CHANGE are checkout directories.  Pair k runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in each of them, one process at a time: the parent first when k is odd, the
change first when k is even.  T defaults to the ``run_seconds`` of CHANGE's
``BENCHMARK.json``, and N to 10.  For every end-to-end metric of that file
it prints each side's median and quartiles
(``statistics.quantiles(method="inclusive")``), the parent's interquartile
distance and the number of pairs the change won, ties counting for neither.
A gain shows when the change wins at least nine tenths of the pairs and its
median is better than the parent's by more than the parent's interquartile
distance.  ``--out`` writes every run and the summary as JSON, under
``workloads`` and then ``seed_S``, added to the file if it exists.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The metric values of one benchmark run in ``checkout``, with the
    run's attempted, failed and correct."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: round(m["value"], 4) for name, m in out["metrics"].items()}
    return {**values, "attempted": out["attempted"], "failed": out["failed"], "correct": out["correct"]}


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile) of the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summary(pairs: list, name: str, higher_is_better: bool) -> dict:
    """The comparison of metric ``name`` over pairs of {"parent": run,
    "change": run}, by the rule of the module docstring."""
    sign = 1 if higher_is_better else -1
    sides = {side: [pair[side][name] for pair in pairs] for side in SIDES}
    (p1, pm, p3), (c1, cm, c3) = (quartiles(sides[side]) for side in SIDES)
    wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
    return {
        "parent_median": round(pm, 4),
        "change_median": round(cm, 4),
        "parent_quartiles": [round(p1, 4), round(p3, 4)],
        "change_quartiles": [round(c1, 4), round(c3, 4)],
        "parent_iqr": round(p3 - p1, 4),
        "change_wins": wins,
        "pairs": len(pairs),
        "gain": 10 * wins >= 9 * len(pairs) and sign * (cm - pm) > p3 - p1,
    }


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    pairs = []
    for k in range(1, args.pairs + 1):
        order = SIDES if k % 2 else SIDES[::-1]
        pair = {"pair": k, "first": order[0]}
        for side in order:
            pair[side] = run_once(checkouts[side], args.workload, args.seed, seconds)
        pairs.append(pair)
        print("pair %d: %s" % (k, json.dumps({side: pair[side] for side in SIDES})), flush=True)
    result = {"seconds": seconds, "pairs": pairs}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        result[name] = row = summary(pairs, name, metric["better"] == "higher")
        print(
            "%-12s parent %s [%s, %s]  change %s [%s, %s]  parent IQR %s  change won %d of %d%s"
            % (name, row["parent_median"], *row["parent_quartiles"], row["change_median"], *row["change_quartiles"],
               row["parent_iqr"], row["change_wins"], row["pairs"], "  gain" if row["gain"] else "")
        )
    if args.out:
        report = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                report = json.load(fh)
        report.setdefault("workloads", {}).setdefault(args.workload, {})["seed_%d" % args.seed] = result
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
