"""Compare a parent and a change with alternating pairs of benchmark runs.

    python3 perfbench/compare.py --parent ../parent --change . --workload products --pairs 10

Both directories are checkouts holding the same perfbench/ and
BENCHMARK.json.  Pair i runs the parent and the change on seed
`--first-seed + i`, the parent first in even pairs and second in odd ones.
For every end-to-end metric it prints each side's median and quartiles, how
many pairs the change won (ties count for neither), and whether a gain may
be claimed: the change wins at least nine tenths of the pairs and the
medians differ by more than the parent's interquartile distance.  A metric
whose median got worse by more than its bound is a regression; one whose
parent spread is wider than its bound is unresolved, unless every change
run beats every parent run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {result['failed']} of {result['attempted']} checks failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    return statistics.quantiles(values, n=4)


def verdict(parent, change, metric) -> str:
    """The rule for one end-to-end metric over paired runs (parent[i], change[i])."""
    sign = 1 if metric["better"] == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    if wins >= 0.9 * len(parent) and sign * (pm - cm) > p3 - p1:
        word = "gain"
    elif sign * (cm - pm) > metric["bound"] * pm:
        word = "REGRESSION"
    elif p3 - p1 > metric["bound"] * pm and max(sign * c for c in change) >= min(sign * p for p in parent):
        word = "unresolved: spread wider than bound"
    else:
        word = "within bound"
    return f"change won {wins}/{len(parent)}: {word}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, args.first_seed + i,
                                       spec["run_seconds"]))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    print(f"workload {args.workload}, {args.pairs} pairs, run_seconds {spec['run_seconds']}")
    for metric in spec["end_to_end"]:
        parent = [r[metric["name"]] for r in runs["parent"]]
        change = [r[metric["name"]] for r in runs["change"]]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        print(f"  {metric['name']} [{metric['unit']}]: parent {pm:.4g} (q1 {p1:.4g}, q3 {p3:.4g}); "
              f"change {cm:.4g} (q1 {c1:.4g}, q3 {c3:.4g}); {verdict(parent, change, metric)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
