"""Benchmark of the qci-hochschild verifier through its CLI entry point.

    python3 perfbench/run.py --workload dims --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  One fresh interpreter runs one workload:
it times `qci_hochschild.cli.main(argv)` in-process with stdout captured,
checks every verdict (see workloads.py), and prints a summary on stderr and,
as the last line of stdout, one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones of BENCHMARK.json; with `--trace 1` they are its per-layer ones, taken
from a traced pass that follows untraced passes of the same workload.

A pass runs every invocation of the workload once, in an order drawn from
the seed.  A run measures whole passes: it starts another one only while the
passes so far predict that it ends within `--seconds`, and reports medians.
A traced run spends half of `--seconds` on untraced passes (at least one),
then runs one traced pass, so it can take about one pass longer.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 12  # probes before the passes, and as many after them
SETUP_PROBE = "from qci_hochschild import cli; print('ready', flush=True)"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def measure_setup(env) -> list:
    """Seconds for a fresh interpreter to import the package and reach a call."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit status {child.returncode}")
    return samples


@dataclass
class Pass:
    wall: float  # first cli.main call to the last verdict checked
    checks: list  # (name, ok)
    stdout_bytes: int
    roots: list  # index of each invocation's cli.main span, traced passes only
    bench_s: float  # checking verdicts and collecting garbage, the benchmark's own work


def run_pass(cli, invocations, digests, tracer=None) -> Pass:
    """Run every invocation once and check its verdict."""
    done = Pass(0.0, [], 0, [], 0.0)
    start = time.perf_counter()
    for argv in invocations:
        buf = io.StringIO()
        rc, error = None, None
        if tracer is not None:
            done.roots.append(len(tracer.spans))
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed check, not a failed benchmark
            error = exc
        checked = time.perf_counter()
        out = buf.getvalue()
        done.stdout_bytes += len(out.encode())
        done.checks += workloads.check_invocation(argv, rc, out, error, digests.get(workloads.key(argv)))
        # free this invocation's cyclic garbage, so the next starts from the
        # heap a fresh CLI process would have and the order leaves no trace
        gc.collect()
        done.bench_s += time.perf_counter() - checked
    done.wall = time.perf_counter() - start
    return done


def measure(budget, run_once) -> list:
    """Whole passes while the passes so far predict the next ends in budget."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_once())
        if time.perf_counter() - start + statistics.median(p.wall for p in passes) > budget:
            return passes


def backend_pairs(invocations, roots):
    """(cyclotomic root, prime root) span pairs of argv that differ only in backend."""
    by_backend = {"cyclotomic": {}, "prime": {}}
    for argv, root in zip(invocations, roots):
        by_backend.get(workloads.backend(argv), {})[workloads.key(workloads.without_backend(argv))] = root
    return [(root, by_backend["prime"][k]) for k, root in by_backend["cyclotomic"].items() if k in by_backend["prime"]]


def tail(samples):
    """Highest percentile with ten samples beyond it, or None below 11 samples."""
    if len(samples) < 11:
        return None
    return sorted(samples)[len(samples) - 11]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "qci_hochschild" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: run from a checkout holding src/qci_hochschild and BENCHMARK.json ({ROOT})",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    # one OpenBLAS thread per core, whoever launches the run; before numpy is imported
    threads = os.environ["OPENBLAS_NUM_THREADS"] = str(os.cpu_count() or 1)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    # untraced runs probe set-up half before and half after their passes, so
    # the median spans the run's whole window; traced runs report no set-up
    setup = [] if args.trace else measure_setup(env)
    sys.path.insert(0, str(SRC))
    import numpy
    import qci_hochschild
    from qci_hochschild import cli

    invocations = [list(a) for a in workloads.WORKLOADS[args.workload]]
    random.Random(args.seed).shuffle(invocations)
    digests = workloads.load_digests()

    if args.trace:
        from spans import Tracer

        timed = measure(args.seconds / 2, lambda: run_pass(cli, invocations, digests))
        tracer = Tracer()
        tracer.install(qci_hochschild)
        try:
            traced = run_pass(cli, invocations, digests, tracer)
        finally:
            tracer.uninstall()
        passes = timed + [traced]
        metrics = tracer.metrics(traced.wall, statistics.median(p.wall for p in timed), traced.bench_s,
                                 backend_pairs(invocations, traced.roots), traced.stdout_bytes)
        wanted = spec["per_layer"]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        passes = timed = measure(args.seconds, lambda: run_pass(cli, invocations, digests))
        setup += measure_setup(env)
        metrics = {
            "wall_s": statistics.median(p.wall for p in timed),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]

    walls = [p.wall for p in timed]
    checks = [c for p in passes for c in p.checks]
    failed = [name for name, ok in checks if not ok]
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")

    p_tail = tail(walls)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(walls)} passes, "
          f"wall_s {[round(w, 4) for w in walls]} s, median {statistics.median(walls):.4f} s, tail "
          f"{'n/a (fewer than 11 passes)' if p_tail is None else f'{p_tail:.4f} s'}, "
          f"setup_s samples {len(setup)}; python {sys.version.split()[0]}, numpy {numpy.__version__}, "
          f"nproc {os.cpu_count()}, OPENBLAS_NUM_THREADS={threads}", file=sys.stderr)
    print(f"failed_frac {len(failed) / len(checks):.6f} ratio ({len(failed)} of {len(checks)} checks)",
          file=sys.stderr)
    for name in failed[:10]:
        print(f"  failed: {name}", file=sys.stderr)
    for m in wanted:
        print(f"{m['name']} {metrics[m['name']]} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
