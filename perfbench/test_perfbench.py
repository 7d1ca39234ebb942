"""Smoke tests of the benchmark's own code on the `tiny` grid.

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import qci_hochschild  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from qci_hochschild import cli, cohomology, linalg, scalars, yoneda  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_metric_names_and_units():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64, m
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_readme_layer_map_lists_every_per_layer_metric():
    """README.md's layer table is the one copy of the layer -> metric map."""
    readme = (HERE / "README.md").read_text()
    table = readme.split("### Layer → metric → workload map", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[2] for line in table.splitlines() if line.startswith("| ") and "`" in line]
    listed = [name for row in rows for name in re.findall(r"`([A-Za-z0-9_.-]+)`", row)]
    assert sorted(listed) == sorted(m["name"] for m in SPEC["per_layer"])


def test_every_invocation_has_a_recorded_digest():
    digests = workloads.load_digests()
    for invocations in workloads.WORKLOADS.values():
        for argv in invocations:
            assert re.fullmatch(r"[0-9a-f]{64}", digests[workloads.key(argv)])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_reports_every_metric(trace, section):
    done = bench("--workload", "tiny", "--seed", "3", "--seconds", "0.1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "1":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert 0.98 < metrics["trace.accounted_frac"] <= 1.0
        assert metrics["cohomology.express_calls"] > 0 and metrics["bar.dense_bytes_computed"] > 0


def test_wrong_expected_answer_shows_in_failed_frac(monkeypatch):
    invocations = workloads.WORKLOADS["tiny"]
    digests = workloads.load_digests()
    assert all(ok for _, ok in run.run_pass(cli, invocations, digests).checks)

    monkeypatch.setattr(workloads, "_hh_dim", lambda n: 2 * n + 3)
    failed = [name for name, ok in run.run_pass(cli, invocations, digests).checks if not ok]
    assert "n=0 ext" in failed and "n=0 bar" in failed
    monkeypatch.undo()

    wrong = dict(digests, **{workloads.key(invocations[0]): "0" * 64})
    failed = [name for name, ok in run.run_pass(cli, invocations, wrong).checks if not ok]
    assert failed == ["stdout digest"]


def test_tracer_uninstall_leaves_no_wrapper():
    originals = (cli.main, cohomology.express, linalg.SparseMatrix.solve, scalars.CyclotomicScalar.__mul__)
    tracer = Tracer()
    tracer.install(qci_hochschild)
    assert cli.main is not originals[0] and yoneda.express is not originals[1]
    assert linalg.SparseMatrix.solve is not originals[2]
    tracer.uninstall()
    assert yoneda.express is originals[1]
    assert (cli.main, cohomology.express, linalg.SparseMatrix.solve, scalars.CyclotomicScalar.__mul__) == originals


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "dims", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_compare_verdicts():
    wall = {"name": "wall_s", "better": "lower", "bound": 0.25}
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    assert compare.verdict(parent, [p / 2 for p in parent], wall) == "change won 10/10: gain"
    assert compare.verdict(parent, [p * 1.3 for p in parent], wall).endswith("REGRESSION")
    assert compare.verdict(parent, parent, wall) == "change won 0/10: within bound"
    noisy = [6.0, 14.0] * 5
    assert compare.verdict(noisy, noisy, wall).endswith("unresolved: spread wider than bound")
