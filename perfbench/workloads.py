"""Workload grids and the known-answer checks applied to every CLI verdict.

Each workload is a fixed list of `qci_hochschild.cli.main` argument vectors.
The program is deterministic, so the only thing a benchmark seed changes is
the order in which the vectors run.  Every invocation is checked three ways:
its exit status, the closed-form answer the paper predicts for it, and the
SHA-256 of its stdout against the digest recorded on the seed commit
(`digests.json`), which pins the byte-identical output rule.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")

WORKLOADS = {
    # Only the two primary dimension routes (ranks of hom_differential and
    # delta_matrix).  The prime half runs the same linalg code on cheap
    # scalars, so a scalars-only change moves one half and not the other.
    "dims": [
        ["dims", "--a", "5", "--max-degree", "20"],
        ["dims", "--a", "5", "--backend", "prime", "--max-degree", "20"],
        ["dims", "--a", "7", "--max-degree", "20"],
        ["dims", "--a", "7", "--backend", "prime", "--max-degree", "20"],
    ],
    # express-dominated: hundreds of SparseMatrix.solve calls on per-degree
    # matrices that repeat; a=5 runs on both backends for a like-for-like gap.
    # The liftings suite multiplies EnvElements against the differentials.
    # Degrees 10 and 8 keep a pass near 9 s, so a run measures several.
    "products": [
        ["table", "--a", "3", "--max-degree", "10"],
        ["table", "--a", "5", "--max-degree", "8"],
        ["table", "--a", "5", "--backend", "prime", "--max-degree", "8"],
        ["verify", "--a", "2", "--suite", "liftings"],
        ["verify", "--a", "3", "--suite", "liftings"],
        ["verify", "--a", "5", "--suite", "liftings"],
    ],
    # Only bar.py and numpy; the a=2 degree-5 coboundary (16384 x 4096) is
    # the dense mod-p rank that a split by bidegree removes.
    "oracle": [
        ["oracle", "--a", "2", "--max-degree", "5"],
        ["oracle", "--a", "3", "--max-degree", "2"],
        ["oracle", "--a", "5", "--max-degree", "1"],
    ],
    # A grid of a few hundred milliseconds for smoke tests of the benchmark.
    "tiny": [
        ["dims", "--a", "3", "--max-degree", "4"],
        ["dims", "--a", "3", "--backend", "prime", "--max-degree", "4"],
        ["table", "--a", "3", "--max-degree", "4"],
        ["verify", "--a", "3", "--suite", "liftings", "--t-max", "1", "--s-max", "3"],
        ["oracle", "--a", "2", "--max-degree", "2"],
    ],
}


def key(argv) -> str:
    return " ".join(argv)


def option(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def backend(argv) -> str:
    return option(argv, "--backend", "cyclotomic")


def without_backend(argv) -> list:
    if "--backend" not in argv:
        return list(argv)
    i = argv.index("--backend")
    return argv[:i] + argv[i + 2:]


def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _hh_dim(n: int) -> int:
    """dim HH^n(A) = 2n + 2, independent of a."""
    return 2 * n + 2


def _rows_checks(rows, max_degree, columns):
    checks = [("rows cover 0..max-degree", [r["n"] for r in rows] == list(range(max_degree + 1)))]
    for row in rows:
        for col in columns:
            checks.append((f"n={row['n']} {col}", row.get(col) == _hh_dim(row["n"])))
    return checks


def _table_checks(argv, obj):
    a = int(option(argv, "--a"))
    max_degree = int(option(argv, "--max-degree", 8))
    prefix = "xi" if a == 2 else "zeta"
    cells = obj["cells"]
    want_cells = sum(
        (dm + 1) * (dt + 1)
        for dm in range(0, max_degree + 1, 2)
        for dt in range(0, max_degree - dm + 1, 2)
    )
    checks = [("every pair of scalar classes", len(cells) == want_cells)]
    for cell in cells:
        dm, l = cell["left"]["degree"], cell["left"]["index"]
        dt, r = cell["right"]["degree"], cell["right"]["index"]
        if a >= 3 and l % 2 == 1 and r % 2 == 1:
            want = "0"
        else:
            want = f"{prefix}_{l + r}^{dm + dt}"
        checks.append((f"({dm},{l})x({dt},{r})", cell["product"] == want))
    return checks


def answer_checks(argv, stdout: str):
    """(name, ok) pairs comparing one invocation's stdout with the paper."""
    obj = json.loads(stdout)
    command = argv[0]
    if command == "dims":
        return _rows_checks(obj["rows"], int(option(argv, "--max-degree", 12)), ("ext", "tor"))
    if command == "oracle":
        return _rows_checks(obj["rows"], int(option(argv, "--max-degree")), ("bar",))
    if command == "table":
        return _table_checks(argv, obj)
    if command == "verify":
        return [("certificate status", obj["status"] == "pass")]
    raise ValueError(f"no known answer for {command!r}")


def check_invocation(argv, rc, stdout, error, digest):
    """All checks of one invocation; an exception fails it outright."""
    if error is not None:
        return [(f"raised {error!r}", False)]
    checks = [("exit status 0", rc == 0), ("stdout digest", sha256(stdout) == digest)]
    try:
        checks += answer_checks(argv, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        checks.append((f"unreadable output: {exc!r}", False))
    return checks
