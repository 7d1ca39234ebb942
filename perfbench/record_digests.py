"""Record the SHA-256 of every workload invocation's stdout into digests.json.

    python3 perfbench/record_digests.py

Run it only on a commit whose CLI output is the reference; the benchmark
then fails any invocation whose stdout differs from the recorded bytes.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from qci_hochschild import cli  # noqa: E402

import workloads  # noqa: E402


def main():
    digests = {}
    for invocations in workloads.WORKLOADS.values():
        for argv in invocations:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(argv))
            if rc != 0:
                raise SystemExit(f"{workloads.key(argv)} exited with {rc}")
            digests[workloads.key(argv)] = workloads.sha256(buf.getvalue())
            print(workloads.key(argv), digests[workloads.key(argv)], file=sys.stderr)
    workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
