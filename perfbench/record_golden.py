"""Record golden.json: the SHA-256 of every case report any seed can draw.

Usage: python3 perfbench/record_golden.py

Run once, from a checkout of the commit whose reports are the reference;
run.py then fails any case whose report bytes differ by a single byte.
Reports are taken with the plain CLI entry point, one process per case, and
a case that exits non-zero or fails a suite is an error, not a digest.
"""

from __future__ import annotations

import hashlib
import json
import sys

import workloads
from run import GOLDEN, WORK, child_env, cli_argv, run_process


def main():
    WORK.mkdir(exist_ok=True)
    env = child_env()
    keys = sorted({c.key: c for w in workloads.WORKLOADS.values() for c in w.all_cases()}.items())
    digests = {}
    for key, case in keys:
        run = run_process(cli_argv(case.argv), env)
        if run.code != 0:
            print(f"error: {key}: exit code {run.code}\n{run.stderr}", file=sys.stderr)
            return 1
        if case.argv[0] == "verify" and not json.loads(run.report)["results"]["all_passed"]:
            print(f"error: {key}: a suite failed", file=sys.stderr)
            return 1
        digests[key] = hashlib.sha256(run.report).hexdigest()
        print(f"{run.wall:7.2f} s  {len(run.report):7d} bytes  {key}", flush=True)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
