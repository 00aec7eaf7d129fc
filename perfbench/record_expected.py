"""Record every op's expected result by running the program.

    python3 perfbench/record_expected.py

Runs each workload op and self-test op once in a fresh interpreter, and
`verify all` ops under two seeds, which must agree. Writes the exit code and
the sha256 of the `--json` stdout of each op to perfbench/expected.json. Run
it on the commit whose outputs are the reference; never edit the file by
hand. The commit is read from git.
"""

from __future__ import annotations

import json
import platform
import sys

import ops

SEEDS = (0, 7)


def main() -> int:
    if not ops.program_present():
        print("error: src/chowring not found", file=sys.stderr)
        return 2
    all_ops = dict.fromkeys([op for w in ops.WORKLOADS.values() for op in w]
                            + list(ops.SELFTEST_OPS))
    results = {}
    for op in all_ops:
        seen = set()
        for seed in (SEEDS if op[0] == "verify" else SEEDS[:1]):
            run = ops.run_op(op, seed, trace=False, timeout=600)
            if run.report is None or run.report["exit"] not in (0, 1):
                print(f"error: {ops.op_key(op)}: {run.error or run.report['exit']}",
                      file=sys.stderr)
                return 1
            seen.add((run.report["exit"], run.report["sha256"]))
            print(f"{run.wall:7.2f} s  exit {run.report['exit']}  "
                  f"{' '.join(ops.op_argv(op, seed))}", flush=True)
        if len(seen) != 1:
            print(f"error: {ops.op_key(op)}: output depends on the seed", file=sys.stderr)
            return 1
        (code, digest), = seen
        results[ops.op_key(op)] = {"exit": code, "sha256": digest}
    doc = {"commit": ops.commit(), "python": platform.python_version(),
           "ops": results}
    with open(ops.EXPECTED, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
