"""Self-test of the benchmark on a tiny op list.

    python3 perfbench/selftest.py

Runs `verify all boolean(3)`, `verify all boolean(4)` and
`chow pairing boolean(4)`, each untraced and traced, and checks that:
  1. every op matches its expected result, boolean(3)'s exit code 1 included;
  2. an op whose stdout digest differs from the expected one counts as failed;
  3. the spans of each traced op account for its traced wall time: no self
     time is negative, and the self times of start-up, the child's own work
     and the layers leave at most ROOT_SLACK of it to the root span; and
     every per-layer metric is reported.
Exits 0 if all hold, 1 otherwise.
"""

from __future__ import annotations

import sys

import ops
import run
import spans

TEARDOWN_SLACK = 0.25  # s from the child's report to its exit
# s of the traced wall time outside every span: the child's work after
# `cli.main` returns (digest, rusage, report)
ROOT_SLACK = 0.005


def main() -> int:
    if not ops.program_present():
        print("error: src/chowring not found", file=sys.stderr)
        return 2
    expected = ops.load_expected()
    problems = []

    plain, traced, attempted, failures = run.measure(
        ops.SELFTEST_OPS, seed=3, seconds=0, trace=True, expected=expected)
    if attempted != 2 * len(ops.SELFTEST_OPS) or failures:
        problems.append(f"expected results not matched: {failures}")
    boolean3 = plain["verify all boolean(3) --json"]
    if not boolean3 or boolean3[0].report["exit"] != 1:
        problems.append("verify all boolean(3) did not exit 1")

    changed = dict(expected)
    key = "verify all boolean(4) --json"
    changed[key] = dict(expected[key], sha256="0" * 64)
    _, _, attempted, failures = run.measure(
        ops.SELFTEST_OPS, seed=3, seconds=0, trace=False, expected=changed)
    if len(failures) != 1 or not failures[0].startswith(key):
        problems.append(f"changed digest not counted as one failed op: {failures}")

    for runs in traced.values():
        for r in runs:
            _names, parents, durations = spans.span_tree(r.report, r.spawn)
            selfs = spans.self_times(parents, durations)
            traced_wall, layers = durations[-1], sum(selfs[:-1])
            if min(selfs) < -1e-9 or not 0 <= traced_wall - layers <= ROOT_SLACK:
                problems.append(f"{r.key}: layer self times sum to {layers} s, "
                                f"traced wall is {traced_wall} s")
            if not 0 <= r.wall - traced_wall <= TEARDOWN_SLACK:
                problems.append(f"{r.key}: traced wall {traced_wall} s, "
                                f"op wall {r.wall} s")
    missing = set(run.layer_units()) - set(run.per_layer(plain, traced))
    if missing:
        problems.append(f"per-layer metrics missing: {sorted(missing)}")

    for line in problems:
        print(f"FAIL {line}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
