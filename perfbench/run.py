"""The chowring benchmark: CLI ops in fresh interpreters, one after another.

    python3 perfbench/run.py --workload {battery,burnside} --seed N \\
        --seconds S --trace {0,1}

Each op is one `chowring` command run by perfbench/child.py in a new
interpreter, as a user runs it: every op pays for start-up, imports, the
automorphism group and the FY basis, because the program's caches live in
its process. One client runs the ops of a workload in a closed loop with no
think time; the seed shuffles their order in each pass and is passed on to
`verify all --seed`. After one whole pass, passes go on with only those ops
that are expected to end within --seconds. Every op's exit code and stdout
digest are checked against perfbench/expected.json.

Metrics are for one pass, from medians over the run:
  wall_s       sum over the ops of the op's median wall time (spawn to exit)
  setup_s      the number of ops times the median start-up time (spawn
               until chowring.cli is imported and ready to parse arguments)
               of all the run's ops; start-up is the same work for every
               op, so each op run is one more sample of it
  peak_rss_mb  the largest of the ops' median peak resident memories
With --trace 1 each op runs untraced and then traced, and the result line
holds the per-layer metrics of perfbench/spans.py plus trace.overhead_ratio,
traced over untraced wall_s; the lines above it also give the untraced
end-to-end figures. fail_share (failed ops over ops attempted) is printed
above the result line, which carries it as `failed` and `attempted`. The exit
status is 1 if any op failed, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import statistics
import sys
import time

import ops
import spans

HARD_LIMIT = 150.0  # s; a run must end well within 180 s
OP_TIMEOUT = 120.0  # s; the slowest op takes about 14 s

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def measure(op_list, seed: int, seconds: float, trace: bool, expected: dict):
    """Run passes over the ops; returns (plain, traced, attempted, failures),
    where plain and traced map op keys to the runs that matched."""
    rng = random.Random(seed)
    start = time.monotonic()
    plain: dict[str, list] = {ops.op_key(op): [] for op in op_list}
    traced: dict[str, list] = {key: [] for key in plain}
    took: dict[str, float] = {}  # op key -> longest time its runs took
    attempted, failures = 0, []
    whole_pass = False
    while True:
        order = list(op_list)
        rng.shuffle(order)
        ran = False
        for op in order:
            key = ops.op_key(op)
            # after one whole pass, start only ops expected to end in time
            if whole_pass and time.monotonic() - start + took[key] > seconds:
                continue
            ran = True
            t0 = time.monotonic()
            for traced_run in ((False, True) if trace else (False,)):
                left = HARD_LIMIT - (time.monotonic() - start)
                run = ops.run_op(op, seed, traced_run, max(1.0, min(OP_TIMEOUT, left)))
                attempted += 1
                why = run.failure(expected)
                if why:
                    failures.append(f"{key}: {why}")
                else:
                    (traced if traced_run else plain)[key].append(run)
            took[key] = max(took.get(key, 0.0), time.monotonic() - t0)
        if whole_pass and not ran:
            return plain, traced, attempted, failures
        whole_pass = True


def _median_sum(runs_by_op, value) -> float:
    return sum(statistics.median(value(r) for r in runs)
               for runs in runs_by_op.values() if runs)


def end_to_end(plain) -> dict[str, float]:
    rss = [statistics.median(r.report["maxrss_kb"] for r in runs)
           for runs in plain.values() if runs]
    startups = [r.startup for runs in plain.values() for r in runs]
    return {"wall_s": _median_sum(plain, lambda r: r.wall),
            "setup_s": len(plain) * statistics.median(startups) if startups else 0.0,
            "peak_rss_mb": max(rss, default=0) / 1024}


def per_layer(plain, traced) -> dict[str, float]:
    per_op = []
    for runs in traced.values():
        values = [spans.op_values(r.report, r.spawn) for r in runs]
        if values:
            per_op.append({key: statistics.median(v[key] for v in values)
                           for key in values[0]})
    out = spans.combine(per_op)
    untraced = _median_sum(plain, lambda r: r.wall)
    out["trace.overhead_ratio"] = (_median_sum(traced, lambda r: r.wall) / untraced
                                   if untraced else 0.0)
    return out


def layer_units() -> dict[str, str]:
    units = {metric: unit for metric, unit, *_ in spans.LAYER_METRICS}
    units["trace.overhead_ratio"] = "ratio"
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chowring CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so that run_op stops the op it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not ops.program_present():
        print("error: src/chowring/cli.py not found; run from a chowring checkout",
              file=sys.stderr)
        return 2
    expected = ops.load_expected()
    plain, traced, attempted, failures = measure(
        ops.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), expected)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    values, units = end_to_end(plain), dict(END_TO_END)
    samples = sum(len(runs) for runs in plain.values())
    print(f"workload {args.workload}: {attempted} ops attempted, "
          f"{samples / len(plain):.2f} untraced runs per op")
    print(f"{'fail_share':<32} {len(failures) / attempted:.4f} "
          f"({len(failures)}/{attempted} ops)")
    if args.trace:  # the untraced runs' end-to-end figures, then the layers
        for name, unit in units.items():
            print(f"{name:<32} {values[name]:.6g} {unit}")
        values, units = per_layer(plain, traced), layer_units()
    for name, unit in units.items():
        print(f"{name:<32} {values[name]:.6g} {unit}")
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
