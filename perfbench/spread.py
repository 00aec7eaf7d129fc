"""Run the benchmark on several seeds and report how steady each metric is.

    python3 perfbench/spread.py [--workloads battery,burnside]
        [--seeds 10] [--first-seed 0] [--trace 0] [--out FILE]

For every workload, runs perfbench/run.py once per seed with the
run_seconds of BENCHMARK.json, and prints for each metric the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the distance between them
as a share of the median. With --out, also writes the values to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import ops

RUN = ops.HERE / "run.py"


def spread(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="default: those of BENCHMARK.json")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(ops.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"run_seconds": bench["run_seconds"], "nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(),
           "commit": ops.commit(),
           "trace": args.trace, "workloads": {}}
    ok = True
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    for workload in workloads:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                cwd=ops.ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and proc.returncode == 0 and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        summary = doc["workloads"][workload] = {"attempted": attempted, "failed": failed}
        print(f"  {workload:<9} fail_share {failed / attempted:.4f} ({failed}/{attempted} ops)")
        for name, v in values.items():
            s = summary[name] = dict(spread(v), values=v)
            bound = bounds.get(name)
            print(f"  {workload:<9} {name:<30} median {s['median']:.5g}  "
                  f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  iqr/median {s['iqr_share']:.4f}"
                  + (f"  (bound {bound}, bound/3 {bound / 3:.4f})" if bound else ""),
                  flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
