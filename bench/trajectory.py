"""Record one point of the performance trajectory.  Run from the root of a checkout:

    python3 bench/trajectory.py --tag baseline [--runs 10]

For every workload it runs the benchmark ``--runs`` times untraced, each
with another seed, and once traced, each in its own process with the
``run_seconds`` of ``BENCHMARK.json``.  It writes
``bench/trajectory/<tag>.json`` with every run's metrics, the median and
quartiles of each metric, the spread (quartile distance over median)
next to the metric's bound, and the environment record of a benchmark run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--tag", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    point = {"tag": args.tag, "environment": None,
             "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for w in spec["workloads"]:
        workload = w["name"]
        results = [bench_once(workload, s, spec["run_seconds"], 0) for s in seeds]
        traced = bench_once(workload, seeds[0], spec["run_seconds"], 1)
        stem = f"{workload}-seed{seeds[0]}-trace1.json"
        traced_result = json.loads((run.RESULTS / stem).read_text())
        shares = traced_result["shares"]
        # the record of a benchmark process, which has loaded every BLAS
        point["environment"] = point["environment"] or traced_result["environment"]
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[name] = {
                "unit": results[0]["metrics"][name]["unit"], "median": median,
                "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "bound": bound,
                "values": values,
            }
            print(f"{workload:12s} {name:15s} median {median:10.4f}  "
                  f"spread {(q3 - q1) / median:.3f} (bound {bound})", flush=True)
        point["workloads"][workload] = {
            "end_to_end": summary,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "all_correct": all(r["correct"] for r in results),
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "per_layer_correct": traced["correct"],
            "shares_of_traced_pass": shares,
        }
    out = run.HERE / "trajectory" / f"{args.tag}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
