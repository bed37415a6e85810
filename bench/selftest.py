"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 bench/selftest.py [--workload lift|certify|diagonalize ...]

Checks that
* every count metric of the traced run repeats exactly across two runs
  of one seed, and both runs are correct;
* a second seed keeps every request's id, kind and shape ((n, k),
  fixture, expected stage);
* the output checks reject a moved float, a changed stage, a
  residual above its limit and a diagonalization without block bounds;
* the benchmark exits non-zero, without a result line, in a directory
  that holds only ``BENCHMARK.json`` and ``bench/``.

The file is not named ``test_*.py`` so the repository's test suite does
not collect it: it takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads
from trajectory import bench_once

COUNT_SUFFIXES = (".calls", ".solves", ".nfev", ".lift_dim_max", ".lift_bytes",
                  ".stages_per_request")


def traced_counts(workload: str, seed: int) -> tuple[bool, dict]:
    result = bench_once(workload, seed, 1, 1)
    counts = {k: m["value"] for k, m in result["metrics"].items()
              if k.endswith(COUNT_SUFFIXES)}
    return result["correct"], counts


def check_counts_repeat(workload: str, seed: int) -> list[str]:
    ok1, first = traced_counts(workload, seed)
    ok2, second = traced_counts(workload, seed)
    problems = [] if ok1 and ok2 else [f"{workload}: a traced run was not correct"]
    if len(first) != 10:
        problems.append(f"{workload}: expected 10 count metrics, got {sorted(first)}")
    problems += [f"{workload}: {k} {first[k]} != {second.get(k)}"
                 for k in first if first[k] != second.get(k)]
    return problems


def check_shapes(workload: str, seed_a: int, seed_b: int) -> list[str]:
    with tempfile.TemporaryDirectory(dir=run.SCRATCH) as tmp:
        a = workloads.build(workload, seed_a, Path(tmp) / "a")
        b = workloads.build(workload, seed_b, Path(tmp) / "b")
    shapes_a = [(r.rid, r.kind, r.shape) for r in a]
    shapes_b = [(r.rid, r.kind, r.shape) for r in b]
    if shapes_a != shapes_b:
        return [f"{workload}: request shapes differ between seeds {seed_a} and {seed_b}"]
    if [r.argv for r in a] == [r.argv for r in b]:
        return [f"{workload}: seeds {seed_a} and {seed_b} give identical inputs"]
    return []


def check_checks() -> list[str]:
    """The checks must reject outputs that moved."""
    reference = json.loads((run.HERE / "reference.json").read_text())
    problems = []
    with tempfile.TemporaryDirectory(dir=run.SCRATCH) as tmp:
        reqs = {r.rid: r for w in workloads.WORKLOADS
                for r in workloads.build(w, workloads.DEFAULT_SEED, Path(tmp) / w)}
    sim = reference["lift"]["simulate-n3k6"]
    key = max((k for k in sim if k.startswith("eta.")), key=lambda k: abs(sim[k]))
    moved = dict(sim, **{key: sim[key] * (1 + 1e-3)})
    if not checks.against_reference(moved, sim):
        problems.append("a float moved by 1e-3 relative passed the reference check")
    cert = reference["certify"]["certify-scalar-stable-1"]
    staged = dict(cert, stage="conservative")
    if not checks.invariants(reqs["certify-scalar-stable-1"], staged):
        problems.append("a changed certify stage passed the invariants")
    diag = reference["diagonalize"]["diagonalize-n2k5"]
    if not checks.invariants(reqs["diagonalize-n2k5"], dict(diag, residual=1e-6)):
        problems.append("a residual of 1e-6 passed the invariants")
    unbounded = {k: (None if k.endswith(".bound") else v) for k, v in diag.items()}
    if not checks.invariants(reqs["diagonalize-n2k5"], unbounded):
        problems.append("an output without block bounds passed the invariants")
    return problems


def check_refuses_without_program() -> list[str]:
    with tempfile.TemporaryDirectory(dir=run.SCRATCH) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "lift", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["the benchmark ran in a directory without the program"]
    return []


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    sys.path.insert(0, str(run.SRC))
    run.SCRATCH.mkdir(exist_ok=True)
    problems = check_checks() + check_refuses_without_program()
    for workload in args.workload or workloads.WORKLOADS:
        problems += check_shapes(workload, workloads.DEFAULT_SEED, args.seed)
        problems += check_counts_repeat(workload, args.seed)
        print(f"{workload}: done", flush=True)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
