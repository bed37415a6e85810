"""carleman-lab benchmark: closed-loop runs of the lift, certify and diagonalize workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload lift --seed 0 --seconds 30 --trace 0

One client sends the workload's seed-generated requests one after the
other, each only after the previous has returned, and repeats the whole
list (a pass) while the next pass is predicted to end within
``--seconds``.  Requests run in this process: CLI requests call
``carleman_lab.cli.main(argv)`` with ``--out`` in a scratch directory, so
no interpreter starts per request.  Every output is checked (see
``checks.py``).  BLAS keeps its default thread pool.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` passes alternate between
untraced and traced, and it carries the per-layer metrics instead.  The
lines before it are a readable report, and the full result, with the
environment record, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
RESULTS = ROOT / ".bench_out"

# setup_s is the median of this many fresh set-up processes
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
# every median is over at least two passes, also when one pass takes
# longer than half of --seconds (diagonalize on a busy host)
MIN_PASSES = 2

# (metric, summary section, span name, unit) read from the traced passes.
# Which end-to-end metric each should move, and on which workload:
#   matrix_exp, build_blocks, assemble_dense, integrate_lift,
#   integrate_reference    -> wall_s, cpu_s on lift
#   lift_dim_max, lift_bytes -> peak_rss_mb on lift
#   rk45.*, estimate_x_max_tilde, optimize_rp, r_p, certify_*,
#   eig.calls, stages_per_request -> wall_s, latency_p50_s on certify
#   build_vinv_blocks, build_v_blocks, diagonalize_carleman,
#   norm_bounds_check      -> wall_s, peak_rss_mb on diagonalize
#   fusion_sum, enumerate_forests -> latency_p50_s on diagonalize
#   cli.main, output_bytes -> latency_p50_s on certify
SPAN_METRICS = (
    ("linalg.matrix_exp.self_s", "self_s", "linalg.matrix_exp", "s"),
    ("linalg.matrix_exp.calls", "calls", "linalg.matrix_exp", "count"),
    ("carleman.build_blocks.self_s", "self_s", "carleman.build_blocks", "s"),
    ("carleman.build_blocks.calls", "calls", "carleman.build_blocks", "count"),
    ("carleman.assemble_dense.self_s", "self_s", "carleman.assemble_dense", "s"),
    ("carleman.integrate_lift.self_s", "self_s", "carleman.integrate_lift", "s"),
    ("system.integrate_reference.self_s", "self_s", "system.integrate_reference", "s"),
    ("rk45.solves", "calls", "rk45", "count"),
    ("rk45.self_s", "self_s", "rk45", "s"),
    ("conservative.estimate_x_max_tilde.calls", "calls",
     "conservative.estimate_x_max_tilde", "count"),
    ("conservative.estimate_x_max_tilde.self_s", "self_s",
     "conservative.estimate_x_max_tilde", "s"),
    ("stability.optimize_rp.self_s", "self_s", "stability.optimize_rp", "s"),
    ("stability.r_p.calls", "calls", "stability.r_p", "count"),
    ("stability.r_p.self_s", "self_s", "stability.r_p", "s"),
    ("linalg.eig.calls", "calls", "linalg.eig", "count"),
    ("nonresonant.certify_poincare.total_s", "total_s", "nonresonant.certify_poincare", "s"),
    ("nonresonant.certify_siegel_split.total_s", "total_s",
     "nonresonant.certify_siegel_split", "s"),
    ("nonresonant.certify_oscillating.total_s", "total_s",
     "nonresonant.certify_oscillating", "s"),
    ("nonresonant.build_vinv_blocks.self_s", "self_s", "nonresonant.build_vinv_blocks", "s"),
    ("nonresonant.build_v_blocks.self_s", "self_s", "nonresonant.build_v_blocks", "s"),
    ("nonresonant.diagonalize_carleman.self_s", "self_s",
     "nonresonant.diagonalize_carleman", "s"),
    ("nonresonant.norm_bounds_check.self_s", "self_s", "nonresonant.norm_bounds_check", "s"),
    ("forests.fusion_sum.self_s", "self_s", "forests.fusion_sum", "s"),
    ("forests.enumerate_forests.self_s", "self_s", "forests.enumerate_forests", "s"),
    ("cli.main.self_s", "self_s", "cli.main", "s"),
)

# the layers that should carry most of each workload, as shares of the
# traced pass (total span time, children included)
DOMINANT_LAYERS = {
    "lift": ("linalg.matrix_exp", "carleman.build_blocks"),
    "certify": ("conservative.estimate_x_max_tilde",),
    "diagonalize": ("nonresonant.build_vinv_blocks",),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("lift", "certify", "diagonalize"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and generate the inputs, then exit (one setup_s sample)")
    return p.parse_args(argv)


# -- requests -----------------------------------------------------------


def execute(req, out_dir: Path):
    """Run one request; returns (exit code, output path) or the library result."""
    from carleman_lab import carleman, cli

    if req.argv:
        out = out_dir / f"{req.rid}.out"
        return cli.main([*req.argv, "--out", str(out)]), out
    return carleman.convergence_sweep(**req.call)


def run_pass(reqs, out_dir: Path, tracer=None) -> dict:
    """One closed-loop pass over the request list, timed per request."""
    results, latencies = [], []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for req in reqs:
        span = tracer.begin_request(req.rid) if tracer else None
        start = time.perf_counter()
        try:
            results.append(execute(req, out_dir))
        except Exception:  # a crash is one failed request, not a failed run
            results.append(traceback.format_exc())
        latencies.append(time.perf_counter() - start)
        if tracer:
            tracer.end_request(span)
    return {
        "wall_s": time.perf_counter() - t0,
        "cpu_s": time.process_time() - cpu0,
        "latencies": latencies,
        "results": results,
    }


def check_pass(reqs, done: dict, reference: dict | None) -> tuple[list, int]:
    """Check every output of a pass; returns (failures, output bytes)."""
    import checks

    failures, nbytes = [], 0
    for req, result in zip(reqs, done.pop("results")):
        if isinstance(result, str):
            failures.append({"request": req.rid, "problems": [result]})
            continue
        if req.argv:
            code, path = result
            text = path.read_text(encoding="utf-8") if path.exists() else ""
            nbytes += len(text.encode("utf-8"))
            path.unlink(missing_ok=True)
            result = (code, text)
        try:
            fields = checks.extract(req, result)
        except (ValueError, KeyError, IndexError) as exc:
            failures.append({"request": req.rid, "problems": [f"unreadable output: {exc!r}"]})
            continue
        problems = checks.invariants(req, fields)
        if reference is not None:
            problems += checks.against_reference(fields, reference.get(req.rid, {}))
        if problems:
            failures.append({"request": req.rid, "problems": problems})
    return failures, nbytes


def run_passes(args, reqs, out_dir: Path, reference: dict | None):
    """Passes while the next is predicted to end within ``--seconds``, at least two.

    With ``--trace 1`` passes alternate untraced and traced, starting
    untraced, so the second pass is traced.
    """
    from spans import Tracer

    untraced, traced, failures = [], [], []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if args.trace and len(untraced) > len(traced) else None
        if tracer:
            tracer.install()
        try:
            done = run_pass(reqs, out_dir, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        pass_failures, done["output_bytes"] = check_pass(reqs, done, reference)
        failures += pass_failures
        if tracer:
            done["summary"] = tracer.summary()
            done["tracer"] = tracer
            traced.append(done)
        else:
            untraced.append(done)
        elapsed = time.perf_counter() - start
        if len(untraced) + len(traced) >= MIN_PASSES and elapsed + done["wall_s"] > args.seconds:
            return untraced, traced, failures


# -- set-up ---------------------------------------------------------------


def setup_samples(args) -> list[float]:
    """Set-up times of fresh processes that import the package and build the inputs.

    Each child prints the monotonic clock, which all processes share, when
    its inputs are ready; the sample runs from just before the child is
    started to that moment, so interpreter exit and the wait do not count.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        child = subprocess.run(cmd, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                               capture_output=True, text=True)
        samples.append(float(child.stdout.split()[-1]) - start)
    return samples


# -- metrics --------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(untraced: list, setup: list[float]) -> dict:
    latencies = [x for done in untraced for x in done["latencies"]]
    return {
        "wall_s": _metric(statistics.median(r["wall_s"] for r in untraced), "s"),
        "latency_p50_s": _metric(statistics.median(latencies), "s"),
        "cpu_s": _metric(statistics.median(r["cpu_s"] for r in untraced), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": _metric(statistics.median(setup), "s"),
    }


def per_layer(reqs, untraced: list, traced: list) -> dict:
    """Per-layer metrics: medians over traced passes, counts from the first."""
    from spans import STAGES

    summaries = [done["summary"] for done in traced]

    def median_of(section, name):
        return statistics.median(s[section].get(name, 0) for s in summaries)

    out = {}
    for metric, section, name, unit in SPAN_METRICS:
        if section == "calls":
            out[metric] = _metric(summaries[0]["calls"].get(name, 0), unit)
        else:
            out[metric] = _metric(median_of(section, name), unit)
    counters = summaries[0]["counters"]
    out["rk45.nfev"] = _metric(counters.get("rk45.nfev", 0), "count")
    out["carleman.lift_dim_max"] = _metric(counters.get("carleman.lift_dim_max", 0), "dim")
    out["carleman.lift_bytes"] = _metric(
        counters.get("carleman.blocks_bytes_max", 0) + counters.get("carleman.dense_bytes_max", 0),
        "bytes",
    )
    n_certify = sum(req.kind == "certify" for req in reqs)
    stages = sum(summaries[0]["calls"].get(name, 0) for name in STAGES)
    out["certify.stages_per_request"] = _metric(
        stages / n_certify if n_certify else 0, "1/request"
    )
    out["cli.output_bytes"] = _metric(traced[0]["output_bytes"], "bytes")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["traced_wall_s"] = _metric(traced_wall, "s")
    out["trace_overhead_s"] = _metric(
        traced_wall - statistics.median(r["wall_s"] for r in untraced), "s"
    )
    return out


def layer_shares(workload: str, traced: list) -> dict:
    summary = traced[0]["summary"]
    wall = traced[0]["wall_s"]
    return {name: summary["total_s"].get(name, 0.0) / wall
            for name in DOMINANT_LAYERS[workload]}


# -- main -----------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "carleman_lab" / "__init__.py").is_file():
        print(f"error: {SRC / 'carleman_lab'} not found; run from a carleman-lab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import carleman_lab  # noqa: F401  (the import is part of set-up)
    import workloads

    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        reqs = workloads.build(args.workload, args.seed, tmp / "inputs")
        if args.setup_only:
            print(time.monotonic())
            return 0
        return measure(args, reqs, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, reqs, tmp: Path) -> int:
    import envinfo
    import workloads

    env = envinfo.record(ROOT)
    setup = [] if args.trace else setup_samples(args)
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = json.loads((HERE / "reference.json").read_text())[args.workload]

    out_dir = tmp / "out"
    out_dir.mkdir()
    warm = tmp / "warmup"
    warm.mkdir()
    for req in workloads.warmup_requests(warm):
        execute(req, warm)

    untraced, traced, failures = run_passes(args, reqs, out_dir, reference)
    attempted = len(reqs) * (len(untraced) + len(traced))
    failed = len(failures)
    if args.trace:
        metrics = per_layer(reqs, untraced, traced)
        shares = layer_shares(args.workload, traced)
    else:
        metrics = end_to_end(untraced, setup)
        shares = {}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans_path = RESULTS / f"{stem}.spans.jsonl"
        spans_path.unlink(missing_ok=True)
        for i, done in enumerate(traced):
            done.pop("tracer").write(spans_path, i)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "requests": [{"id": r.rid, "kind": r.kind, "shape": r.shape} for r in reqs],
        "passes": {
            "untraced": [{k: v for k, v in r.items() if k != "summary"} for r in untraced],
            "traced": traced,
        },
        "setup_samples_s": setup,
        "metrics": metrics,
        "shares": shares,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    report(args, env, reqs, untraced, traced, metrics, shares, attempted, failed, failures)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def report(args, env, reqs, untraced, traced, metrics, shares, attempted, failed, failures):
    print(f"carleman-lab benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    latencies = sorted(x for done in untraced for x in done["latencies"])
    print(f"closed loop, 1 client; {len(reqs)} requests per pass; "
          f"{len(untraced)} untraced and {len(traced)} traced passes; "
          f"{len(latencies)} latency samples")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    # the highest percentile with at least ten samples beyond it
    if len(latencies) >= 20:
        i = len(latencies) - 11
        q = 100 * (i + 1) // len(latencies)
        print(f"  {f'latency_p{q}_s':42s} {latencies[i]:>14.6g} s")
    print(f"  {'error_rate':42s} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} requests failed or wrong)")
    for name, share in shares.items():
        print(f"  share of traced pass in {name}: {share:.1%}")
    for f in failures[:10]:
        line = f"FAILED {f['request']}: {'; '.join(f['problems'])[:300]}"
        print("  " + line)
        print(line, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
