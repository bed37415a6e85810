"""Command-line front end.

Subcommands: certify, simulate, scan, diagonalize, combinatorics.  All
file output is UTF-8 with LF endings and 17-significant-digit floats
(``inf`` literal for infinities in CSV, ``null`` for non-finite values in
JSON certificates), so identical configurations produce byte-identical
files.

Exit codes: 0 success/certified, 1 input error (a malformed command
line included), 2 numerical failure, 3 uncertified, 4 resonant
denominator.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys as _sys
from pathlib import Path

import numpy as np

from . import conservative, fixtures, nonresonant, stability
from .errors import (
    CarlemanLabError,
    CapExceededError,
    DimensionCapError,
    NotPoincareError,
    ParamOutOfRangeError,
    ResonanceFoundError,
    ResonantDenominatorError,
    UnknownFixtureError,
)
from .forests import (
    catalan,
    catalan_convolution,
    count_forests,
    enumerate_forests,
    forest_count_bound,
    fusion_sums,
)
from .jsonio import system_from_json
from .system import QuadraticSystem, check_horizon, check_tolerance

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_UNCERTIFIED = 3
EXIT_RESONANT = 4


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # the format spells the infinities "inf" and "-inf" itself
    return f"{float(value):.17g}"


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="\n")
    else:
        _sys.stdout.write(text)


def _parse_value(raw: str):
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"--param expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        params[key] = raw
    return params


def _load_system(args) -> tuple[QuadraticSystem, np.ndarray, fixtures.Fixture | None]:
    if (args.system is None) == (args.fixture is None):
        raise ValueError("exactly one of --system and --fixture is required")
    if args.system:
        sysd = system_from_json(Path(args.system).read_text(encoding="utf-8"))
        if not args.x0:
            raise ValueError("--x0 is required with --system")
        x0 = np.array([complex(tok) for tok in args.x0.split(",")])
        return sysd, x0, None
    params = {k: _parse_value(v) for k, v in _parse_params(args.param).items()}
    fix = fixtures.fixture(args.fixture, **params)
    x0 = fix.x0
    if args.x0:
        x0 = np.array([complex(tok) for tok in args.x0.split(",")])
    return fix.system, x0, fix


def _add_system_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", help="path to a system JSON file")
    p.add_argument("--fixture", help="name of a built-in fixture")
    p.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="fixture parameter (repeatable)",
    )
    p.add_argument("--x0", help="comma-separated complex initial state")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument(
        "--format",
        choices=("json", "csv"),
        default=None,
        help="output format (each command has a natural default)",
    )
    p.add_argument("--tol", type=float, default=1e-12, help="oracle tolerance")
    p.add_argument(
        "--allow-large",
        action="store_true",
        help="raise the lift-dimension cap to 200000 (diagonalize keeps the "
        "default cap: its V and V^-1 blocks grow as n^(i+j))",
    )


def _cap(args) -> int | None:
    return 200_000 if getattr(args, "allow_large", False) else None


def _pick_format(args, default: str, supported: tuple) -> str:
    fmt = getattr(args, "format", None) or default
    if fmt not in supported:
        raise ValueError(
            f"--format {fmt} not supported by this command (use {supported})"
        )
    return fmt


def _write_table(lines: list[str], args) -> None:
    """CSV lines as CSV (the default) or, with --format json, as a list of row objects."""
    if _pick_format(args, "csv", ("csv", "json")) == "csv":
        _write("\n".join(lines) + "\n", args.out)
        return
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    _write(json.dumps(rows, sort_keys=True, indent=2) + "\n", args.out)


# ---------------------------------------------------------------------------
# certify


def _json_safe(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {key: _json_safe(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


# serialized fields per certificate type; "name?" is left out when None
_STABLE_FIELDS = (
    "value", "certified", "reason", "alpha", "mu", "gamma", "xi", "p",
    "p_inv_norm", "kappa_p", "late_time_estimate",
)
_CONSERVATIVE_FIELDS = (
    "value", "certified", "reason", "delta", "gamma0", "p", "x_max_tilde",
    "caveats", "upsilon?",
)
_NONRESONANT_FIELDS = (
    "variant", "value", "certified", "reason", "delta", "omega", "x_max_tilde",
    "sparsity", "caveats",
)


def _cert_dict(cert, criterion: str, fields: tuple) -> dict:
    """The criterion plus the named fields of ``cert``, JSON-safe.

    A matrix is written as rows of [re, im] pairs.
    """
    out = {"criterion": criterion}
    for name in fields:
        key = name.rstrip("?")
        value = getattr(cert, key)
        if value is None and name.endswith("?"):
            continue
        if isinstance(value, np.ndarray):
            value = [[[z.real, z.imag] for z in row] for row in value]
        out[key] = value
    return _json_safe(out)


def cmd_certify(args) -> int:
    """Run the certifier stages in order; stop at the first success unless --all."""
    sysd, x0, _fix = _load_system(args)
    # the stages that solve the trajectory check these too; checking them
    # here refuses bad flags whichever stage the chain stops at
    check_horizon(args.t)
    check_tolerance(args.tol)
    kw = {"horizon": args.t, "tol": args.tol}
    stages = [
        ("stable", lambda: stability.optimize_rp(sysd, x0, budget=args.budget),
         "R_P", _STABLE_FIELDS),
        ("conservative", lambda: conservative.certify_conservative(sysd, x0, **kw),
         "R_delta", _CONSERVATIVE_FIELDS),
        ("nonresonant_poincare", lambda: nonresonant.certify_poincare(sysd, x0, **kw),
         "R_Delta", _NONRESONANT_FIELDS),
        ("siegel_split", lambda: nonresonant.certify_siegel_split(sysd, x0, **kw),
         "R_Delta", _NONRESONANT_FIELDS),
    ]
    if args.f2_frequency is not None:
        stages.append((
            "oscillating_f2",
            lambda: nonresonant.certify_oscillating(sysd, x0, args.f2_frequency, **kw),
            "R_omega",
            _NONRESONANT_FIELDS,
        ))
    chain: dict = {}
    winner = None
    for name, run, criterion, fields in stages:
        cert = run()
        chain[name] = _cert_dict(cert, criterion, fields)
        if cert.certified and winner is None:
            winner = name
            if not args.all_certificates:
                break
    result = {
        "certified": winner is not None,
        "criterion": chain[winner]["criterion"] if winner else None,
        "stage": winner,
        "certificate": chain[winner] if winner else None,
    }
    if args.all_certificates or winner is None:
        result["diagnostics"] = chain
    _pick_format(args, "json", ("json",))
    _write(json.dumps(result, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK if winner else EXIT_UNCERTIFIED


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    from . import carleman  # scipy.sparse; no other command loads scipy

    sysd, x0, _fix = _load_system(args)
    times = np.linspace(0.0, args.t, args.steps + 1)
    profile = carleman.error_profile(
        sysd, x0, args.k, times, tol=args.tol, cap=_cap(args)
    )
    lines = ["t,block,eta_norm"]
    for i, t in enumerate(profile.times):
        for j in range(1, profile.k_used + 1):
            lines.append(f"{_fmt(t)},{j},{_fmt(profile.block_norms[i, j - 1])}")
    _write_table(lines, args)
    if args.dump_states:
        # lift states are multiset coordinates, expanded to full ones sample by sample
        for tag, traj, cols in (("ref", profile.reference, ...),
                                ("lift", profile.lift, carleman.multiset_index(sysd.n, args.k))):
            path = Path(args.out).with_suffix(f".{tag}.csv") if args.out else None
            with (path.open("w", encoding="utf-8", newline="\n") if path
                  else contextlib.nullcontext(_sys.stdout)) as f:
                f.write("t,index,re,im\n")
                for t, state in zip(traj.times, traj.states):
                    f.writelines(f"{_fmt(t)},{idx},{_fmt(z.real)},{_fmt(z.imag)}\n"
                                 for idx, z in enumerate(state[cols]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan


def _parse_range(raw: str):
    parts = raw.split(":")
    if len(parts) != 3:
        return None
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    return np.linspace(lo, hi, count)


def cmd_scan(args) -> int:
    if not args.fixture:
        raise ValueError("scan requires --fixture")
    ranged, fixed = {}, {}
    for key, raw in _parse_params(args.param).items():
        grid = _parse_range(raw)
        if grid is None:
            fixed[key] = _parse_value(raw)
        else:
            ranged[key] = grid
    if len(ranged) != 2:
        raise ValueError("scan requires exactly two ranged parameters lo:hi:count")
    (k1, grid1), (k2, grid2) = ranged.items()
    if grid1.size * grid2.size > args.max_points:
        raise ValueError(
            f"grid has {grid1.size * grid2.size} points, cap is {args.max_points}"
        )
    conservative_kind = args.fixture == "conservative_toy"
    if conservative_kind:
        lines = ["param1,param2,r_delta,r_p_reduced,ellipse_member,certified"]
    else:
        lines = ["param1,param2,r_mu,r_alpha,r_p_best,certified"]
    for v1 in grid1:
        for v2 in grid2:
            params = dict(fixed)
            params[k1] = float(v1)
            params[k2] = float(v2)
            fix = fixtures.fixture(args.fixture, **params)
            if conservative_kind:
                a, b = fix.params["a"], fix.params["b"]
                x1, x2 = fix.params["x1"], fix.params["x2"]
                x2max = fix.extras["x2_max_closed_form"]
                x_max = float(np.hypot(x1, x2max))
                try:
                    rdel = conservative.r_delta(fix.system, x_max)
                except CarlemanLabError:
                    rdel = np.inf
                rp_red = fixtures.reduced_conservative_rp(a, b, x1, x2)
                member = fixtures.conservative_ellipse_test(a, b, x1, x2)
                certified = rdel < 1.0 or rp_red < 1.0
                lines.append(
                    f"{_fmt(v1)},{_fmt(v2)},{_fmt(rdel)},{_fmt(rp_red)},"
                    f"{_fmt(member)},{_fmt(certified)}"
                )
            else:
                row = stability.scan_point(fix.system, fix.x0, budget=args.budget)
                lines.append(
                    f"{_fmt(v1)},{_fmt(v2)},{_fmt(row['r_mu'])},"
                    f"{_fmt(row['r_alpha'])},{_fmt(row['r_p_best'])},"
                    f"{_fmt(row['certified'])}"
                )
    _write_table(lines, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# diagonalize


def cmd_diagonalize(args) -> int:
    sysd, _x0, _fix = _load_system(args)
    diag = nonresonant.diagonalize_carleman(sysd, args.k)
    dump: dict = {
        "residual": diag.residual,
        "inverse_residual": diag.inverse_residual,
        "blocks": {},
        "inverse_blocks": {},
    }
    try:
        delta = nonresonant.delta_gap_poincare(diag.eigenvalues)
    except (NotPoincareError, ResonanceFoundError, CapExceededError):
        delta = None
    report = nonresonant.norm_bounds_check(diag, delta)
    if delta is not None:
        dump["delta"] = delta
        dump["sparsity"] = report["sparsity"]
    for row in report["rows"]:
        key = f"{row['i']},{row['j']}"
        target = dump["blocks"] if row["family"] == "v" else dump["inverse_blocks"]
        target[key] = {"norm": row["norm"], "bound": row["bound"]}
    _pick_format(args, "json", ("json",))
    _write(json.dumps(dump, sort_keys=True, indent=2) + "\n", args.out)
    ok = diag.residual <= 1e-9 and diag.inverse_residual <= 1e-9 and report["all_ok"]
    return EXIT_OK if ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# combinatorics


def cmd_combinatorics(args) -> int:
    max_k = args.max_k
    if max_k > 8:
        raise CapExceededError("combinatorics table capped at k = 8")
    if max_k < 1:
        raise ValueError(f"--max-k must be at least 1, got {max_k}")
    lines = ["identity,j,k,lhs,rhs,pass"]
    sums = {k: fusion_sums(k) for k in range(1, max_k + 1)}
    for k in range(1, max_k + 1):
        lhs = sums[k][0]
        rhs = catalan(k)
        lines.append(f"fusion_equals_catalan,1,{k},{lhs},{rhs},{_fmt(lhs == rhs)}")
    for k in range(1, max_k + 1):
        for j in range(1, k + 1):
            lhs = sums[k][j - 1]
            rhs = catalan_convolution(j, k - j + 1)
            lines.append(
                f"fusion_equals_convolution,{j},{k},{lhs},{rhs},{_fmt(lhs == rhs)}"
            )
    for j in range(1, max_k + 1):
        for i in range(1, j + 1):
            count = len(enumerate_forests(i, j))
            closed = count_forests(i, j)
            bound = forest_count_bound(i, j)
            ok = count == closed and count <= bound
            lines.append(f"forest_count,{i},{j},{count},{closed},{_fmt(ok)}")
    _write_table(lines, args)
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="carleman-lab",
        description="Carleman lifts of quadratic ODEs: certificates, error "
        "profiles, diagonalization, combinatorial identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="run the certificate chain")
    _add_system_args(p)
    p.add_argument("--t", type=float, default=10.0, help="study horizon")
    p.add_argument(
        "--budget",
        type=int,
        default=2000,
        help="R_P witness search effort: pattern-search polls at n = 2, Nelder-Mead "
        "evaluations at n >= 3; n = 1 has nothing to search and ignores it",
    )
    p.add_argument(
        "--all",
        dest="all_certificates",
        action="store_true",
        help="report every certifier, not just the first success",
    )
    p.add_argument(
        "--f2-frequency",
        type=float,
        default=None,
        help="declared exp(i w t) modulation frequency of the quadratic term",
    )

    p = sub.add_parser("simulate", help="truncation-error profile vs the reference")
    _add_system_args(p)
    p.add_argument("--k", type=int, default=4, help="truncation order")
    p.add_argument("--t", type=float, default=2.0, help="final time")
    p.add_argument("--steps", type=int, default=8, help="number of output intervals")
    p.add_argument("--dump-states", action="store_true")

    p = sub.add_parser("scan", help="criterion values over a parameter lattice")
    _add_system_args(p)
    p.add_argument("--budget", type=int, default=400)
    p.add_argument("--max-points", type=int, default=10_000)

    p = sub.add_parser("diagonalize", help="explicit lift diagonalization dump")
    _add_system_args(p)
    p.add_argument("--k", type=int, default=4, help="truncation order")

    p = sub.add_parser("combinatorics", help="exact identity tables")
    p.add_argument("--max-k", type=int, default=8)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default=None)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code != 2:  # --help
            raise
        return EXIT_INPUT  # argparse's usage error is an input error
    # looked up per call, so a replaced cmd_<command> takes effect
    command = {
        "certify": cmd_certify,
        "simulate": cmd_simulate,
        "scan": cmd_scan,
        "diagonalize": cmd_diagonalize,
        "combinatorics": cmd_combinatorics,
    }[args.command]
    try:
        return command(args)
    except ResonantDenominatorError as exc:
        print(f"resonant denominator: {exc}", file=_sys.stderr)
        if exc.offending is not None:
            print(f"offending tuple: {exc.offending}", file=_sys.stderr)
        return EXIT_RESONANT
    except (
        ValueError,
        OSError,
        json.JSONDecodeError,
        UnknownFixtureError,
        ParamOutOfRangeError,
        DimensionCapError,
        CapExceededError,
    ) as exc:
        print(f"input error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    except CarlemanLabError as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    _sys.exit(main())
