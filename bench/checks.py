"""Output checks for benchmark requests.

Every seed gets the invariant checks.  The default seed is also compared
with ``reference.json``, recorded at the commit that introduced the
benchmark: exit codes, stages, criteria and other discrete fields must
match exactly, floats within ``ATOL + RTOL * |reference|``.
"""

from __future__ import annotations

import json
import math

# Floats in the outputs are truncation errors down to the reference
# solve's noise floor (about 2e-13), R-numbers from a Nelder-Mead search
# run to fatol 1e-12, and norms of products of dense matrices.  Another
# BLAS kernel or thread count moves them in the last few digits, far
# below these tolerances; the smallest truncation errors that matter
# (about 1e-7) still have to agree to 1e-4.
ATOL = 1e-11
RTOL = 1e-6

RESIDUAL_MAX = 1e-9
T0_ERROR_MAX = 1e-12
EXIT_OK = 0
EXIT_UNCERTIFIED = 3


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def extract(req, output) -> dict:
    """Flatten a request's output into named fields for comparison.

    ``output`` is ``(exit_code, text)`` for CLI requests and the returned
    dict for library calls.
    """
    if req.kind == "sweep":
        fields = {f"error.k{k}": v for k, v in output["errors"].items()}
        fields["fitted_ratio"] = output["fitted_ratio"]
        return fields
    code, text = output
    fields = {"exit": code}
    if req.kind in ("simulate", "combinatorics"):
        lines = text.splitlines()
        fields["header"] = lines[0]
        fields["rows"] = len(lines) - 1
        for line in lines[1:]:
            cells = line.split(",")
            if req.kind == "simulate":
                t, block, eta = cells
                fields[f"eta.t{t}.b{block}"] = float(eta)
            else:
                fields["/".join(cells[:3])] = ",".join(cells[3:])
        return fields
    data = json.loads(text)
    if req.kind == "certify":
        fields["stage"] = data["stage"]
        fields["criterion"] = data["criterion"]
        fields["certified"] = data["certified"]
        cert = data["certificate"]
        if cert is not None:
            fields["value"] = cert["value"]
        for stage, diag in sorted((data.get("diagnostics") or {}).items()):
            fields[f"diagnostics.{stage}.value"] = diag["value"]
            fields[f"diagnostics.{stage}.certified"] = diag["certified"]
        return fields
    if req.kind == "diagonalize":
        fields["residual"] = data["residual"]
        fields["inverse_residual"] = data["inverse_residual"]
        fields["delta"] = data.get("delta")
        fields["sparsity"] = data.get("sparsity")
        for family in ("blocks", "inverse_blocks"):
            for key, row in sorted(data[family].items()):
                fields[f"{family}.{key}.norm"] = row["norm"]
                fields[f"{family}.{key}.bound"] = row["bound"]
        return fields
    raise ValueError(f"unknown request kind {req.kind!r}")


def invariants(req, fields: dict) -> list[str]:
    """Seed-independent properties of a request's output."""
    problems = []
    kind, shape = req.kind, req.shape
    if kind != "sweep" and fields["exit"] != (
        EXIT_UNCERTIFIED if kind == "certify" and shape["stage"] is None else EXIT_OK
    ):
        problems.append(f"exit code {fields['exit']}")
    if kind == "simulate":
        k, steps = shape["k"], shape["steps"]
        etas = {key: v for key, v in fields.items() if key.startswith("eta.")}
        if fields["rows"] != (steps + 1) * k or len(etas) != (steps + 1) * k:
            problems.append(f"{fields['rows']} rows, expected {(steps + 1) * k}")
        if not all(_finite(v) for v in etas.values()):
            problems.append("non-finite error norm")
        t0 = [v for key, v in etas.items() if key.startswith("eta.t0.b")]
        if len(t0) != k or not all(abs(v) <= T0_ERROR_MAX for v in t0):
            problems.append(f"error at t=0 above {T0_ERROR_MAX}")
    elif kind == "sweep":
        k_min, k_max = shape["k"]
        errors = {key: v for key, v in fields.items() if key.startswith("error.k")}
        if sorted(errors) != sorted(f"error.k{k}" for k in range(k_min, k_max + 1)):
            problems.append("missing truncation orders")
        if not all(_finite(v) and v >= 0 for v in errors.values()):
            problems.append("non-finite sweep error")
    elif kind == "certify":
        if fields["stage"] != shape["stage"]:
            problems.append(f"stage {fields['stage']}, expected {shape['stage']}")
    elif kind == "diagonalize":
        for key in ("residual", "inverse_residual"):
            if not (_finite(fields[key]) and fields[key] <= RESIDUAL_MAX):
                problems.append(f"{key} {fields[key]}")
        norms = {key: v for key, v in fields.items() if key.endswith(".norm")}
        bounds = {key: fields[key[: -len("norm")] + "bound"] for key in norms}
        if None in bounds.values():
            # the CLI drops every bound when delta_gap_poincare raises, i.e.
            # when it does not take the spectrum for non-resonant Poincare
            problems.append("no block bounds: spectrum not classified as Poincare-domain")
        else:
            for key, norm in norms.items():
                if not norm <= bounds[key] * (1.0 + 1e-9):
                    problems.append(f"{key} {norm} above bound {bounds[key]}")
    elif kind == "combinatorics":
        rows = [v for key, v in fields.items() if "/" in key]
        if len(rows) != fields["rows"] or not all(v.endswith(",true") for v in rows):
            problems.append("a combinatorics row fails")
    return problems


def _close(value, ref) -> bool:
    if isinstance(ref, float) and not isinstance(value, bool):
        return isinstance(value, (int, float)) and abs(value - ref) <= ATOL + RTOL * abs(ref)
    return value == ref


def against_reference(fields: dict, ref: dict) -> list[str]:
    """Differences from the recorded default-seed output."""
    problems = []
    for key in sorted(set(fields) | set(ref)):
        if key not in fields or key not in ref:
            problems.append(f"field {key} present on one side only")
        elif not _close(fields[key], ref[key]):
            problems.append(f"{key}: {fields[key]!r} != reference {ref[key]!r}")
    return problems
