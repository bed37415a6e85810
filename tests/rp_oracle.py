"""Nelder-Mead reference search for the two-dimensional R_P witness, for the tests.

:func:`nelder_mead_planar_rp` is the n = 2 search that
:func:`carleman_lab.stability.optimize_rp` ran before its pattern search:
the identity, eigenbasis and Lyapunov-solution seeds scored by
:func:`carleman_lab.stability.r_p`, the interior Bloch-ball grid scored by
the closed-form :func:`carleman_lab.stability._planar_rp`, then
Nelder-Mead polishes (``maxfev`` = ``budget``, xatol 1e-10, fatol 1e-12)
from the better of the grid point and the best seed mapped onto the
ball, and from the ball's centre.  The production search must never
end above it by more than roundoff.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from carleman_lab.errors import NotPositiveDefiniteError, NotStableError, SingularSystemError
from carleman_lab.linalg import solve_lyapunov
from carleman_lab.stability import (
    BLOCH_GRID_RESOLUTION,
    _bloch_matrices,
    _bloch_weight,
    _check_x0,
    _planar_rp,
    r_p,
)
from carleman_lab.system import QuadraticSystem


def nelder_mead_planar_rp(sys: QuadraticSystem, x0, budget: int = 2000):
    """(value, P) of the best witness the Nelder-Mead search finds for a stable n = 2 system."""
    assert sys.n == 2 and sys.spectrum.abscissa < 0
    v = _check_x0(x0)
    spec = sys.spectrum
    seeds = [np.eye(2, dtype=complex)]
    if spec.dec.diagonalizable:
        w = spec.dec.inverse_vectors
        seeds.append(w.conj().T @ w)
    try:
        seeds.append(solve_lyapunov(sys.f1))
    except (NotStableError, SingularSystemError):
        pass
    best_p, best_val = None, np.inf
    for p0 in seeds:
        try:
            val = r_p(sys, v, p0)
        except NotPositiveDefiniteError:
            continue
        if val < best_val:
            best_val, best_p = val, p0

    grid = _bloch_matrices(BLOCH_GRID_RESOLUTION)
    vals = _planar_rp(sys, v, *_bloch_weight(grid.T))
    idx = int(np.argmin(vals))
    best_r = None
    if vals[idx] < best_val:
        best_val, best_r = float(vals[idx]), grid[idx]

    def objective(r3):
        rx, ry, rz = r3.tolist()
        rr = rx * rx + ry * ry + rz * rz
        if rr >= 1.0 - 1e-12:
            return 1e12 * (1.0 + rr)
        try:
            val = _planar_rp(sys, v, *_bloch_weight((rx, ry, rz)))
        except NotPositiveDefiniteError:
            return 1e12
        return val if np.isfinite(val) else 1e12

    starts = []
    if best_r is not None:
        starts.append(best_r)
    elif best_p is not None:
        pn = best_p / np.trace(best_p).real
        starts.append(
            np.array([2.0 * pn[1, 0].real, 2.0 * pn[1, 0].imag, (pn[0, 0] - pn[1, 1]).real])
        )
    starts.append(np.zeros(3))
    for s0 in starts:
        res = minimize(
            objective,
            s0,
            method="Nelder-Mead",
            options={"maxfev": budget, "xatol": 1e-10, "fatol": 1e-12},
        )
        if res.fun < best_val:
            best_val, best_r = float(res.fun), res.x
    if best_r is not None:
        a, b, d = _bloch_weight(best_r.tolist())
        best_p = np.array([[a, b], [b.conjugate(), d]])
    return best_val, best_p
