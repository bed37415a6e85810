"""Convergence certificates for stable systems.

A stable linear part (spectral abscissa < 0) admits quadratic Lyapunov
witnesses P > 0, and every witness yields a sufficient lift-convergence
condition R_P < 1, where R_P measures nonlinearity-plus-drive strength
against the P-weighted decay rate.  R_mu (P = I) and R_alpha (eigenbasis
weight) are the two classical special cases.  The certificate also
carries the rescaling and the decay budget that turn R_P < 1 into a
concrete per-block error bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import (
    NonDiagonalizableError,
    NotPositiveDefiniteError,
    UncertifiedError,
    ZeroInitialStateError,
)
from .linalg import (
    _pd_sqrt_factors,
    as_cvector,
    generalized_log_norm,
    log_norm,
    p_norms,
    solve_lyapunov,
    spectral_abscissa,
)
from .system import QuadraticSystem, rescale

BLOCH_GRID_DEFAULT = 21
GAMMA_GRID_POINTS = 200


def _check_x0(x0) -> np.ndarray:
    v = as_cvector(x0)
    if np.linalg.norm(v) == 0.0:
        raise ZeroInitialStateError("R-numbers are undefined for x(0) = 0")
    return v


def r_mu(sys: QuadraticSystem, x0) -> float:
    """R-number of the plain log-norm; +inf when the log-norm is not negative."""
    v = _check_x0(x0)
    mu = log_norm(sys.f1)
    if mu >= 0:
        return np.inf
    nx = np.linalg.norm(v)
    return float(
        (np.linalg.norm(sys.f2, 2) * nx + np.linalg.norm(sys.f0) / nx) / (-mu)
    )


def r_alpha(sys: QuadraticSystem, x0) -> float:
    """R-number of the spectral abscissa, with norms taken in the eigenbasis."""
    v = _check_x0(x0)
    spec = sys.spectrum
    if not spec.dec.diagonalizable:
        raise NonDiagonalizableError("linear part is numerically defective")
    alpha = float(spec.dec.eigenvalues[0].real)
    if alpha >= 0:
        return np.inf
    nx = np.linalg.norm(spec.dec.inverse_vectors @ v)
    f0_t = spec.dec.inverse_vectors @ sys.f0
    return float((spec.f2_tilde_norm * nx + np.linalg.norm(f0_t) / nx) / (-alpha))


def r_p(sys: QuadraticSystem, x0, p) -> float:
    """Lyapunov R-number for the witness P; +inf when mu_P(F1) >= 0.

    R_P is R_mu in the coordinates y = P^{1/2} x, so P is factored once.
    """
    v = _check_x0(x0)
    root, inv_root = _pd_sqrt_factors(p)
    weighted = QuadraticSystem(
        f0=root @ sys.f0,
        f1=root @ sys.f1 @ inv_root,
        f2=root @ sys.f2 @ np.kron(inv_root, inv_root),
    )
    return r_mu(weighted, root @ v)


def rp_condition_number_bound(
    sys: QuadraticSystem, x0, kappa_p: float, mu_p: float
) -> float:
    """Weaker R_P upper bound that needs only kappa(P) and mu_P, not P itself."""
    v = _check_x0(x0)
    if mu_p >= 0:
        return np.inf
    nx = np.linalg.norm(v)
    return float(
        (
            kappa_p * np.linalg.norm(sys.f2, 2) * nx
            + np.sqrt(kappa_p) * np.linalg.norm(sys.f0) / nx
        )
        / (-mu_p)
    )


def xi_bound(sys: QuadraticSystem, p) -> float:
    """Decay budget 4 mu_P + 5 ||F0||_P + 3 ||F2||_P; negative means usable."""
    mu_p = generalized_log_norm(sys.f1, p)
    norms = p_norms(np.zeros(sys.n), sys.f2, sys.f0, p)
    return float(4.0 * mu_p + 5.0 * norms["f0"] + 3.0 * norms["f2"])


@dataclass(frozen=True)
class StabilityCertificate:
    """Outcome of the Lyapunov-witness search for one system and initial state.

    ``value`` is the best R-number found (criterion tells which family);
    ``certified`` requires value < 1 together with a rescaling gamma for
    which the decay budget xi is negative and the rescaled initial state
    has P-norm below one.  The remaining fields feed
    :func:`stable_error_bound`.
    """

    criterion: str
    value: float
    alpha: float
    mu: float
    certified: bool
    reason: str = ""
    p: np.ndarray | None = None
    gamma: float | None = None
    xi: float | None = None
    p_inv_norm: float | None = None
    f2_p_rescaled: float | None = None
    x0_p_rescaled: float | None = None
    kappa_p: float | None = None
    late_time_estimate: float | None = None


def _bloch_matrices(res: int) -> np.ndarray:
    """Unit-trace positive 2x2 matrices on an interior grid of the ball."""
    axis = np.linspace(-1.0, 1.0, res + 2)[1:-1]
    rx, ry, rz = np.meshgrid(axis, axis, axis, indexing="ij")
    r = np.stack([rx.ravel(), ry.ravel(), rz.ravel()], axis=1)
    r = r[np.sum(r * r, axis=1) < 1.0 - 1e-12]
    g = r.shape[0]
    p = np.empty((g, 2, 2), dtype=complex)
    p[:, 0, 0] = (1.0 + r[:, 2]) / 2.0
    p[:, 1, 1] = (1.0 - r[:, 2]) / 2.0
    p[:, 0, 1] = (r[:, 0] - 1j * r[:, 1]) / 2.0
    p[:, 1, 0] = (r[:, 0] + 1j * r[:, 1]) / 2.0
    return p


def _batched_rp(sys: QuadraticSystem, x0: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Vectorized R_P over a stack of 2x2 weights; +inf where infeasible."""
    evals, vecs = np.linalg.eigh(ps)
    good = evals[:, 0] > 1e-14
    sq = np.einsum("gij,gj,gkj->gik", vecs, np.sqrt(np.maximum(evals, 1e-300)), vecs.conj())
    isq = np.einsum(
        "gij,gj,gkj->gik", vecs, 1.0 / np.sqrt(np.maximum(evals, 1e-300)), vecs.conj()
    )
    s = sq @ sys.f1 @ isq
    mu = np.linalg.eigvalsh((s + s.conj().transpose(0, 2, 1)) / 2.0)[:, -1]
    kron_isq = np.einsum("gij,gkl->gikjl", isq, isq).reshape(-1, 4, 4)
    f2w = sq @ sys.f2 @ kron_isq
    f2n = np.linalg.svd(f2w, compute_uv=False)[:, 0]
    x0n = np.sqrt(np.einsum("i,gij,j->g", x0.conj(), ps, x0).real)
    f0n = np.sqrt(np.einsum("i,gij,j->g", sys.f0.conj(), ps, sys.f0).real)
    vals = np.full(ps.shape[0], np.inf)
    ok = good & (mu < 0) & (x0n > 0)
    vals[ok] = (f2n[ok] * x0n[ok] + f0n[ok] / x0n[ok]) / (-mu[ok])
    return vals


def _gamma_search(sys: QuadraticSystem, x0: np.ndarray, p: np.ndarray):
    """Find a rescaling making the decay budget negative and ||g x0||_P < 1.

    Scans a 200-point log grid around 1/||x0||_P and keeps the feasible
    gamma with the most negative budget, then refines locally.  Returns
    (gamma, xi) or (None, None) when no grid point is feasible.
    """
    norms = p_norms(x0, sys.f2, sys.f0, p)
    mu_p = generalized_log_norm(sys.f1, p)
    x0_p, f0_p, f2_p = norms["x"], norms["f0"], norms["f2"]

    def budget(g: float):
        xi = 4.0 * mu_p + 5.0 * g * f0_p + 3.0 * f2_p / g
        rbar = mu_p + g * f0_p + f2_p / g
        feasible = (g * x0_p < 1.0) and (xi < 0.0) and (rbar < 0.0)
        return xi, feasible

    def best_on(grid):
        top = None
        for g in grid:
            xi, ok = budget(g)
            if ok and (top is None or xi < top[1]):
                top = (g, xi)
        return top

    center = 1.0 / x0_p
    candidates = list(np.geomspace(1e-3 * center, 1e3 * center, GAMMA_GRID_POINTS))
    # analytic candidates: the top of the admissible window, the budget
    # minimizer, and the midpoint of the feasibility interval
    for frac in (0.9, 0.99, 0.999):
        candidates.append(frac * center)
    if f0_p > 0:
        candidates.append(np.sqrt(3.0 * f2_p / (5.0 * f0_p)))
        if mu_p < 0:
            for frac in (0.9, 0.99):
                candidates.append(frac * (-mu_p) / (2.0 * f0_p))
    if f2_p > 0 and mu_p < 0:
        lo = f2_p / (-mu_p)
        candidates.append(np.sqrt(lo * center))
    coarse = best_on(candidates)
    if coarse is None:
        return None, None
    fine = best_on(
        np.geomspace(coarse[0] / 1.2, coarse[0] * 1.2, GAMMA_GRID_POINTS)
    )
    g, xi = fine if fine is not None else coarse
    return float(g), float(xi)


def _certificate_from_p(
    sys: QuadraticSystem, x0: np.ndarray, p: np.ndarray, value: float
) -> StabilityCertificate:
    alpha = spectral_abscissa(sys.f1)
    mu = log_norm(sys.f1)
    mu_p = generalized_log_norm(sys.f1, p)
    pinv_norm = float(np.linalg.norm(np.linalg.inv(p), 2))
    kappa_p = float(np.linalg.norm(p, 2) * pinv_norm)
    norms = p_norms(x0, sys.f2, sys.f0, p)
    disc = mu_p * mu_p - 4.0 * norms["f0"] * norms["f2"]
    late = None
    if norms["f2"] > 0 and disc >= 0:
        late = float((-mu_p - np.sqrt(disc)) / (2.0 * norms["f2"]))
    gamma, xi = (None, None)
    if value < 1.0:
        gamma, xi = _gamma_search(sys, x0, p)
    certified = value < 1.0 and gamma is not None
    reason = ""
    if value >= 1.0:
        reason = "no witness with R_P < 1 found"
    elif gamma is None:
        reason = "no rescaling with negative decay budget found"
    rescaled = rescale(sys, gamma) if gamma is not None else None
    return StabilityCertificate(
        criterion="R_P",
        value=float(value),
        alpha=alpha,
        mu=mu,
        certified=certified,
        reason=reason,
        p=p,
        gamma=gamma,
        xi=xi,
        p_inv_norm=pinv_norm,
        f2_p_rescaled=(
            None
            if rescaled is None
            else p_norms(x0, rescaled.f2, rescaled.f0, p)["f2"]
        ),
        x0_p_rescaled=None if gamma is None else float(gamma * norms["x"]),
        kappa_p=kappa_p,
        late_time_estimate=late,
    )


def _lower_triangular_params(p: np.ndarray) -> np.ndarray:
    n = p.shape[0]
    ell = np.linalg.cholesky(p)
    params = [np.log(ell[i, i].real) for i in range(n)]
    for i in range(1, n):
        for j in range(i):
            params.extend([ell[i, j].real, ell[i, j].imag])
    return np.array(params)


def _p_from_params(theta: np.ndarray, n: int) -> np.ndarray:
    ell = np.zeros((n, n), dtype=complex)
    for i in range(n):
        ell[i, i] = np.exp(np.clip(theta[i], -200, 200))
    pos = n
    for i in range(1, n):
        for j in range(i):
            ell[i, j] = theta[pos] + 1j * theta[pos + 1]
            pos += 2
    return ell @ ell.conj().T


def optimize_rp(
    sys: QuadraticSystem, x0, budget: int = 2000, bloch_resolution: int = BLOCH_GRID_DEFAULT
) -> StabilityCertificate:
    """Search the Lyapunov cone for the witness with the smallest R_P.

    For two-dimensional systems the unit-trace witnesses form a ball
    (three real parameters) which is scanned on a coarse grid and then
    polished with Nelder-Mead; in higher dimension the search runs over
    Cholesky factors from Lyapunov-solution and eigenbasis seeds.  The
    identity and eigenbasis weights are always evaluated, so the result
    never loses to R_mu or R_alpha.
    """
    v = _check_x0(x0)
    alpha = spectral_abscissa(sys.f1)
    if alpha >= 0:
        return StabilityCertificate(
            criterion="R_P",
            value=np.inf,
            alpha=alpha,
            mu=log_norm(sys.f1),
            certified=False,
            reason="spectral abscissa >= 0: not a stable system",
        )
    n = sys.n

    seeds: list[np.ndarray] = [np.eye(n, dtype=complex)]
    dec = sys.spectrum.dec
    if dec.diagonalizable:
        w = dec.inverse_vectors
        seeds.append(w.conj().T @ w)
    try:
        seeds.append(solve_lyapunov(sys.f1))
    except Exception:
        pass

    best_p = None
    best_val = np.inf
    for p0 in seeds:
        try:
            val = r_p(sys, v, p0)
        except NotPositiveDefiniteError:
            continue
        if val < best_val:
            best_val, best_p = val, p0

    if n == 2:
        grid = _bloch_matrices(bloch_resolution)
        vals = _batched_rp(sys, v, grid)
        idx = int(np.argmin(vals))
        if vals[idx] < best_val:
            best_val, best_p = float(vals[idx]), grid[idx]

        def objective(r3):
            if np.sum(r3 * r3) >= 1.0 - 1e-12:
                return 1e12 * (1.0 + np.sum(r3 * r3))
            p = np.array(
                [
                    [(1.0 + r3[2]) / 2.0, (r3[0] - 1j * r3[1]) / 2.0],
                    [(r3[0] + 1j * r3[1]) / 2.0, (1.0 - r3[2]) / 2.0],
                ]
            )
            try:
                val = r_p(sys, v, p)
            except NotPositiveDefiniteError:
                return 1e12
            return val if np.isfinite(val) else 1e12

        starts = []
        if best_p is not None and best_p.shape == (2, 2):
            pn = best_p / np.trace(best_p).real
            starts.append(
                np.array(
                    [
                        2.0 * pn[1, 0].real,
                        2.0 * pn[1, 0].imag,
                        (pn[0, 0] - pn[1, 1]).real,
                    ]
                )
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
                r3 = res.x
                best_val = float(res.fun)
                best_p = np.array(
                    [
                        [(1.0 + r3[2]) / 2.0, (r3[0] - 1j * r3[1]) / 2.0],
                        [(r3[0] + 1j * r3[1]) / 2.0, (1.0 - r3[2]) / 2.0],
                    ]
                )
    else:

        def objective(theta):
            p = _p_from_params(theta, n)
            try:
                val = r_p(sys, v, p)
            except NotPositiveDefiniteError:
                return 1e12
            return val if np.isfinite(val) else 1e12

        per_seed = max(budget // max(len(seeds), 1), 100)
        for p0 in seeds:
            try:
                theta0 = _lower_triangular_params(p0)
            except np.linalg.LinAlgError:
                continue
            res = minimize(
                objective,
                theta0,
                method="Nelder-Mead",
                options={"maxfev": per_seed, "xatol": 1e-10, "fatol": 1e-12},
            )
            if res.fun < best_val:
                best_val = float(res.fun)
                best_p = _p_from_params(res.x, n)

    if best_p is None:
        return StabilityCertificate(
            criterion="R_P",
            value=np.inf,
            alpha=alpha,
            mu=log_norm(sys.f1),
            certified=False,
            reason="no positive-definite witness evaluated successfully",
        )
    return _certificate_from_p(sys, v, best_p, best_val)


def stable_error_bound(cert: StabilityCertificate, j: int, k: int, t: float) -> float:
    """Per-block truncation-error bound implied by a certified witness.

    Applies to the gamma-rescaled system the certificate records; the
    bound k ||F2||_P ||P^{-1}||^{j/2} ||x(0)||_P^{k+1} / (-xi) is uniform
    in time, so ``t`` only participates in validation.
    """
    if not cert.certified or cert.xi is None or cert.xi >= 0:
        raise UncertifiedError("certificate is not certified")
    if not (1 <= j <= k):
        raise ValueError("need 1 <= j <= k")
    if t < 0:
        raise ValueError("time must be nonnegative")
    return float(
        k
        * cert.f2_p_rescaled
        * cert.p_inv_norm ** (j / 2.0)
        * cert.x0_p_rescaled ** (k + 1)
        / (-cert.xi)
    )


def region_scan(family, grid, x0, budget: int = 400) -> list[dict]:
    """Evaluate R_mu / R_alpha / best R_P on a parameter lattice.

    ``family`` maps a parameter pair to a QuadraticSystem; the output is
    one row per lattice point, in input order, ready for CSV emission.
    Instability and defectiveness are recorded per point, never raised.
    """
    rows = []
    for p1, p2 in grid:
        sys = family(p1, p2)
        row = {"param1": float(p1), "param2": float(p2)}
        row["r_mu"] = r_mu(sys, x0)
        try:
            row["r_alpha"] = r_alpha(sys, x0)
        except NonDiagonalizableError:
            row["r_alpha"] = np.inf
        cert = optimize_rp(sys, x0, budget=budget)
        row["r_p_best"] = cert.value
        row["certified"] = bool(cert.certified)
        rows.append(row)
    return rows
