"""Resonance analysis and explicit diagonalization of Carleman lifts.

For a driftless system with diagonalizable linear part, the lift
generator is block upper bidiagonal and, absent resonances among the
eigenvalues, similar to the diagonal matrix of all tensor-power
eigenvalue sums.  The similarity transform, the Carleman matrix of the
normal-form map, and its inverse, that of the map's compositional
inverse, decompose into blocks indexed by binary forests; this module
builds those blocks, verifies the analytic norm bounds, and evaluates
the resulting truncation-error bounds for Poincare-domain,
split-Siegel, and oscillating-nonlinearity certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .errors import (
    CapExceededError,
    DriveNotSupportedError,
    FrequencyTooSmallError,
    NonDiagonalizableError,
    NonFiniteStateError,
    NotPoincareError,
    ResonanceFoundError,
    ResonantDenominatorError,
    StepSizeUnderflowError,
    UncertifiedError,
    WrongSignError,
)
from .forests import LEAF, TreeStructure, compositions, enumerate_trees
from .linalg import as_cvector, column_sparsity, kron_chain, origin_hull_status
from .system import QuadraticSystem, Spectrum

RESONANCE_RTOL = 1e-10
DENOMINATOR_RTOL = 1e-12
ORDER_CAP_LIMIT = 12
_DELTA1_HARD_CAP = 200

POINCARE = "poincare"
SIEGEL = "siegel"
BOUNDARY = "boundary"


def _scale(lams: np.ndarray) -> float:
    return float(np.max(np.abs(lams))) if lams.size else 0.0


def _alpha_vector(combo, n: int) -> tuple:
    alpha = [0] * n
    for idx in combo:
        alpha[idx] += 1
    return tuple(alpha)


def _combination_gaps(ev: np.ndarray, top: int):
    """(order, combo, gaps) for every multiset of 2..top eigenvalue indices.

    ``gaps[i]`` is |lambda_i - sum of the combo's eigenvalues|.
    """
    for total in range(2, top + 1):
        for combo in combinations_with_replacement(range(ev.size), total):
            yield total, combo, np.abs(ev - ev[list(combo)].sum())


def _nonresonant_gaps(ev: np.ndarray, top: int):
    """(order, gaps) per multiset; raises ResonanceFoundError at the first resonance."""
    tol = RESONANCE_RTOL * max(_scale(ev), 1e-300)
    for total, combo, gaps in _combination_gaps(ev, top):
        if np.any(gaps <= tol):
            i = int(np.argmin(gaps))
            raise ResonanceFoundError(
                f"resonance at eigenvalue index {i}",
                tuples=[(i, _alpha_vector(combo, ev.size))],
            )
        yield total, gaps


@dataclass(frozen=True)
class SpectrumClassification:
    """Resonance census and geometric placement of a spectrum."""

    eigenvalues: np.ndarray
    resonant_tuples: list
    order_cap: int
    domain: str | None = None
    delta_gap: float | None = None
    separating_direction: complex | None = None
    siegel_type: tuple | None = None  # (C, nu) fitted over enumerated orders


def check_resonance(lams, order_cap: int) -> SpectrumClassification:
    """Exhaustive resonance search over integer combinations of bounded order."""
    if not 2 <= order_cap <= ORDER_CAP_LIMIT:
        raise ValueError(f"order cap must lie in [2, {ORDER_CAP_LIMIT}]")
    ev = as_cvector(lams)
    tol = RESONANCE_RTOL * max(_scale(ev), 1e-300)
    found = [
        (int(i), _alpha_vector(combo, ev.size))
        for _, combo, gaps in _combination_gaps(ev, order_cap)
        for i in np.nonzero(gaps <= tol)[0]
    ]
    return SpectrumClassification(ev, found, order_cap)


def classify_domain(lams) -> str:
    """Poincare / Siegel / Boundary placement of the origin w.r.t. the hull."""
    ev = as_cvector(lams)
    status = origin_hull_status(ev)
    if not status.inside:
        return POINCARE
    if status.boundary_distance < 1e-12:
        return BOUNDARY
    return SIEGEL


def delta_gap_components(lams, order_cap: int = 6) -> dict:
    """Both ingredients of the all-orders no-resonance gap.

    ``analytic`` is the separating-direction lower bound covering every
    order at and beyond the crossover ``enumerated_up_to``; ``enumerated``
    is the exact minimum over the orders below it.  Reporting both makes
    it visible which side is binding when they differ a lot.
    """
    ev = as_cvector(lams)
    if classify_domain(ev) != POINCARE:
        raise NotPoincareError("spectrum does not lie in the Poincare domain")
    status = origin_hull_status(ev)
    omega = status.separating_direction
    f = (ev.conj() * omega).real
    c1, c2 = float(f.min()), float(f.max())
    k0 = math.ceil(c2 / c1) + 1
    delta0 = (c1 * k0 - c2) / (k0 - 1)
    top = max(k0 - 1, order_cap)
    if top > _DELTA1_HARD_CAP:
        raise CapExceededError(f"gap enumeration needs order {top} > {_DELTA1_HARD_CAP}")
    delta1 = min(
        (float(gaps.min()) / (total - 1) for total, gaps in _nonresonant_gaps(ev, top)),
        default=np.inf,
    )
    return {
        "analytic": float(delta0),
        "enumerated": float(delta1),
        "enumerated_up_to": top,
        "separating_direction": omega,
    }


def delta_gap_poincare(lams, order_cap: int = 6) -> float:
    """Normalized no-resonance gap, valid for all orders.

    Combines the exact minimum over enumerated low orders with the
    separating-direction lower bound that covers every higher order, so
    the returned value certifies the full infimum, not just the orders
    enumerated.
    """
    parts = delta_gap_components(lams, order_cap=order_cap)
    return min(parts["analytic"], parts["enumerated"])


def level_sums(lams, j: int) -> np.ndarray:
    """All j-fold eigenvalue sums in lexicographic order (first slot most significant)."""
    ev = as_cvector(lams)
    out = ev
    for _ in range(j - 1):
        out = (out[:, None] + ev[None, :]).ravel()
    return out


def build_nl(lams, l: int) -> np.ndarray:
    """Reciprocal-combination matrix with entries 1/(sum of l eigenvalues - lambda_i)."""
    ev = as_cvector(lams)
    sums = level_sums(ev, l)
    den = sums[None, :] - ev[:, None]
    scale = max(_scale(ev), 1e-300)
    bad = np.abs(den) <= DENOMINATOR_RTOL * scale
    if np.any(bad):
        i, col = np.argwhere(bad)[0]
        combo = tuple(
            int(c) for c in np.unravel_index(int(col), (ev.size,) * l)
        )
        raise ResonantDenominatorError(
            f"denominator vanishes for eigenvalue {int(i)} against tuple {combo}",
            offending=(int(i), combo),
        )
    return 1.0 / den


def _tree_sums(lams, f2_tilde, max_leaves: int) -> dict[int, np.ndarray]:
    """W_m = sum of forward weights over all trees with m leaves.

    Recursion over the root split; every term is the Hadamard product of
    the level-m reciprocal matrix with the quadratic map applied to a
    pair of smaller sums, which is exactly the per-tree construction
    summed over shapes.
    """
    n = lams.size
    w = {1: np.eye(n, dtype=complex)}
    for m in range(2, max_leaves + 1):
        nl = build_nl(lams, m)
        acc = np.zeros((n, n**m), dtype=complex)
        for a in range(1, m):
            acc += nl * (f2_tilde @ np.kron(w[a], w[m - a]))
        w[m] = acc
    return w


def build_v_blocks(lams, f2_tilde, k: int) -> dict:
    """All upper blocks of the diagonalizing transform in eigencoordinates.

    Block (i, j) sums the forest weights over ordered forests with i
    trees and j leaves; diagonal blocks are identities and the family is
    independent of the truncation order beyond j.
    """
    ev = as_cvector(lams)
    f2t = np.asarray(f2_tilde, dtype=complex)
    return _forest_blocks(_tree_sums(ev, f2t, k), k)


def _forest_blocks(sums: dict, k: int) -> dict:
    """Block (i, j) = sum over compositions of j into i parts of the Kronecker chains."""
    blocks: dict = {}
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            acc = None
            for comp in compositions(j, i):
                term = kron_chain([sums[m] for m in comp])
                acc = term if acc is None else acc + term
            blocks[(i, j)] = acc
    return blocks


def _g_tree_operator(tree, lams: np.ndarray, f2_tilde: np.ndarray) -> np.ndarray:
    """Inverse-transform weight of a single tree shape.

    Sums, over all node labelings, the product of quadratic-map entries
    at the internal nodes times the topological-order weight, whose
    factors are reciprocal frontier eigenvalue sums against the root.
    """
    n = lams.size
    if tree == LEAF:
        return np.eye(n, dtype=complex)
    ts = TreeStructure(tree)
    nodes = ts.n_nodes
    m = len(ts.leaves)
    grid_size = n**nodes
    idx = np.arange(grid_size)
    labels = np.empty((grid_size, nodes), dtype=np.int64)
    for pos in range(nodes):
        labels[:, pos] = (idx // n ** (nodes - 1 - pos)) % n
    alpha = np.ones(grid_size, dtype=complex)
    for v in ts.internal:
        c1, c2 = ts.children[v]
        alpha *= f2_tilde[labels[:, v], labels[:, c1] * n + labels[:, c2]]
    live = np.nonzero(alpha != 0)[0]
    out = np.zeros((n, n**m), dtype=complex)
    if live.size == 0:
        return out
    labels = labels[live]
    alpha = alpha[live]
    lam_nodes = lams[labels]  # (live, nodes)
    root_lam = lam_nodes[:, ts.root]
    gamma = np.zeros(live.size, dtype=complex)
    for frontiers in ts.order_frontiers():
        term = np.ones(live.size, dtype=complex)
        for frontier in frontiers:
            den = lam_nodes[:, list(frontier)].sum(axis=1) - root_lam
            term = term / den
        gamma += term
    cols = np.zeros(live.size, dtype=np.int64)
    for leaf in ts.leaves:
        cols = cols * n + labels[:, leaf]
    np.add.at(out, (labels[:, ts.root], cols), alpha * gamma)
    return out


def _g_sums(lams, f2_tilde, max_leaves: int) -> dict[int, np.ndarray]:
    n = lams.size
    g = {1: np.eye(n, dtype=complex)}
    for m in range(2, max_leaves + 1):
        acc = np.zeros((n, n**m), dtype=complex)
        for tree in enumerate_trees(m):
            acc += _g_tree_operator(tree, lams, f2_tilde)
        g[m] = acc
    return g


def build_vinv_blocks(lams, f2_tilde, k: int) -> dict:
    """All upper blocks of the inverse transform in eigencoordinates.

    V^{-1} is the Carleman matrix of the compositional inverse of the
    normal-form map: its first block row G_1 = I, G_j = -sum_{m<j} G_m V_(m,j)
    solves (V^{-1} V)_(1,j) = 0, and block (i, j) is built from the G_m
    like V from the forest weights.
    """
    return _compositional_inverse(build_v_blocks(lams, f2_tilde, k), k)


def _compositional_inverse(v: dict, k: int) -> dict:
    """V^{-1} blocks from the V blocks of :func:`build_v_blocks`."""
    g = {1: v[(1, 1)]}
    for j in range(2, k + 1):
        g[j] = -sum(g[m] @ v[(m, j)] for m in range(1, j))
    return _forest_blocks(g, k)


def _vinv_blocks_by_forest(lams, f2_tilde, k: int) -> dict:
    """Test oracle for :func:`build_vinv_blocks`, independent of V.

    Sums signed per-tree weights over node labelings and topological
    orders; exponential in k.
    """
    ev = as_cvector(lams)
    f2t = np.asarray(f2_tilde, dtype=complex)
    # resonance screening happens in the forward construction; run it
    # here too so the forest route fails identically on resonant input
    for m in range(2, k + 1):
        build_nl(ev, m)
    blocks = _forest_blocks(_g_sums(ev, f2t, k), k)
    for (i, j), b in blocks.items():
        if (j - i) % 2:
            b *= -1.0
    return blocks


@dataclass(frozen=True)
class CarlemanDiagonalization:
    """Explicit similarity transform of a lift generator in eigencoordinates.

    Both residuals are checked block by block on the sparse lift A~ of the
    system in eigencoordinates, over every upper block (i, j) of V and
    W = V^{-1}, with D_j = diag(level_sums(eigenvalues, j)):

    * ``residual`` = sqrt(sum ||R_(i,j)||_F^2) / max|entry of A~|, where
      R_(i,j) = A~_(i,i) V_(i,j) + A~_(i,i+1) V_(i+1,j) - V_(i,j) D_j (the
      second term only for i < j) is block (i, j) of A~ V - V D;
    * ``inverse_residual`` = sqrt(sum ||E_(i,j)||_F^2), where
      E_(i,j) = sum_{m=i..j} V_(i,m) W_(m,j) - delta_ij I is block (i, j)
      of V W - I.

    Since ||.||_2 <= ||.||_F and max|entry| <= ||A~||_2, each bounds the
    dense quantity ||A~ V - V D||_2 / ||A~||_2, resp. ||V W - I||_2, from
    above.
    """

    k: int
    n: int
    eigenvalues: np.ndarray
    q: np.ndarray
    f2_tilde: np.ndarray
    v_blocks: dict
    vinv_blocks: dict
    residual: float
    inverse_residual: float

    def level_entries(self, j: int) -> np.ndarray:
        return level_sums(self.eigenvalues, j)

    def ambient_v_block(self, i: int, j: int) -> np.ndarray:
        """Transform block in the original (non-eigen) coordinates."""
        return kron_chain([self.q] * i) @ self.v_blocks[(i, j)]


def _blockwise_residuals(lift, lams, v: dict, w: dict) -> tuple[float, float]:
    """``residual`` and ``inverse_residual`` of :class:`CarlemanDiagonalization`."""
    truncated = (*lift.diag, *lift.upper[: lift.k - 1])
    scale = max(max(abs(b).max() for b in truncated), 1e-300)
    similarity, inverse = [], []
    for (i, j), vij in v.items():
        r = lift.block_diag(i) @ vij - vij * level_sums(lams, j)[None, :]
        if i < j:
            r += lift.block_upper(i) @ v[(i + 1, j)]
        e = sum(v[(i, m)] @ w[(m, j)] for m in range(i, j + 1))
        if i == j:
            e[np.diag_indices_from(e)] -= 1.0
        similarity.append(np.linalg.norm(r))
        inverse.append(np.linalg.norm(e))
    return (
        float(np.linalg.norm(similarity) / scale),
        float(np.linalg.norm(inverse)),
    )


def diagonalize_carleman(sys: QuadraticSystem, k: int) -> CarlemanDiagonalization:
    """Build and verify the explicit diagonalization of the order-k lift."""
    from .carleman import build_blocks

    if np.linalg.norm(sys.f0) > 0:
        raise DriveNotSupportedError("diagonalization requires a driftless system")
    spec = sys.spectrum
    if not spec.dec.diagonalizable:
        raise NonDiagonalizableError("linear part is numerically defective")
    lams, q, f2t = spec.dec.eigenvalues, spec.dec.right_vectors, spec.f2_tilde
    transformed = QuadraticSystem(
        f0=np.zeros(sys.n), f1=np.diag(lams), f2=f2t
    )
    lift = build_blocks(transformed, k)
    v_blocks = build_v_blocks(lams, f2t, k)
    vinv_blocks = _compositional_inverse(v_blocks, k)
    residual, inverse_residual = _blockwise_residuals(lift, lams, v_blocks, vinv_blocks)
    return CarlemanDiagonalization(
        k=k,
        n=sys.n,
        eigenvalues=lams,
        q=q,
        f2_tilde=f2t,
        v_blocks=v_blocks,
        vinv_blocks=vinv_blocks,
        residual=residual,
        inverse_residual=inverse_residual,
    )


def block_norm(block: np.ndarray) -> float:
    """Spectral norm of one transform block; an exact identity is 1.0 without an SVD.

    The diagonal blocks of V and V^{-1} are identities, and at n=3, k=6
    their SVDs were most of :func:`norm_bounds_check`.  The 2-norm of an
    identity is exactly 1.0, so the shortcut changes no reported value.
    """
    rows, cols = block.shape
    if rows == cols and np.array_equal(block, np.eye(rows)):
        return 1.0
    return float(np.linalg.norm(block, 2))


def norm_bounds_check(diag: CarlemanDiagonalization, delta: float) -> dict:
    """Measured block norms against the forest-counting bounds.

    Every block of both transform families must obey
    C(j-1, i-1) (4 s ||F2~|| / Delta)^(j-i); violations would indicate an
    implementation bug, so they are reported rather than raised.
    """
    s = column_sparsity(diag.f2_tilde)
    f2n = float(np.linalg.norm(diag.f2_tilde, 2))
    base = 4.0 * s * f2n / delta
    rows = []
    all_ok = True
    for (i, j) in sorted(diag.v_blocks):
        bound = comb(j - 1, i - 1) * base ** (j - i)
        for family, blocks in (("v", diag.v_blocks), ("vinv", diag.vinv_blocks)):
            norm = block_norm(blocks[(i, j)])
            ok = norm <= bound * (1.0 + 1e-9)
            all_ok &= ok
            rows.append(
                {
                    "family": family,
                    "i": i,
                    "j": j,
                    "norm": norm,
                    "bound": float(bound),
                    "margin": float(bound - norm),
                    "ok": ok,
                }
            )
    return {"sparsity": s, "rows": rows, "all_ok": all_ok}


def r_big_delta(sys: QuadraticSystem, x_max_tilde: float, delta: float) -> float:
    """Gap-weighted R-number 8 s ||F2~|| ||x_max~|| / Delta for Poincare spectra."""
    spec = sys.spectrum
    if not spec.dec.diagonalizable:
        raise NonDiagonalizableError("linear part is numerically defective")
    if classify_domain(spec.dec.eigenvalues) != POINCARE:
        raise NotPoincareError("spectrum does not lie in the Poincare domain")
    if not delta > 0:
        raise ValueError("delta must be positive")
    return float(8.0 * spec.sparsity * spec.f2_tilde_norm * x_max_tilde / delta)


VARIANTS = ("poincare", "siegel_split", "oscillating_f2")


def nonresonant_error_bound(
    i: int,
    k: int,
    t: float,
    q_norm: float,
    f2_tilde_norm: float,
    x_max_tilde: float,
    r_value: float,
    variant: str = "poincare",
) -> float:
    """Per-block truncation-error bound for the three nonresonant certificates.

    The split-Siegel variant carries an extra sqrt(2); the oscillating
    variant uses the frequency-based R-number in place of the gap-based
    one (the caller passes whichever applies).
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if not (1 <= i <= k):
        raise ValueError("need 1 <= i <= k")
    if t < 0:
        raise ValueError("time must be nonnegative")
    if not r_value < 1.0:
        raise UncertifiedError(f"R-number {r_value} >= 1: no convergence certificate")
    base = (
        k
        * t
        * q_norm**i
        * f2_tilde_norm
        * x_max_tilde ** (i + 1)
        * r_value ** (k - i)
        * comb(k - 1, i - 1)
    )
    if variant == "siegel_split":
        base *= math.sqrt(2.0)
    return float(base)


@dataclass(frozen=True)
class ShiftedSystem:
    """Autonomous image of a system with oscillating quadratic term."""

    shifted: QuadraticSystem
    omega: float

    def unshift_phase(self, j: int, t: float) -> complex:
        """Phase recovering the original level-j tensor power from the lift."""
        return np.exp(-1j * j * self.omega * t)


def shift_oscillating_f2(sys: QuadraticSystem, omega: float) -> ShiftedSystem:
    """Absorb an exp(i w t) factor on the quadratic term into a spectral shift.

    Requires Re(lambda) <= 0 and |Im(lambda)| <= w/4 so the shifted
    spectrum sits in the band [3w/4, 5w/4] above the real axis, which
    makes it Poincare and w/4-nonresonant regardless of resonances in
    the original spectrum.
    """
    if not omega > 0:
        raise WrongSignError("frequency must be positive")
    if np.linalg.norm(sys.f0) > 0:
        raise DriveNotSupportedError("oscillating-term shift requires F0 = 0")
    lams = np.linalg.eigvals(sys.f1)
    tol = 1e-10 * max(_scale(lams), 1.0)
    if np.any(lams.real > tol):
        raise WrongSignError("some eigenvalue has positive real part")
    if np.any(np.abs(lams.imag) > omega / 4.0 + tol):
        raise FrequencyTooSmallError(
            f"imaginary parts reach {np.abs(lams.imag).max():.3e} > omega/4"
        )
    shifted = QuadraticSystem(
        f0=sys.f0,
        f1=sys.f1 + 1j * omega * np.eye(sys.n),
        f2=sys.f2,
        symmetrized=sys.symmetrized,
    )
    return ShiftedSystem(shifted, float(omega))


def siegel_type_estimate(lams, order_cap: int = 8) -> dict:
    """Fit a small-denominator law to the enumerated resonance gaps.

    Fits min-gap(order) ~ C (order-1)^(-nu) by least squares on the
    enumerated orders, then lowers C so the law holds exactly on them.
    The fit is diagnostic only: it says nothing about orders beyond the
    cap, so no convergence certificate is ever issued from it.
    """
    if not 2 <= order_cap <= ORDER_CAP_LIMIT:
        raise ValueError(f"order cap must lie in [2, {ORDER_CAP_LIMIT}]")
    ev = as_cvector(lams)
    best = dict.fromkeys(range(2, order_cap + 1), np.inf)
    for total, gaps in _nonresonant_gaps(ev, order_cap):
        best[total] = min(best[total], float(gaps.min()))
    orders, min_gaps = list(best), list(best.values())
    x = np.log(np.array(orders, dtype=float) - 1.0)
    y = np.log(np.array(min_gaps))
    # single order (cap = 2) pins nu at zero
    if len(orders) == 1:
        nu = 0.0
    else:
        nu = float(-np.polyfit(x, y, 1)[0])
    c = float(min(g * (m - 1.0) ** nu for g, m in zip(min_gaps, orders)))
    return {
        "c": c,
        "nu": nu,
        "orders": orders,
        "min_gaps": min_gaps,
        "xi_table": {q: xi_nu(nu, q) for q in range(0, 21)},
        "rigorous_up_to_order": order_cap,
    }


def xi_nu(nu: float, q: int) -> float:
    """The factorial convolution sum entering the Siegel-domain error bound."""
    if not 0 <= q <= 20:
        raise CapExceededError("factorial convolution tabulated for q <= 20")
    return float(
        sum(
            math.factorial(q - l) ** nu * math.factorial(l) ** (nu - 1.0)
            for l in range(q + 1)
        )
    )


def classify_spectrum(lams, order_cap: int = 6) -> SpectrumClassification:
    """Full census: resonances, domain, and whichever gap notion applies."""
    partial = check_resonance(lams, order_cap)
    domain = classify_domain(partial.eigenvalues)
    delta = None
    direction = None
    siegel_type = None
    if domain == POINCARE and not partial.resonant_tuples:
        delta = delta_gap_poincare(partial.eigenvalues, order_cap=order_cap)
        direction = origin_hull_status(partial.eigenvalues).separating_direction
    elif domain == SIEGEL and not partial.resonant_tuples:
        fit = siegel_type_estimate(partial.eigenvalues, order_cap=order_cap)
        siegel_type = (fit["c"], fit["nu"])
    return SpectrumClassification(
        eigenvalues=partial.eigenvalues,
        resonant_tuples=partial.resonant_tuples,
        order_cap=order_cap,
        domain=domain,
        delta_gap=delta,
        separating_direction=direction,
        siegel_type=siegel_type,
    )


def shift_to_fixed_point(sys: QuadraticSystem, x_star, tol: float = 1e-9):
    """Recenter a driven system at a supplied equilibrium.

    Verifies that x* solves F0 + F1 x* + F2 x*^(2) = 0 to the given
    relative tolerance and returns the driftless system governing the
    deviation y = x - x*, whose linear part picks up the quadratic
    coupling to x*.  Root-finding for x* itself is out of scope; the
    caller supplies it.
    """
    star = as_cvector(x_star)
    residual = sys.vector_field(star)
    scale = max(
        np.linalg.norm(sys.f0),
        np.linalg.norm(sys.f1 @ star),
        np.linalg.norm(star),
        1e-300,
    )
    res_norm = float(np.linalg.norm(residual))
    if res_norm > tol * scale:
        raise ValueError(
            f"supplied point is not an equilibrium: residual {res_norm:.3e}"
        )
    n = sys.n
    eye = np.eye(n, dtype=complex)
    f1_hat = sys.f1 + sys.f2 @ (np.kron(eye, star.reshape(n, 1)) + np.kron(star.reshape(n, 1), eye))
    return QuadraticSystem(
        f0=np.zeros(n), f1=f1_hat, f2=sys.f2, symmetrized=sys.symmetrized
    )


# ---------------------------------------------------------------------------
# Certification pipelines


@dataclass(frozen=True)
class NonresonantCertificate:
    """Result of one of the three nonresonant certification routes."""

    variant: str
    value: float
    certified: bool
    reason: str = ""
    delta: float | None = None
    omega: float | None = None
    x_max_tilde: float | None = None
    q_norm: float | None = None
    f2_tilde_norm: float | None = None
    sparsity: int | None = None
    caveats: tuple = ()

    def error_bound(self, i: int, k: int, t: float) -> float:
        return nonresonant_error_bound(
            i,
            k,
            t,
            self.q_norm,
            self.f2_tilde_norm,
            self.x_max_tilde,
            self.value,
            variant=self.variant,
        )


def _uncertified(variant: str, reason: str) -> NonresonantCertificate:
    return NonresonantCertificate(
        variant=variant, value=np.inf, certified=False, reason=reason
    )


def _checked_spectrum(sys: QuadraticSystem) -> Spectrum:
    """The system's spectrum, refused when defective or with Re(lambda) > 0."""
    spec = sys.spectrum
    if not spec.dec.diagonalizable:
        raise NonDiagonalizableError("linear part is numerically defective")
    lams = spec.dec.eigenvalues
    if np.any(lams.real > 1e-10 * max(_scale(lams), 1.0)):
        raise WrongSignError("some eigenvalue has positive real part")
    return spec


def _certificate(
    variant: str,
    spec: Spectrum,
    x0,
    horizon: float,
    tol: float,
    constant: float,
    rate: float,
    **gap,
) -> NonresonantCertificate:
    """Shared tail: R = constant * s ||F2~|| x_max~ / rate, on the empirical supremum."""
    try:
        x_max = spec.x_max_tilde(x0, horizon, tol)
    except (StepSizeUnderflowError, NonFiniteStateError):
        return _uncertified(variant, "trajectory escapes in finite time")
    value = constant * spec.sparsity * spec.f2_tilde_norm * x_max / rate
    return NonresonantCertificate(
        variant=variant,
        value=float(value),
        certified=bool(value < 1.0),
        reason="" if value < 1.0 else "R-number >= 1",
        x_max_tilde=x_max,
        q_norm=spec.q_norm,
        f2_tilde_norm=spec.f2_tilde_norm,
        sparsity=spec.sparsity,
        caveats=("empirical-supremum",),
        **gap,
    )


def certify_poincare(
    sys: QuadraticSystem,
    x0,
    horizon: float = 10.0,
    order_cap: int = 6,
    tol: float = 1e-12,
) -> NonresonantCertificate:
    """Gap-based certificate for driftless systems with Poincare spectra."""
    variant = "poincare"
    if np.linalg.norm(sys.f0) > 0:
        return _uncertified(variant, "requires a driftless system")
    try:
        spec = _checked_spectrum(sys)
        delta = delta_gap_poincare(spec.dec.eigenvalues, order_cap=order_cap)
    except (
        NonDiagonalizableError,
        NotPoincareError,
        ResonanceFoundError,
        WrongSignError,
    ) as exc:
        return _uncertified(variant, str(exc))
    return _certificate(variant, spec, x0, horizon, tol, 8.0, delta, delta=delta)


def find_siegel_split(lams, f2_tilde, tol: float = 1e-10):
    """Partition of the eigenbasis decoupling the Siegel spectrum.

    Searches for index sets S+ / S- whose sub-spectra each avoid the
    origin's hull (upper resp. lower half plane when marginal) with the
    quadratic map acting within each sector; returns (s_plus, s_minus)
    or None when no admissible partition exists.
    """
    ev = as_cvector(lams)
    scale = max(_scale(ev), 1e-300)
    plus_only, minus_only, free = [], [], []
    for idx, lam in enumerate(ev):
        can_plus = lam.real < -tol * scale or lam.imag > tol * scale
        can_minus = lam.real < -tol * scale or lam.imag < -tol * scale
        if can_plus and can_minus:
            free.append(idx)
        elif can_plus:
            plus_only.append(idx)
        elif can_minus:
            minus_only.append(idx)
        else:
            return None
    f2t = np.asarray(f2_tilde, dtype=complex)
    n = ev.size
    top = max(np.max(np.abs(f2t)), 1e-300)

    def admissible(s_plus: frozenset) -> bool:
        for a in range(n):
            for b in range(n):
                col = f2t[:, a * n + b]
                support = set(np.nonzero(np.abs(col) > 1e-12 * top)[0])
                if not support:
                    continue
                pa, pb = a in s_plus, b in s_plus
                if pa != pb:
                    return False
                target = s_plus if pa else set(range(n)) - s_plus
                if not support <= set(target):
                    return False
        return True

    import itertools as _it

    for bits in _it.product((True, False), repeat=len(free)):
        s_plus = frozenset(plus_only) | {
            f for f, bit in zip(free, bits) if bit
        }
        s_minus = set(range(n)) - s_plus
        if set(minus_only) - s_minus:
            continue
        if admissible(s_plus):
            return sorted(s_plus), sorted(s_minus)
    return None


def certify_siegel_split(
    sys: QuadraticSystem,
    x0,
    horizon: float = 10.0,
    order_cap: int = 6,
    tol: float = 1e-12,
) -> NonresonantCertificate:
    """Certificate for Siegel spectra that decouple into two Poincare halves."""
    variant = "siegel_split"
    if np.linalg.norm(sys.f0) > 0:
        return _uncertified(variant, "requires a driftless system")
    try:
        spec = _checked_spectrum(sys)
    except (NonDiagonalizableError, WrongSignError) as exc:
        return _uncertified(variant, str(exc))
    split = find_siegel_split(spec.dec.eigenvalues, spec.f2_tilde)
    if split is None:
        return _uncertified(variant, "no decoupling eigenbasis partition found")
    s_plus, s_minus = split
    deltas = []
    try:
        for part in (s_plus, s_minus):
            if part:
                deltas.append(
                    delta_gap_poincare(spec.dec.eigenvalues[list(part)], order_cap=order_cap)
                )
    except (NotPoincareError, ResonanceFoundError) as exc:
        return _uncertified(variant, str(exc))
    delta = float(min(deltas))
    return _certificate(variant, spec, x0, horizon, tol, 8.0, delta, delta=delta)


def certify_oscillating(
    sys: QuadraticSystem,
    x0,
    omega: float,
    horizon: float = 10.0,
    tol: float = 1e-12,
) -> NonresonantCertificate:
    """Certificate for an exp(i w t)-modulated quadratic term via the shift."""
    variant = "oscillating_f2"
    try:
        spec = shift_oscillating_f2(sys, omega).shifted.spectrum
        if not spec.dec.diagonalizable:
            raise NonDiagonalizableError("linear part is numerically defective")
    except (
        NonDiagonalizableError,
        WrongSignError,
        FrequencyTooSmallError,
        DriveNotSupportedError,
    ) as exc:
        return _uncertified(variant, str(exc))
    return _certificate(
        variant, spec, x0, horizon, tol, 32.0, omega, omega=float(omega)
    )
