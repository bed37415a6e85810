"""Resonance analysis and explicit diagonalization of Carleman lifts.

For a driftless system with diagonalizable linear part, the lift
generator is block upper bidiagonal and, absent resonances among the
eigenvalues, similar to the diagonal matrix of all tensor-power
eigenvalue sums.  The similarity transform, the Carleman matrix of the
normal-form map, and its inverse, that of the map's compositional
inverse, decompose into blocks indexed by binary forests.  As Carleman
matrices of maps, both follow from their first block rows by one
Kronecker recursion; this module builds those blocks, verifies the
analytic norm bounds, and evaluates the resulting truncation-error
bounds for Poincare-domain, split-Siegel, and oscillating-nonlinearity
certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement, product
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
    check_cap,
)
from .linalg import as_cvector, column_sparsity, kron2, kron_chain, origin_hull_status
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


def _require_nonpositive(lams: np.ndarray) -> float:
    """Roundoff slack on Re(lambda) <= 0, after refusing a spectrum that exceeds it."""
    tol = 1e-10 * max(_scale(lams), 1.0)
    if np.any(lams.real > tol):
        raise WrongSignError("some eigenvalue has positive real part")
    return tol


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


def _map_blocks(n: int, k: int, first_row) -> dict:
    """Strictly upper blocks of the Carleman matrix of a map with identity linear part.

    Blocks (i, j), i < j <= k, come back in row-major order; every
    diagonal block is an exact identity and is left implicit.  Column by
    column, rows j-1..2 follow from the first block row by
    V_(i,j) = sum_{m=1..j-i+1} V_(i-1,j-m) (x) V_(1,m), whose factors
    V_(1,1) and V_(i-1,i-1) are identities built here as needed; then
    ``first_row(j, block)`` returns block (1, j), where ``block(i, j)``
    gives any block built so far, or the identity when i == j.
    """
    identity = cache(lambda level: np.eye(n**level, dtype=complex))
    blocks = {}

    def block(i: int, j: int) -> np.ndarray:
        return identity(i) if i == j else blocks[(i, j)]

    for j in range(2, k + 1):
        for i in range(j - 1, 1, -1):
            acc = kron2(block(i - 1, j - 1), identity(1))
            for m in range(2, j - i + 2):
                acc += kron2(block(i - 1, j - m), block(1, m))
            blocks[(i, j)] = acc
        blocks[(1, j)] = first_row(j, block)
    return dict(sorted(blocks.items()))


def build_v_blocks(lams, f2_tilde, k: int) -> dict:
    """Strictly upper blocks of the diagonalizing transform in eigencoordinates.

    V is the Carleman matrix of the normal-form map: block (i, j) sums the
    forest weights over ordered forests with i trees and j leaves, and
    every diagonal block is the identity, which is not stored.  Its first
    row W_j = N_j o (F2~ V_(2,j)) sums the tree weights by root split,
    since V_(2,j) = sum_a W_(j-a) (x) W_a (V_(2,2) = I).  The family is
    independent of the truncation order beyond j.
    """
    ev = as_cvector(lams)
    f2t = np.asarray(f2_tilde, dtype=complex)
    return _map_blocks(ev.size, k, lambda j, v: build_nl(ev, j) * (f2t @ v(2, j)))


def _shift_apply(op: np.ndarray, x: np.ndarray, n: int, level: int) -> np.ndarray:
    """(sum_{l<level} I_{n^l} (x) op (x) I_{n^(level-1-l)}) @ x, without forming the sum.

    Slot l reshapes x to (n^l, q, n^(level-1-l) * cols) for a p x q op and
    takes one batched matmul, the index layout of ``carleman._shift_sum``.
    With op = F2~ this is A~_(level,level+1) @ x, and
    ``_shift_apply(F2~.T, y.T, n, level).T`` is y @ A~_(level,level+1).
    """
    p, q = op.shape
    out = np.zeros((p * n ** (level - 1), x.shape[1]), dtype=complex)
    for l in range(level):
        out += np.matmul(op, x.reshape(n**l, q, -1)).reshape(out.shape)
    return out


def build_vinv_blocks(lams, f2_tilde, k: int) -> dict:
    """Strictly upper blocks of the inverse transform in eigencoordinates.

    W = V^{-1} solves the left homological equation W A~ = D W, and A~ is
    upper block-bidiagonal with A~_(j,j) = D_j, so its first block row is
    W_(1,j) = -N_j o (W_(1,j-1) A~_(j-1,j)) (W_(1,1) = I): one product per
    block, with no cancelling sum and no V.  The other blocks follow from
    it as V's do from its first row (:func:`_map_blocks`); the diagonal
    blocks are identities and are not stored.
    """
    ev, f2t = as_cvector(lams), np.asarray(f2_tilde, dtype=complex)

    def first_row(j: int, w) -> np.ndarray:
        return -build_nl(ev, j) * _shift_apply(f2t.T, w(1, j - 1).T, ev.size, j - 1).T

    return _map_blocks(ev.size, k, first_row)


@dataclass(frozen=True)
class CarlemanDiagonalization:
    """Explicit similarity transform of a lift generator in eigencoordinates.

    ``v_blocks`` and ``vinv_blocks`` hold the strictly upper blocks
    (i, j), i < j, of V and W = V^{-1}; their diagonal blocks are exact
    identities and are not stored.  Both residuals are checked block by
    block over every upper block.  The lift A~ in eigencoordinates, never
    built, has diagonal blocks D_j = diag(level_sums(eigenvalues, j)) and
    upper blocks A~_(i,i+1), applied matrix-free (:func:`_shift_apply`):

    * ``residual`` = sqrt(sum ||R_(i,j)||_F^2) / scale, where
      R_(i,j) = D_i V_(i,j) - V_(i,j) D_j + A~_(i,i+1) V_(i+1,j) is block
      (i, j) of A~ V - V D (zero for i = j), and
      scale = max(max_{j<=k} |level_sums(eigenvalues, j)|, max|F2~|);
    * ``inverse_residual`` = sqrt(sum ||E_(i,j)||_F^2), where
      E_(i,j) = sum_{m=i..j} V_(i,m) W_(m,j) - delta_ij I is block (i, j)
      of V W - I (zero for i = j).

    The scale's terms are entries of A~ (F2~ is A~_(1,2); at k = 1 every R
    is zero), so scale <= ||A~||_2; with ||.||_2 <= ||.||_F, each residual
    bounds ||A~ V - V D||_2 / ||A~||_2, resp. ||V W - I||_2, from above.
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

    def ambient_v_block(self, i: int, j: int) -> np.ndarray:
        """Transform block (i, j), i < j, in the original (non-eigen) coordinates."""
        return kron_chain([self.q] * i) @ self.v_blocks[(i, j)]


def _blockwise_residuals(lams, f2t, v: dict, w: dict, k: int) -> tuple[float, float]:
    """``residual`` and ``inverse_residual`` of :class:`CarlemanDiagonalization`.

    ``v`` and ``w`` hold the strictly upper blocks up to order k.  With
    identity diagonal blocks, R_(i,i) = E_(i,i) = 0, R_(j-1,j) applies
    A~_(j-1,j) to an identity, and E_(i,j) = W_(i,j) + sum_{i<m<j}
    V_(i,m) W_(m,j) + V_(i,j): the full sum, in its order, less the exact
    products with I, so both residuals equal the full products' bitwise.
    """
    n = len(lams)
    d = {j: level_sums(lams, j) for j in range(1, k + 1)}
    scale = max(max(np.abs(dj).max() for dj in d.values()), np.abs(f2t).max(), 1e-300)
    similarity, inverse = [], []
    for i in range(1, k + 1):
        # the zero diagonal terms keep the row-major order of the norms' sums
        similarity.append(0.0)
        inverse.append(0.0)
        for j in range(i + 1, k + 1):
            vij = v[(i, j)]
            below = v[(i + 1, j)] if i + 1 < j else np.eye(n**j, dtype=complex)
            r = d[i][:, None] * vij - vij * d[j][None, :] + _shift_apply(f2t, below, n, i)
            e = sum((v[(i, m)] @ w[(m, j)] for m in range(i + 1, j)), w[(i, j)]) + vij
            similarity.append(np.linalg.norm(r))
            inverse.append(np.linalg.norm(e))
    return float(np.linalg.norm(similarity) / scale), float(np.linalg.norm(inverse))


def diagonalize_carleman(sys: QuadraticSystem, k: int) -> CarlemanDiagonalization:
    """Build and verify the explicit diagonalization of the order-k lift, capped as the lift is."""
    if np.linalg.norm(sys.f0) > 0:
        raise DriveNotSupportedError("diagonalization requires a driftless system")
    spec = sys.spectrum.diagonalizable()
    if k < 1:
        raise ValueError("truncation order must be >= 1")
    check_cap(sum(sys.n**j for j in range(1, k + 1)))
    lams, q, f2t = spec.dec.eigenvalues, spec.dec.right_vectors, spec.f2_tilde
    v_blocks = build_v_blocks(lams, f2t, k)
    vinv_blocks = build_vinv_blocks(lams, f2t, k)
    residual, inverse_residual = _blockwise_residuals(lams, f2t, v_blocks, vinv_blocks, k)
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
    """Spectral norm of one strictly upper transform block, from its Gram matrix.

    The block B is scaled by the power of two 2^e that brings its largest
    |entry| into [1/2, 1), so G = (2^e B)(2^e B)^H can neither underflow
    nor overflow and the scaling rounds nothing; then
    ||B||_2 = 2^-e sqrt(lambda_max(G)).  For an upper block (i, j), G is
    the smaller Gram matrix, n^i x n^i.  The top eigenvalue of a Hermitian
    matrix is perturbed by at most its roundoff times ||G||_2 (Golub &
    Van Loan, Matrix Computations, 8.1), so the norm agrees with the SVD's
    to within 1e-13 relative.
    """
    # min keeps 2^e finite when the largest entry is subnormal
    e = min(-math.frexp(float(np.abs(block).max()))[1], 1022)
    scaled = block * 2.0**e
    top = np.linalg.eigvalsh(scaled @ scaled.conj().T)[-1]
    return math.ldexp(math.sqrt(max(float(top), 0.0)), -e)


def norm_bounds_check(diag: CarlemanDiagonalization, delta: float | None) -> dict:
    """Measured block norms against the forest-counting bounds.

    Every upper block (i, j), i <= j, of both transform families must obey
    C(j-1, i-1) (4 s ||F2~|| / Delta)^(j-i); violations would indicate an
    implementation bug, so they are reported rather than raised.  With
    ``delta`` None (no no-resonance gap) the norms are reported alone:
    every row has bound None and passes.  The rows come in row-major block
    order, V before V^{-1}.  The implicit identity diagonal blocks have
    norm 1.0 and bound 1.0; the other norms come from :func:`block_norm`,
    within 1e-13 relative of the SVD.
    """
    s = column_sparsity(diag.f2_tilde)
    f2n = float(np.linalg.norm(diag.f2_tilde, 2))
    base = None if delta is None else 4.0 * s * f2n / delta
    rows = []
    all_ok = True
    for i in range(1, diag.k + 1):
        for j in range(i, diag.k + 1):
            bound = None if base is None else float(comb(j - 1, i - 1) * base ** (j - i))
            for family, blocks in (("v", diag.v_blocks), ("vinv", diag.vinv_blocks)):
                norm = 1.0 if i == j else block_norm(blocks[(i, j)])
                ok = bound is None or norm <= bound * (1.0 + 1e-9)
                all_ok &= ok
                rows.append(
                    {
                        "family": family,
                        "i": i,
                        "j": j,
                        "norm": norm,
                        "bound": bound,
                        "ok": ok,
                    }
                )
    return {"sparsity": s, "rows": rows, "all_ok": all_ok}


def r_big_delta(sys: QuadraticSystem, x_max_tilde: float, delta: float) -> float:
    """Gap-weighted R-number 8 s ||F2~|| ||x_max~|| / Delta for Poincare spectra."""
    spec = sys.spectrum.diagonalizable()
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

    Requires a positive finite w, F0 = 0, Re(lambda) <= 0 and
    |Im(lambda)| <= w/4 so the shifted spectrum sits in the band
    [3w/4, 5w/4] above the real axis, which makes it Poincare and
    w/4-nonresonant regardless of resonances in the original spectrum.
    """
    if not omega > 0:
        raise WrongSignError("frequency must be positive")
    if not math.isfinite(omega):
        raise WrongSignError("frequency must be finite")
    if np.linalg.norm(sys.f0) > 0:
        raise DriveNotSupportedError("oscillating-term shift requires F0 = 0")
    lams = sys.spectrum.dec.eigenvalues
    tol = _require_nonpositive(lams)
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
    spec = sys.spectrum.diagonalizable()
    _require_nonpositive(spec.dec.eigenvalues)
    return spec


def _certificate(
    variant: str,
    spec: Spectrum,
    x0,
    horizon: float,
    tol: float,
    constant: float,
    rate: float,
    *,
    frequency: float = 0.0,
    **gap,
) -> NonresonantCertificate:
    """Shared tail: R = constant * s ||F2~|| x_max~ / rate, on the empirical supremum.

    ``frequency`` is passed on to :meth:`Spectrum.x_max_tilde`: nonzero
    when ``spec`` belongs to a spectrally shifted system.
    """
    try:
        x_max = spec.x_max_tilde(x0, horizon, tol, frequency=frequency)
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
    tol: float = 1e-12,
) -> NonresonantCertificate:
    """Gap-based certificate for driftless systems with Poincare spectra."""
    variant = "poincare"
    if np.linalg.norm(sys.f0) > 0:
        return _uncertified(variant, "requires a driftless system")
    try:
        spec = _checked_spectrum(sys)
        delta = delta_gap_poincare(spec.dec.eigenvalues)
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

    for bits in product((True, False), repeat=len(free)):
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
                deltas.append(delta_gap_poincare(spec.dec.eigenvalues[list(part)]))
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
    """Certificate for an exp(i w t)-modulated quadratic term via the shift.

    Q, ||F2~|| and the sparsity come from the shifted system's spectrum:
    F1 may have degenerate eigenspaces, so only the shifted eigenbasis
    fixes the norm.  The trajectory supremum in that basis is solved in
    the unshifted frame, which does not carry the fast phase exp(i w t)
    and so takes fewer solver steps, at the same value.
    """
    variant = "oscillating_f2"
    try:
        spec = shift_oscillating_f2(sys, omega).shifted.spectrum.diagonalizable()
    except (
        NonDiagonalizableError,
        WrongSignError,
        FrequencyTooSmallError,
        DriveNotSupportedError,
    ) as exc:
        return _uncertified(variant, str(exc))
    return _certificate(
        variant, spec, x0, horizon, tol, 32.0, omega,
        frequency=omega, omega=float(omega),
    )
