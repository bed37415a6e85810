"""No-resonance gaps, the explicit diagonalization of Carleman lifts, and their certificates.

For a driftless system with diagonalizable linear part, the lift
generator is block upper bidiagonal and, absent resonances among the
eigenvalues, similar to the diagonal matrix of all tensor-power
eigenvalue sums.  The similarity transform, the Carleman matrix of the
normal-form map, and its inverse, that of the map's compositional
inverse, decompose into blocks indexed by binary forests.  As Carleman
matrices of maps, both follow from their first block rows by one
Kronecker recursion; this module builds those blocks and verifies the
analytic norm bounds.  It also places a spectrum in the Poincare or
Siegel domain, takes the Poincare no-resonance gap Delta and its
resonance refusal as array work on the blocks of eigenvalue-index
multisets from :func:`linalg.multiset_rows`, the enumerator the lift's
multiset coordinates read too, and
issues the R_Delta / R_omega certificates and per-block truncation-error
bounds for Poincare-domain, split-Siegel and oscillating-nonlinearity
systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import product
from math import comb

import numpy as np

from .errors import (
    CapExceededError,
    DriveNotSupportedError,
    FrequencyTooSmallError,
    MatrixOverflowError,
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
from .linalg import HullStatus, as_cvector, kron2, multiset_rows, origin_hull_status
from .system import QuadraticSystem, Spectrum, check_block

RESONANCE_RTOL = 1e-10
DENOMINATOR_RTOL = 1e-12
# the no-resonance gap enumerates every order up to at least this one,
# and refuses more orders, or more multisets (about 35 s), than these
GAP_MIN_ORDER = 6
_DELTA1_HARD_CAP = 200
GAP_MAX_MULTISETS = 5 * 10**7

POINCARE = "poincare"
SIEGEL = "siegel"
BOUNDARY = "boundary"


def _scale(lams: np.ndarray) -> float:
    return float(np.max(np.abs(lams))) if lams.size else 0.0


def _require_nonpositive(lams: np.ndarray) -> float:
    """Roundoff slack on Re(lambda) <= 0, after refusing a spectrum that exceeds it.

    The slack is relative to the spectrum's scale, as the gap's hull test
    is, so a small spectrum with a positive real part is refused too.
    """
    tol = 1e-10 * _scale(lams)
    if np.any(lams.real > tol):
        raise WrongSignError("some eigenvalue has positive real part")
    return tol


def _multiset_gaps(ev: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|lambda_i - sum of the multiset's eigenvalues|, one row per multiset of ``rows``.

    Each row's eigenvalues are summed along the contiguous axis, as a 1-d
    sum of the same values would be, so every gap is bitwise the one of
    ``np.abs(ev - ev[list(combo)].sum())``.
    """
    return np.abs(ev - ev[rows].sum(axis=1)[:, None])


def _nonresonant_gap(ev: np.ndarray, top: int) -> float:
    """Smallest |lambda_i - sum over a multiset| / (order - 1) over the orders 2..top.

    The multisets of each order come block by block from
    :func:`multiset_rows`, so the gaps held at once are bounded.  Raises
    ResonanceFoundError at the first resonant multiset in order and table
    order, naming the eigenvalue nearest its sum.
    """
    tol = RESONANCE_RTOL * max(_scale(ev), 1e-300)
    gap = np.inf
    for total in range(2, top + 1):
        for rows in multiset_rows(ev.size, total):
            gaps = _multiset_gaps(ev, rows)
            least = float(gaps.min())
            if least <= tol:
                first = np.argmax(np.any(gaps <= tol, axis=1))
                i = int(np.argmin(gaps[first]))
                raise ResonanceFoundError(f"resonance at eigenvalue index {i}")
            gap = min(gap, least / (total - 1))
    return gap


def classify_domain(status: HullStatus) -> str:
    """Poincare / Siegel / Boundary placement of the origin w.r.t. the hull.

    ``status`` is :func:`origin_hull_status` of the eigenvalues.
    """
    if not status.inside:
        return POINCARE
    if status.boundary_distance < 1e-12:
        return BOUNDARY
    return SIEGEL


def delta_gap_poincare(lams) -> float:
    """Normalized no-resonance gap, valid for all orders.

    The smaller of two parts: the separating-direction lower bound, which
    covers every order at and beyond the crossover k0, and the exact
    minimum over the orders up to max(k0 - 1, :data:`GAP_MIN_ORDER`), so
    the returned value certifies the full infimum, not just the orders
    enumerated.

    Both run on the eigenvalues scaled by :func:`_overflow_unit`, so the
    hull test's absolute slacks act relative to the spectrum's scale and
    no sum overflows; the gap is scaled back.  An enumeration past order
    :data:`_DELTA1_HARD_CAP` or :data:`GAP_MAX_MULTISETS` multisets
    raises CapExceededError before any multiset is formed.
    """
    ev = as_cvector(lams)
    unit = _overflow_unit(ev)
    ev = ev * unit
    status = origin_hull_status(ev)
    if classify_domain(status) != POINCARE:
        raise NotPoincareError("spectrum does not lie in the Poincare domain")
    omega = status.separating_direction
    f = (ev.conj() * omega).real
    c1, c2 = float(f.min()), float(f.max())
    k0 = math.ceil(c2 / c1) + 1
    delta0 = (c1 * k0 - c2) / (k0 - 1)
    top = max(k0 - 1, GAP_MIN_ORDER)
    if top > _DELTA1_HARD_CAP:
        raise CapExceededError(f"gap enumeration needs order {top} > {_DELTA1_HARD_CAP}")
    count = sum(comb(ev.size + m - 1, m) for m in range(2, top + 1))
    if count > GAP_MAX_MULTISETS:
        raise CapExceededError(
            f"gap enumeration needs {count} multisets > {GAP_MAX_MULTISETS}"
        )
    return min(float(delta0), _nonresonant_gap(ev, top)) / unit


def level_sums(lams, j: int) -> np.ndarray:
    """All j-fold eigenvalue sums in lexicographic order (first slot most significant)."""
    ev = as_cvector(lams)
    out = ev
    for _ in range(j - 1):
        out = (out[:, None] + ev[None, :]).ravel()
    return out


def _overflow_unit(ev: np.ndarray) -> float:
    """The power of two that puts the largest real or imaginary part of ``ev`` in [1/2, 1).

    It is capped at 2^1023, so a subnormal largest part still gets a
    finite unit.  A power of two rounds nothing above the subnormal range.
    """
    top = float(np.max(np.maximum(np.abs(ev.real), np.abs(ev.imag))))
    return math.ldexp(1.0, min(-math.frexp(top)[1], 1023))


def _normalized(lams, f2_tilde) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues and F2~, both multiplied by :func:`_overflow_unit` of the eigenvalues.

    V, V^{-1} and the similarity residual depend only on the ratio of F2~
    to the eigenvalues, so on these arrays they come out bitwise as on
    the given ones, while no level sum overflows and no subnormal
    denominator is formed.
    """
    ev = as_cvector(lams)
    unit = _overflow_unit(ev)
    return ev * unit, np.asarray(f2_tilde, dtype=complex) * unit


def build_nl(lams, l: int) -> np.ndarray:
    """Reciprocal-combination matrix with entries 1/(sum of l eigenvalues - lambda_i)."""
    ev = as_cvector(lams)
    den = level_sums(ev, l)[None, :] - ev[:, None]
    bad = np.abs(den) <= DENOMINATOR_RTOL * max(_scale(ev), 1e-300)
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
    V_(i,j) = sum_{m=1..j-i+1} V_(i-1,j-m) (x) V_(1,m).  The first and
    last terms have an identity factor, V_(1,1) resp. V_(i-1,i-1): the
    first is written into, and the last added onto, the strided
    ``np.einsum`` diagonal view of the block that its Kronecker product
    fills, as in :func:`_shift_block`, so neither is multiplied out.  A
    product with an exact 1 or 0 rounds nothing and the terms keep their
    order, so each finite block is ``np.array_equal`` to the sum of the
    full products.  Then ``first_row(j, block)`` returns block (1, j),
    where ``block(i, j)`` gives any block built so far, or the identity
    when i == j.
    """
    identity = cache(lambda level: np.eye(n**level, dtype=complex))
    blocks = {}

    def block(i: int, j: int) -> np.ndarray:
        return identity(i) if i == j else blocks[(i, j)]

    for j in range(2, k + 1):
        for i in range(j - 1, 1, -1):
            outer = n ** (i - 1)
            acc = np.zeros((n**i, n**j), dtype=complex)
            # V_(i-1,j-1) (x) I_n fills the entries ((a, p), (b, p))
            first = np.einsum("apbp->abp", acc.reshape(outer, n, -1, n))
            first[...] = blocks[(i - 1, j - 1)][:, :, None]
            for m in range(2, j - i + 1):
                acc += kron2(blocks[(i - 1, j - m)], blocks[(1, m)])
            # I_(n^(i-1)) (x) V_(1,j-i+1) fills the entries ((o, a), (o, b))
            last = blocks[(1, j - i + 1)]
            np.einsum("oaob->oab", acc.reshape(outer, n, outer, -1))[...] += last[None]
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
    independent of the truncation order beyond j.  It is built from
    :func:`_normalized` eigenvalues and F2~.
    """
    ev, f2t = _normalized(lams, f2_tilde)
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


def _shift_block(op: np.ndarray, n: int, level: int) -> np.ndarray:
    """sum_{l<level} I_{n^l} (x) op (x) I_{n^(level-1-l)} as a dense matrix.

    Slot by slot, in the order :func:`_shift_apply` sums them, op is added
    onto the entries ((o, a, i), (o, b, i)) of the slot's term, reached as
    a writeable ``np.einsum`` view; with op = F2~ this is the dense block
    A~_(level,level+1), bitwise ``_shift_apply(op, I, n, level)``.
    """
    p, q = op.shape
    out = np.zeros((p * n ** (level - 1), q * n ** (level - 1)), dtype=complex)
    for l in range(level):
        outer, inner = n**l, n ** (level - 1 - l)
        slots = out.reshape(outer, p, inner, outer, q, inner)
        np.einsum("oaiobi->oaib", slots)[...] += op[None, :, None, :]
    return out


def build_vinv_blocks(lams, f2_tilde, k: int) -> dict:
    """Strictly upper blocks of the inverse transform in eigencoordinates.

    W = V^{-1} solves the left homological equation W A~ = D W, and A~ is
    upper block-bidiagonal with A~_(j,j) = D_j, so its first block row is
    W_(1,j) = -N_j o (W_(1,j-1) A~_(j-1,j)) (W_(1,1) = I): one product per
    block, with no cancelling sum and no V.  The other blocks follow from
    it as V's do from its first row (:func:`_map_blocks`); the diagonal
    blocks are identities and are not stored.  It is built from
    :func:`_normalized` eigenvalues and F2~.
    """
    ev, f2t = _normalized(lams, f2_tilde)

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

    ``sparsity`` and ``f2_tilde_norm`` are the column sparsity and 2-norm
    of F2~, carried from the system's :class:`Spectrum`.
    """

    k: int
    n: int
    eigenvalues: np.ndarray
    f2_tilde: np.ndarray
    sparsity: int
    f2_tilde_norm: float
    v_blocks: dict
    vinv_blocks: dict
    residual: float
    inverse_residual: float


def _similarity_residual(lams, f2t, v: dict, k: int) -> float:
    """``residual`` of :class:`CarlemanDiagonalization` (see :func:`_blockwise_residuals`)."""
    n = len(lams)
    d = {j: level_sums(lams, j) for j in range(1, k + 1)}
    scale = max(max(np.abs(dj).max() for dj in d.values()), np.abs(f2t).max(), 1e-300)
    norms = []
    for i in range(1, k + 1):
        # the zero diagonal term keeps the row-major order of the norm's sum
        norms.append(0.0)
        for j in range(i + 1, k + 1):
            vij = v[(i, j)]
            if i + 1 < j:
                coupling = _shift_apply(f2t, v[(i + 1, j)], n, i)
            else:
                coupling = _shift_block(f2t, n, i)
            norms.append(np.linalg.norm(d[i][:, None] * vij - vij * d[j][None, :] + coupling))
    return float(np.linalg.norm(norms) / scale)


def _blockwise_residuals(lams, f2t, v: dict, w: dict, k: int) -> tuple[float, float]:
    """``residual`` and ``inverse_residual`` of :class:`CarlemanDiagonalization`.

    ``v`` and ``w`` hold the strictly upper blocks up to order k.  With
    identity diagonal blocks, R_(i,i) = E_(i,i) = 0, R_(j-1,j) adds the
    dense block A~_(j-1,j) (:func:`_shift_block`), the product with I,
    and E_(i,j) = W_(i,j) + sum_{i<m<j} V_(i,m) W_(m,j) + V_(i,j): the
    full sum, in its order, less the exact products with I, so both
    residuals equal the full products' bitwise.  ``residual`` is formed
    on :func:`_normalized` eigenvalues and F2~.
    """
    residual = _similarity_residual(*_normalized(lams, f2t), v, k)
    inverse = []
    for i in range(1, k + 1):
        inverse.append(0.0)
        for j in range(i + 1, k + 1):
            e = sum((v[(i, m)] @ w[(m, j)] for m in range(i + 1, j)), w[(i, j)]) + v[(i, j)]
            inverse.append(np.linalg.norm(e))
    return residual, float(np.linalg.norm(inverse))


def diagonalize_carleman(sys: QuadraticSystem, k: int) -> CarlemanDiagonalization:
    """Build and verify the explicit diagonalization of the order-k lift, capped as the lift is."""
    if np.linalg.norm(sys.f0) > 0:
        raise DriveNotSupportedError("diagonalization requires a driftless system")
    spec = sys.spectrum.diagonalizable()
    if k < 1:
        raise ValueError("truncation order must be >= 1")
    check_cap(sum(sys.n**j for j in range(1, k + 1)))
    if not math.isfinite(spec.f2_tilde_norm):
        raise MatrixOverflowError("F2~ = Q^-1 F2 (Q (x) Q) is not finite")
    lams, f2t = spec.dec.eigenvalues, spec.f2_tilde
    v_blocks = build_v_blocks(lams, f2t, k)
    vinv_blocks = build_vinv_blocks(lams, f2t, k)
    residual, inverse_residual = _blockwise_residuals(lams, f2t, v_blocks, vinv_blocks, k)
    return CarlemanDiagonalization(
        k=k,
        n=sys.n,
        eigenvalues=lams,
        f2_tilde=f2t,
        sparsity=spec.sparsity,
        f2_tilde_norm=spec.f2_tilde_norm,
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
    within 1e-13 relative of the SVD.  A V^{-1} block that is exactly the
    negated V block, as every superdiagonal block is (the inverse map's
    quadratic coefficient is -W_2), takes V's norm: -B has B's Gram
    matrix bitwise, so the norm is the one its own :func:`block_norm`
    would return.  Every other block, and any block holding a NaN, takes
    its own.
    """
    s = diag.sparsity
    base = None if delta is None else 4.0 * s * diag.f2_tilde_norm / delta
    rows = []
    all_ok = True
    for i in range(1, diag.k + 1):
        for j in range(i, diag.k + 1):
            bound = None if base is None else float(comb(j - 1, i - 1) * base ** (j - i))
            if i == j:
                norms = (1.0, 1.0)
            else:
                v, w = diag.v_blocks[(i, j)], diag.vinv_blocks[(i, j)]
                v_norm = block_norm(v)
                norms = (v_norm, v_norm if np.array_equal(w, -v) else block_norm(w))
            for family, norm in zip(("v", "vinv"), norms):
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
    )
    return ShiftedSystem(shifted, float(omega))


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

    def error_bound(self, j: int, k: int, t: float) -> float:
        """Per-block truncation-error bound on the lift's block j at time t.

        k t ||Q||^j ||F2~|| x_max~^(j+1) R^(k-j) C(k-1, j-1), for the
        system as given (no rescaling).  The bound grows linearly in t,
        and only the ``siegel_split`` variant carries the extra sqrt(2);
        the oscillating variant's R is the frequency-based one.
        """
        check_block(j, k, t)
        if not self.value < 1.0:
            raise UncertifiedError(
                f"R-number {self.value} >= 1: no convergence certificate"
            )
        base = (
            k
            * t
            * self.q_norm**j
            * self.f2_tilde_norm
            * self.x_max_tilde ** (j + 1)
            * self.value ** (k - j)
            * comb(k - 1, j - 1)
        )
        if self.variant == "siegel_split":
            base *= math.sqrt(2.0)
        return float(base)


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
