"""Truncated Carleman lift: sparse block assembly, exact linear evolution, error profiles.

The lift tracks tensor powers x^(j) for j = 1..k.  Its generator is block
tridiagonal: level j couples downward through the drive, diagonally
through F1, and upward through F2, each as a sum of Kronecker "shift"
terms placing the operator at every slot.  Every block is stored as CSR;
at dimension about 1000 the generator is about 2% non-zero.  The lifted
linear ODE is solved exactly via an affine augmentation, by the action of
the matrix exponential on the state (Al-Mohy & Higham, "Computing the
action of the matrix exponential", SIAM J. Sci. Comput. 33(2), 2011)
rather than by forming e^{At}, so every truncation-error measurement
isolates the truncation itself rather than time-stepping error.  The
augmented generator, its trace shift and its 1-norm are built once per
evolution, in one pass over the lift's CSR arrays
(:func:`_shifted_augmented`), and the multiset table of each level once
per process, from :func:`linalg.multiset_rows`, the one enumerator of
index multisets, which the no-resonance gap of :mod:`nonresonant` reads
too.

Every shift sum maps symmetric tensors to symmetric tensors, whether or
not F2 is symmetrized, so the lift started at x0^(j) stays on the
symmetric subspace, of dimension C(n+j-1, j) per level.
:func:`error_profile` and :func:`convergence_sweep` evolve it there, in
multiset coordinates (the monomials x^alpha, |alpha| = j): the
duplication/elimination restriction of the full generator (Magnus &
Neudecker, "The elimination matrix", SIAM J. Alg. Disc. Meth. 1(4),
1980), built directly by :func:`build_symmetric_lift`.

    n  k   full   multiset
    2  8    510         44
    3  6  1 092         83
    4  5  1 364        125
    4  7 21 844        329

The dimension cap (:func:`errors.check_cap`) counts full coordinates,
n + n^2 + ... + n^k.  Lift states stay in multiset coordinates; only
``simulate --dump-states`` expands them, one sample at a time.  The full
blocks of :func:`build_blocks` serve only test oracles and the bench tracer.

The module also hosts :func:`integrate_nonautonomous`, the scipy RK45
solve that cross-checks the autonomous embeddings of driven and
oscillating systems; no command runs it.  It sits here because this
module loads scipy anyway (``scipy.sparse``) and :mod:`cli` imports it
only for ``simulate``, so that no other command loads scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cache

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from .errors import (
    DimensionMismatchError,
    MatrixOverflowError,
    NonFiniteStateError,
    StepSizeUnderflowError,
    check_cap,
)
from .linalg import as_cvector, multiset_rows, tensor_power
from .system import QuadraticSystem, Trajectory, _charge, _sample_times, integrate_reference

#: theta_m of Al-Mohy & Higham (2011), Table 3.1, for unit roundoff 2^-53:
#: the degree-m Taylor series of e^X has backward error below 2^-53
#: whenever ||X||_1 <= theta_m.
_TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_TAYLOR_TOL = 2.0**-53


def total_dimension(n: int, k: int) -> int:
    return sum(n**j for j in range(1, k + 1))


class LiftBlock(sp.csr_array):
    """CSR block whose ``nbytes`` counts its stored data, indices and indptr."""

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


def _shift_sum(op: np.ndarray, n: int, j: int) -> LiftBlock:
    """Sum over slots l of I^(l) (x) op (x) I^(j-1-l), built from COO indices.

    Entry (a, b) of op lands at row (u*p + a)*R + v and column
    (u*q + b)*R + v of the slot-l term, for u < n^l and v < R = n^(j-1-l);
    the CSR conversion sums the terms.
    """
    op = np.asarray(op, dtype=complex)
    p, q = op.shape
    r_op, c_op = np.nonzero(op)
    rows, cols, vals = [], [], []
    for l in range(j):
        right = n ** (j - 1 - l)
        left = np.arange(n**l)[:, None, None]
        slot = np.arange(right)[None, None, :]
        rows.append(((left * p + r_op[:, None]) * right + slot).ravel())
        cols.append(((left * q + c_op[:, None]) * right + slot).ravel())
        vals.append(
            np.broadcast_to(op[r_op, c_op][:, None], (n**l, r_op.size, right)).ravel()
        )
    shape = (p * n ** (j - 1), q * n ** (j - 1))
    # 32-bit indices where they fit, as scipy's own constructors choose
    index = np.int32 if max(shape) < 2**31 else np.int64
    coords = (np.concatenate(rows).astype(index), np.concatenate(cols).astype(index))
    coo = sp.coo_array((np.concatenate(vals), coords), shape=shape)
    return LiftBlock(coo.tocsr())


@dataclass(frozen=True)
class CarlemanMatrix:
    """Block-tridiagonal generator of the order-k lift of an n-dim system.

    Every block is a :class:`LiftBlock` (CSR).  ``upper`` holds A_{j,j+1}
    for j = 1..k; the last entry A_{k,k+1} is not part of the truncated
    generator but is retained because it drives the truncation error.
    """

    k: int
    n: int
    lower: tuple  # A_{j,j-1}, j = 2..k
    diag: tuple  # A_{j,j},   j = 1..k
    upper: tuple  # A_{j,j+1}, j = 1..k (last one kept for the error source)
    drive: np.ndarray

    @property
    def total_dim(self) -> int:
        return total_dimension(self.n, self.k)

    def block_lower(self, j: int) -> LiftBlock:
        return self.lower[j - 2]

    def block_diag(self, j: int) -> LiftBlock:
        return self.diag[j - 1]

    def block_upper(self, j: int) -> LiftBlock:
        return self.upper[j - 1]

    def truncated(self, k: int) -> CarlemanMatrix:
        """The order-k lift for k <= self.k, sharing this lift's blocks.

        Level-j blocks do not depend on the truncation order, so the
        order-k generator is the leading ``total_dimension(n, k)``
        principal block of this one.
        """
        if not 1 <= k <= self.k:
            raise ValueError(f"truncation order {k} outside 1..{self.k}")
        return CarlemanMatrix(
            k,
            self.n,
            self.lower[: k - 1],
            self.diag[:k],
            self.upper[:k],
            self.drive[: total_dimension(self.n, k)],
        )

    def generator(self) -> sp.csr_array:
        """Sparse generator with the block-tridiagonal layout."""
        k = self.k
        grid = [[None] * k for _ in range(k)]
        for j in range(1, k + 1):
            grid[j - 1][j - 1] = self.block_diag(j)
            if j >= 2:
                grid[j - 1][j - 2] = self.block_lower(j)
            if j < k:
                grid[j - 1][j] = self.block_upper(j)
        return sp.block_array(grid, format="csr", dtype=complex)


def build_blocks(sys: QuadraticSystem, k: int, cap: int | None = None) -> CarlemanMatrix:
    """Assemble all lift blocks by sparse Kronecker shift sums (a test oracle)."""
    if k < 1:
        raise ValueError("truncation order must be >= 1")
    n = sys.n
    dim = total_dimension(n, k)
    check_cap(dim, cap)
    f0_col = sys.f0.reshape(n, 1)
    lower = tuple(_shift_sum(f0_col, n, j) for j in range(2, k + 1))
    diag = tuple(_shift_sum(sys.f1, n, j) for j in range(1, k + 1))
    upper = tuple(_shift_sum(sys.f2, n, j) for j in range(1, k + 1))
    drive = np.zeros(dim, dtype=complex)
    drive[:n] = sys.f0
    return CarlemanMatrix(k, n, lower, diag, upper, drive)


def assemble_dense(cm: CarlemanMatrix, cap: int | None = None) -> np.ndarray:
    """Dense copy of the sparse generator; a test oracle, used by no production path."""
    check_cap(cm.total_dim, cap)
    return cm.generator().toarray()


def initial_lift(x0, k: int) -> np.ndarray:
    """Stacked tensor powers [x0, x0^(2), ..., x0^(k)]."""
    if k < 1:
        raise ValueError("truncation order must be >= 1")
    v = np.asarray(x0, dtype=complex).reshape(-1)
    return np.concatenate([tensor_power(v, j) for j in range(1, k + 1)])


def split_blocks(y: np.ndarray, n: int, k: int) -> list[np.ndarray]:
    """Split a lifted vector into its per-level blocks."""
    out = []
    pos = 0
    for j in range(1, k + 1):
        out.append(y[pos : pos + n**j])
        pos += n**j
    if pos != y.size:
        raise DimensionMismatchError(f"lift vector of size {y.size}, expected {pos}")
    return out


def symmetric_dimension(n: int, k: int) -> int:
    """Lift dimension in multiset coordinates: the sum of C(n+j-1, j) over j = 1..k."""
    return sum(math.comb(n + j - 1, j) for j in range(1, k + 1))


@cache
def _multisets(n: int, j: int) -> np.ndarray:
    """Level-j multisets as sorted index tuples, one per row, in
    ``combinations_with_replacement`` order: the blocks of
    :func:`linalg.multiset_rows` joined, built once per (n, j) and read-only."""
    table = np.concatenate(list(multiset_rows(n, j)))
    table.flags.writeable = False
    return table


def _digits(index: np.ndarray, n: int, j: int) -> np.ndarray:
    """The length-j index tuple of each position in a full level (base-n digits)."""
    return index[:, None] // n ** np.arange(j - 1, -1, -1, dtype=np.int64) % n


def _rank(tuples: np.ndarray, n: int) -> np.ndarray:
    """Multiset coordinate within its level of each row of sorted index tuples.

    A tuple's base-n value is its position in the full level, below n^j;
    on sorted tuples it ascends in ``combinations_with_replacement`` order.
    """
    powers = n ** np.arange(tuples.shape[1] - 1, -1, -1, dtype=np.int64)
    return np.searchsorted(_multisets(n, tuples.shape[1]) @ powers, tuples @ powers)


@dataclass(frozen=True)
class SymmetricLift:
    """Generator of the order-k lift on symmetric tensors, in multiset coordinates.

    Level j holds the monomials x^alpha, |alpha| = j, in
    ``combinations_with_replacement`` order; level 1 is x itself.
    ``matrix`` is the whole generator as one CSR.
    """

    n: int
    k: int
    matrix: sp.csr_array
    drive: np.ndarray

    @property
    def total_dim(self) -> int:
        return symmetric_dimension(self.n, self.k)

    def generator(self) -> sp.csr_array:
        return self.matrix

    def truncated(self, k: int) -> SymmetricLift:
        """The order-k lift for k <= self.k: the leading principal block."""
        if not 1 <= k <= self.k:
            raise ValueError(f"truncation order {k} outside 1..{self.k}")
        dim = symmetric_dimension(self.n, k)
        return SymmetricLift(self.n, k, self.matrix[:dim, :dim], self.drive[:dim])


def build_symmetric_lift(
    sys: QuadraticSystem, k: int, cap: int | None = None
) -> SymmetricLift:
    """The order-k lift generator restricted to symmetric tensors, from index arithmetic.

    Row beta of level j is d/dt x^beta = sum_a beta_a x^(beta - e_a) xdot_a,
    so entry (beta, gamma) of the shift sum of an operator F with q inputs
    (F0, F1, F2 for q = 0, 1, 2) is sum_a beta_a F[a, c] over the ordered
    q-tuples c with beta - e_a + c = gamma.  Each term removes one copy of
    a from the sorted tuple of beta and inserts c; the CSR conversion sums
    the terms.  The cap counts full coordinates, as in :func:`build_blocks`.
    """
    if k < 1:
        raise ValueError("truncation order must be >= 1")
    n = sys.n
    check_cap(total_dimension(n, k), cap)
    starts = [symmetric_dimension(n, j) for j in range(k)]  # level j starts at starts[j-1]
    ops = []
    for q, op in enumerate((sys.f0.reshape(n, 1), sys.f1, sys.f2)):
        op_rows, op_cols = np.nonzero(op)
        ops.append((q, op_rows, _digits(op_cols, n, q), op[op_rows, op_cols]))
    rows, cols, vals = [], [], []
    for j in range(1, k + 1):
        t = _multisets(n, j)
        # one term per distinct a in beta: the first slot holding it, weighted beta_a
        first = np.ones(t.shape, dtype=bool)
        first[:, 1:] = t[:, 1:] != t[:, :-1]
        row, slot = np.nonzero(first)
        a = t[row, slot]
        weight = np.count_nonzero(t[row] == a[:, None], axis=1)
        others = np.array([[i for i in range(j) if i != s] for s in range(j)], dtype=np.int64)
        rest = t[row[:, None], others[slot]]
        for q, op_rows, op_digits, op_vals in ops:
            target = j - 1 + q
            if not 1 <= target <= k:
                continue
            lo = np.searchsorted(op_rows, a, side="left")
            count = np.searchsorted(op_rows, a, side="right") - lo
            term = np.repeat(np.arange(row.size), count)
            entry = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(term.size)
            gamma = np.sort(np.concatenate([rest[term], op_digits[entry]], axis=1), axis=1)
            rows.append(starts[j - 1] + row[term])
            cols.append(starts[target - 1] + _rank(gamma, n))
            vals.append(weight[term] * op_vals[entry])
    dim = symmetric_dimension(n, k)
    index = np.int32 if dim < 2**31 else np.int64
    coords = (np.concatenate(rows).astype(index), np.concatenate(cols).astype(index))
    coo = sp.coo_array((np.concatenate(vals), coords), shape=(dim, dim))
    drive = np.zeros(dim, dtype=complex)
    drive[:n] = sys.f0
    return SymmetricLift(n, k, coo.tocsr(), drive)


def symmetric_monomials(states, n: int, k: int) -> np.ndarray:
    """The multiset coordinates x^alpha, |alpha| = 1..k, of each row of ``states``."""
    x = np.asarray(states, dtype=complex).reshape(-1, n)
    levels = []
    for j in range(1, k + 1):
        # elementwise products in slot order: the rounding is the same
        # whatever the number of rows, so x0's lift equals the reference's at t = 0
        tuples = _multisets(n, j)
        monomial = x[:, tuples[:, 0]]
        for s in range(1, j):
            monomial = monomial * x[:, tuples[:, s]]
        levels.append(monomial)
    return np.concatenate(levels, axis=1)


def multiset_index(n: int, k: int) -> np.ndarray:
    """Multiset coordinate of every full lift coordinate.

    Full coordinate i of level j is the index tuple of its base-n digits,
    and lands on the multiset of that tuple.  Indexing a multiset-coordinate
    vector with this map expands it to full coordinates (the duplication
    matrix), and its ``np.bincount`` gives the multinomial counts
    j! / prod_a alpha_a!.
    """
    return np.concatenate([
        symmetric_dimension(n, j - 1)
        + _rank(np.sort(_digits(np.arange(n**j, dtype=np.int64), n, j), axis=1), n)
        for j in range(1, k + 1)
    ])


def _taylor_plan(norm: float) -> tuple[int, int]:
    """Taylor degree m and step count s for ||t A||_1 = norm.

    Minimizes the matrix-vector products m*s subject to norm/s <= theta_m,
    the (3.13) branch of Al-Mohy & Higham's parameter choice.  Their
    sharper (3.11) branch estimates 1-norms of powers of A with a
    randomized estimator; using the exact 1-norm alone keeps the
    evolution deterministic.
    """
    if norm == 0.0:
        return 0, 1
    return min(
        ((m, math.ceil(norm / theta)) for m, theta in _TAYLOR_THETA.items()),
        key=lambda plan: plan[0] * plan[1],
    )


def _shifted_augmented(lift) -> tuple[sp.csr_array, complex, float]:
    """G - mu I, mu and ||G - mu I||_1 for the augmented generator G = [[A, a], [0, 0]].

    One pass over the CSR arrays of A = ``lift.generator()``: row r of G
    is row r of A with the drive entry a_r, where non-zero, as its last
    entry (column dim A); mu = trace(G) / dim G is subtracted in each
    row's diagonal position, entries that cancel to zero are dropped, and
    the column 1-norm is summed down the rows.  Each step does the
    arithmetic scipy does, in its order, so the arrays, mu and the norm
    are bitwise those of ``sp.block_array``, ``G - mu * sp.identity`` and
    ``abs(G - mu I).sum(axis=0).max()`` (the tests keep that route as the
    oracle).
    """
    a = lift.generator()
    if not a.has_canonical_format:  # sorted, duplicate-free rows, as block_array leaves them
        a = a.copy()
        a.sum_duplicates()
    dim = a.shape[0] + 1
    driven = np.flatnonzero(lift.drive)
    counts = np.zeros(dim, dtype=np.int64)
    counts[:-1] = np.diff(a.indptr)
    counts[driven] += 1
    indices = np.insert(a.indices, a.indptr[driven + 1], dim - 1)
    data = np.insert(a.data.astype(complex, copy=False), a.indptr[driven + 1], lift.drive[driven])
    rows = np.repeat(np.arange(dim), counts)
    # trace(G) sums the diagonal 0 + g_rr; the shift is mu * 1 in each row
    on_diag = indices == rows
    diag = np.zeros(dim, dtype=complex)
    diag[rows[on_diag]] += data[on_diag]
    mu = diag.sum() / dim
    shift = np.ones(dim, dtype=complex) * mu
    data[on_diag] -= shift[rows[on_diag]]
    # a row without a diagonal entry gets 0 - mu after its columns below r
    bare = np.ones(dim, dtype=bool)
    bare[rows[on_diag]] = False
    bare = np.flatnonzero(bare)
    at = (np.cumsum(counts) - counts + np.bincount(rows[indices < rows], minlength=dim))[bare]
    indices = np.insert(indices, at, bare)
    data = np.insert(data, at, 0 - shift[bare])
    counts[bare] += 1
    keep = data != 0
    indices, data = indices[keep], data[keep]
    indptr = np.zeros(dim + 1, dtype=indices.dtype)
    np.cumsum(np.bincount(np.repeat(np.arange(dim), counts)[keep], minlength=dim), out=indptr[1:])
    shifted = sp.csr_array((data, indices, indptr), shape=(dim, dim))
    col_max = np.bincount(indices, weights=np.abs(data), minlength=dim).max()
    return shifted, mu, col_max


def _expm_action(shifted: sp.csr_array, mu: complex, col_max: float):
    """v, t -> e^{t (shifted + mu I)} v by scaled truncated Taylor series (Al-Mohy & Higham, Alg. 3.2).

    The shifted matrix, mu and its 1-norm ``col_max`` come from
    :func:`_shifted_augmented`; each call only plans its Taylor degree and
    step count for its t.  The series stops early once two consecutive
    terms fall below 2^-53 of the partial sum.
    """

    def action(v: np.ndarray, t: float) -> np.ndarray:
        m, s = _taylor_plan(float(abs(t) * col_max))
        eta = np.exp(t * mu / s)
        f = v
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(s):
                term = f
                c1 = np.abs(term).max()
                for j in range(1, m + 1):
                    term = (t / (s * j)) * (shifted @ term)
                    c2 = np.abs(term).max()
                    f = f + term
                    if c1 + c2 <= _TAYLOR_TOL * np.abs(f).max():
                        break
                    c1 = c2
                f = eta * f
                if not np.all(np.isfinite(f)):
                    raise MatrixOverflowError("matrix exponential action overflowed")
        return f

    return action


def integrate_lift(cm: CarlemanMatrix, y0, times, cap: int | None = None) -> Trajectory:
    """Exact affine-linear evolution ydot = A y + a, one exponential action per step.

    [y; 1] evolves under the sparse augmented generator [[A, a], [0, 0]],
    so no invertibility of A is assumed; it is built, shifted and normed
    once (:func:`_shifted_augmented`).  Each step applies e^{dt G} to the
    current state without forming it (see :func:`_expm_action`); uneven
    steps cost no more than even ones, and no randomness is drawn, so
    reruns are bit-identical.  A non-finite state raises
    :class:`MatrixOverflowError`.
    """
    v0 = np.asarray(y0, dtype=complex).reshape(-1)
    if v0.size != cm.total_dim:
        raise DimensionMismatchError(
            f"lift state dim {v0.size}, expected {cm.total_dim}"
        )
    t = _sample_times(times)
    check_cap(cm.total_dim, cap)
    expm = _expm_action(*_shifted_augmented(cm))
    states = np.empty((t.size, cm.total_dim), dtype=complex)
    states[0] = v0
    current = np.concatenate([v0, [1.0 + 0j]])
    for i, dt in enumerate(np.diff(t), start=1):
        current = expm(current, float(dt))
        states[i] = current[:-1]
    return Trajectory(t, states)


@dataclass(frozen=True)
class ErrorProfile:
    """Per-block truncation errors ||x(t)^(j) - y^[j](t)|| between ``reference`` and ``lift``."""

    times: np.ndarray
    block_norms: np.ndarray  # shape (len(times), k)
    k_used: int
    reference: Trajectory | None = field(default=None, repr=False)
    lift: Trajectory | None = field(default=None, repr=False)  # multiset coordinates


def error_profile(
    sys: QuadraticSystem,
    x0,
    k: int,
    times,
    tol: float = 1e-12,
    cap: int | None = None,
    reference: Trajectory | None = None,
) -> ErrorProfile:
    """Blockwise lift error against the nonlinear reference solve.

    The lift evolves in multiset coordinates (:func:`build_symmetric_lift`)
    and the error is formed by direct subtraction from the reference's
    monomials; the block norms follow from
    ||x^(j) - y_j||^2 = sum_alpha (j choose alpha) |x^alpha - y_alpha|^2.
    ``lift`` holds the lifted states in those multiset coordinates.  The
    defect ODE formulation is kept as a test property, not recomputed here.
    """
    t = np.asarray(times, dtype=float)
    ref = reference if reference is not None else integrate_reference(
        sys, x0, t, rel_tol=tol, abs_tol=tol
    )
    n = sys.n
    lifted = build_symmetric_lift(sys, k, cap=cap)
    lift = integrate_lift(lifted, symmetric_monomials(x0, n, k).ravel(), t, cap=cap)
    diff = symmetric_monomials(ref.states, n, k) - lift.states
    squares = np.bincount(multiset_index(n, k)) * np.abs(diff) ** 2
    starts = [symmetric_dimension(n, j) for j in range(k)]
    norms = np.sqrt(np.add.reduceat(squares, starts, axis=1))
    return ErrorProfile(t, norms, k, reference=ref, lift=lift)


def convergence_sweep(
    sys: QuadraticSystem,
    x0,
    k_range,
    t: float,
    tol: float = 1e-12,
    cap: int | None = None,
) -> dict:
    """First-block error at time t for each k, plus a geometric-ratio fit.

    The lift is built once at the largest k, in multiset coordinates; every
    smaller order is its leading principal block.  The fit is on log(error) vs k by least
    squares; it is reported as absent when any error sits at the oracle
    noise floor (10x tol).
    """
    ks = sorted(int(k) for k in k_range)
    if not ks or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("k_range must be nonempty and strictly ascending")
    times = np.array([0.0, float(t)])
    ref = integrate_reference(sys, x0, times, rel_tol=tol, abs_tol=tol)
    lifted = build_symmetric_lift(sys, ks[-1], cap=cap)
    y0 = symmetric_monomials(x0, sys.n, ks[-1]).ravel()
    errs: dict[int, float] = {}
    for k in ks:
        truncated = lifted.truncated(k)
        lift = integrate_lift(truncated, y0[: truncated.total_dim], times, cap=cap)
        errs[k] = float(np.linalg.norm(ref.states[-1] - lift.states[-1, : sys.n]))
    ratio = None
    floor = 10.0 * tol
    vals = np.array([errs[k] for k in ks])
    if np.all(vals > floor):
        slope = np.polyfit(np.array(ks, dtype=float), np.log(vals), 1)[0]
        ratio = float(np.exp(slope))
    return {"errors": errs, "fitted_ratio": ratio}


def integrate_nonautonomous(f, x0, times, rel_tol=1e-12, abs_tol=1e-12) -> Trajectory:
    """Dormand-Prince 5(4) solve of an explicit time-dependent rhs f(t, x).

    One solve over the whole span, read at the times from its dense
    output.  Used to cross-check the autonomous embeddings of driven and
    oscillating systems against a direct non-autonomous solve by a
    different method and code base than the Taylor reference.
    """
    return _dormand_prince(f, as_cvector(x0), times, rel_tol, abs_tol)


def _dormand_prince(f, v0: np.ndarray, times, rel_tol, abs_tol) -> Trajectory:
    """RK45 (Dormand-Prince 5(4)) solve of xdot = f(t, x), read at the times.

    One solve covers [0, times[-1]] and the states are read from its
    interpolant.  The times must start at 0 and increase strictly.  The
    solve may spend :data:`system.RHS_BUDGET` evaluations of f, beyond
    which it raises :class:`CapExceededError`.  A collapsed step raises
    :class:`StepSizeUnderflowError`, any other solver failure or a
    non-finite sampled state raises :class:`NonFiniteStateError`.
    """
    t = _sample_times(times)
    if t.size == 1:
        return Trajectory(t, v0[None, :].copy())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rtol clamping near eps is fine
        sol = solve_ivp(
            _budgeted(f),
            (0.0, float(t[-1])),
            v0.astype(complex),
            method="RK45",
            t_eval=t,
            rtol=max(rel_tol, 3e-14),
            atol=abs_tol,
        )
    if not sol.success:
        msg = sol.message or "integration failed"
        if "step size" in msg.lower() or sol.status == -1:
            raise StepSizeUnderflowError(msg)
        raise NonFiniteStateError(msg)
    if not np.all(np.isfinite(sol.y)):
        raise NonFiniteStateError("integration produced non-finite state")
    return Trajectory(t, sol.y.T)


def _budgeted(f):
    """f, raising :class:`CapExceededError` once called more than :data:`system.RHS_BUDGET` times."""
    calls = 0

    def counted(t, y):
        nonlocal calls
        calls += 1
        _charge(calls)
        return f(t, y)

    return counted
