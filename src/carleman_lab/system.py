"""Quadratic ODE systems xdot = F0 + F1 x + F2 (x (x) x).

The state is complex throughout; F2 maps the tensor square of the state
back to the state space, stored dense with column index j*N + l for the
(j, l) slot pair.  The coefficient arrays are read-only, so each system
can carry its :class:`Spectrum`, the eigenbasis data every certifier
reads, computed once on first use.  The module also hosts the
high-accuracy Taylor integrator that all truncation-error measurements
are judged against and that solves the certifiers' trajectory
supremum, and the evaluation budget of every adaptive solve.  It loads
no scipy: the RK45 cross-check lives in :mod:`carleman`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    NonDiagonalizableError,
    NonFiniteStateError,
    NonPositiveGammaError,
    StepSizeUnderflowError,
)
from .linalg import (
    EigDecomposition,
    as_cmatrix,
    as_cvector,
    column_sparsity,
    eig,
    kron2,
    spectral_norm,
)

# right-hand-side evaluations one solve may spend, where each Taylor
# coefficient order counts as one: about 80x the most any test needs
# (2 580, a finite-time escape; a benchmark request needs at most 1 040),
# and 3.7x what an ``oscillator_network`` supremum at --f2-frequency 700
# needs (54 580).
RHS_BUDGET = 200_000

# order of the Taylor polynomial each reference and supremum step takes,
# and the step's safety factor exp(-0.7 / (p - 1)) (Jorba and Zou)
TAYLOR_ORDER = 20
_STEP_SAFETY = math.exp(-0.7 / (TAYLOR_ORDER - 1))


@dataclass(frozen=True)
class QuadraticSystem:
    """The triple (F0, F1, F2) defining a quadratic ODE of dimension n."""

    f0: np.ndarray
    f1: np.ndarray
    f2: np.ndarray

    def __post_init__(self):
        for name, coerce in (("f0", as_cvector), ("f1", as_cmatrix), ("f2", as_cmatrix)):
            raw = getattr(self, name)
            a = coerce(raw)
            if np.may_share_memory(a, raw):
                a = a.copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        n = self.f1.shape[0]
        if self.f1.shape != (n, n):
            raise DimensionMismatchError(f"f1 must be square, got {self.f1.shape}")
        if self.f0.shape != (n,):
            raise DimensionMismatchError(f"f0 has dim {self.f0.shape[0]}, expected {n}")
        if self.f2.shape != (n, n * n):
            raise DimensionMismatchError(
                f"f2 has shape {self.f2.shape}, expected {(n, n * n)}"
            )

    @property
    def n(self) -> int:
        return self.f1.shape[0]

    def vector_field(self, y: np.ndarray) -> np.ndarray:
        """F0 + F1 y + F2 (y (x) y) for a complex state of dimension n, unchecked.

        The one evaluation of the vector field, for callers that evaluate
        it repeatedly (the Fourier-mode right-hand side of the RK45
        cross-check, residual checks), so it skips the coercion and
        dimension checks that :func:`rhs` makes.  The Taylor solves do not
        call it: they take the field's coefficients.
        """
        return self.f0 + self.f1 @ y + self.f2 @ kron2(y, y)

    @cached_property
    def spectrum(self) -> Spectrum:
        """Eigenbasis data of F1, computed on first use and shared by every caller."""
        return Spectrum.of(self)


@dataclass(frozen=True)
class Spectrum:
    """Eigenbasis quantities of one system, derived once.

    The one source of every eigenvalue-derived number the certifiers use.
    ``dec`` factors F1 = Q diag(lambda) Q^{-1}, and :attr:`abscissa` is
    max Re(lambda) over its eigenvalues.  ``f2_tilde`` is
    Q^{-1} F2 (Q (x) Q), the nonlinearity in that eigenbasis, with its
    2-norm (NaN when Q^{-1} is not finite), column sparsity and ||Q||_2;
    ``f0_tilde_norm`` is ||Q^{-1} F0||.  :meth:`diagonalizable` is the one
    refusal of a numerically defective F1.  :meth:`x_max_tilde` memoizes
    the empirical trajectory supremum in the eigenbasis, from one Taylor
    solve, or its finite-time escape, per (x0, horizon, tol, frequency).
    """

    system: QuadraticSystem = field(repr=False)
    dec: EigDecomposition
    f2_tilde: np.ndarray
    f2_tilde_norm: float
    f0_tilde_norm: float
    sparsity: int
    q_norm: float
    _x_max: dict = field(default_factory=dict, repr=False)

    @classmethod
    def of(cls, sys: QuadraticSystem) -> Spectrum:
        dec = eig(sys.f1)
        for a in (dec.eigenvalues, dec.right_vectors, dec.inverse_vectors):
            a.flags.writeable = False
        q = dec.right_vectors
        f2t = dec.inverse_vectors @ sys.f2 @ kron2(q, q)
        f2t.flags.writeable = False
        f2n = float(spectral_norm(f2t)) if np.all(np.isfinite(f2t)) else np.nan
        f0n = float(np.linalg.norm(dec.inverse_vectors @ sys.f0))
        return cls(sys, dec, f2t, f2n, f0n, column_sparsity(f2t), float(spectral_norm(q)))

    @property
    def abscissa(self) -> float:
        """Spectral abscissa alpha = max Re(lambda)."""
        return float(np.max(self.dec.eigenvalues.real))

    def diagonalizable(self) -> Spectrum:
        """This spectrum, or :class:`NonDiagonalizableError` when F1 is numerically defective."""
        if not self.dec.diagonalizable:
            raise NonDiagonalizableError("linear part is numerically defective")
        return self

    def x_max_tilde(
        self, x0, horizon: float, tol: float, *, frequency: float = 0.0
    ) -> float:
        """:func:`conservative.estimate_x_max_tilde` in this eigenbasis, solved once per key.

        The key is (x0, horizon, tol, frequency).  A nonzero ``frequency``
        marks this system as spectrally shifted by it and solves the
        supremum in the unshifted frame; the eigenbasis Q stays this
        spectrum's.  A finite-time escape is remembered too: later calls
        with the same key re-raise it without integrating again.
        """
        from . import conservative

        v0 = as_cvector(x0)
        key = (v0.tobytes(), float(horizon), float(tol), float(frequency))
        if key not in self._x_max:
            try:
                self._x_max[key] = conservative.estimate_x_max_tilde(
                    self.system, v0, self.dec.right_vectors, horizon,
                    tol=tol, frequency=frequency,
                )
            except (StepSizeUnderflowError, NonFiniteStateError) as exc:
                self._x_max[key] = exc
        if isinstance(self._x_max[key], Exception):
            raise self._x_max[key]
        return self._x_max[key]


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution states at strictly increasing times."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=complex)
        if t.ndim != 1 or s.ndim != 2 or s.shape[0] != t.size:
            raise DimensionMismatchError("times/states shapes inconsistent")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)


def rhs(sys: QuadraticSystem, x) -> np.ndarray:
    """Right-hand side F0 + F1 x + F2 (x (x) x)."""
    v = as_cvector(x)
    if v.size != sys.n:
        raise DimensionMismatchError(f"state dim {v.size}, system dim {sys.n}")
    return sys.vector_field(v)


def rescale(sys: QuadraticSystem, gamma: float) -> QuadraticSystem:
    """Unit change (F0, F1, F2) -> (g F0, F1, F2/g); trajectories scale as g x(t)."""
    if not (gamma > 0 and np.isfinite(gamma)):
        raise NonPositiveGammaError(f"gamma must be positive and finite, got {gamma}")
    return replace(sys, f0=gamma * sys.f0, f2=sys.f2 / gamma)


def integrate_reference(
    sys: QuadraticSystem,
    x0,
    times,
    rel_tol: float = 1e-12,
    abs_tol: float = 1e-12,
) -> Trajectory:
    """Adaptive order-20 Taylor solve, read at the requested times.

    The Taylor coefficients of a quadratic field follow exactly from a
    Cauchy-product recurrence; each step keeps the last two terms of its
    polynomial below abs_tol + rel_tol*||x||_inf, and every sample is that
    step's polynomial evaluated at it, so samples cost no solver work
    (see :func:`_taylor_solve`).  This is the brute-force oracle every
    Carleman truncation error is measured against, so the defaults are
    near the binary64 floor.
    """
    v0 = as_cvector(x0)
    if v0.size != sys.n:
        raise DimensionMismatchError(f"x0 dim {v0.size}, system dim {sys.n}")
    return _taylor_solve(sys.f0, sys.f1, sys.f2, v0, times, rel_tol, abs_tol)


def check_horizon(horizon: float) -> None:
    """Refuse a study horizon that is not positive (NaN included) or not finite."""
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be {'finite' if horizon > 0 else 'positive'}")


def check_tolerance(tol: float) -> None:
    """Refuse a solve tolerance outside [1e-14, 1e-3] (NaN included)."""
    if not 1e-14 <= tol <= 1e-3:
        raise ValueError(f"tolerance {tol} outside [1e-14, 1e-3]")


def check_block(j: int, k: int, t: float) -> None:
    """Refuse a lift block j outside 1..k or a negative time (an error bound's arguments)."""
    if not (1 <= j <= k):
        raise ValueError("need 1 <= j <= k")
    if t < 0:
        raise ValueError("time must be nonnegative")


def _sample_times(times) -> np.ndarray:
    """``times`` as floats, refused unless they start at 0 and increase strictly."""
    t = np.asarray(times, dtype=float)
    if t.size == 0 or t[0] != 0.0 or (t.size > 1 and np.any(np.diff(t) <= 0)):
        raise ValueError("times must be strictly increasing and start at 0")
    return t


def _charge(spent: int) -> None:
    """Raise :class:`CapExceededError` once a solve has spent more than :data:`RHS_BUDGET`."""
    if spent > RHS_BUDGET:
        raise CapExceededError(
            f"solve exceeded its budget of {RHS_BUDGET} right-hand-side evaluations"
        )


def _taylor_solve(
    f0, f1, f2, x0: np.ndarray, times, rel_tol, abs_tol, *, frequency: float = 0.0
) -> Trajectory:
    """Taylor solve of xdot = F0 + F1 x + exp(i w t) F2 (x (x) x), read at the times.

    w is ``frequency``; at 0 the field is the autonomous quadratic one.
    At each step from t the coefficients of x(t + s) = sum_m X_m s^m
    follow exactly from X_0 = x(t) and

        X_(m+1) = (delta_m0 F0 + F1 X_m + F2 sum_a U_a C_(m-a)) / (m + 1),

    with C_k = sum_i X_i (x) X_(k-i) the Cauchy sum and U_a the Taylor
    coefficients exp(i w t) (i w)^a / a! of the phase (U_0 = 1 at w = 0);
    see :func:`_taylor_coefficients`.  They are kept scaled by the
    previous step r, as Y_m = X_m r^m, so that they stay near ||x||
    instead of overflowing.  With p = :data:`TAYLOR_ORDER` and
    eps = abs_tol + rel_tol ||x||_inf, the step is

        h = r exp(-0.7 / (p - 1)) min_(m in {p-1, p}) (eps / ||Y_m||_inf)^(1/m)

    (Jorba and Zou, Experimental Mathematics 14, 2005), and every sample
    in (t, t + h] is the step's polynomial, evaluated by Horner.  Both
    tolerances must lie in [1e-14, 1e-3] (ValueError otherwise; NaN too).
    The failure policy is that of the RK45 cross-check
    (:func:`carleman.integrate_nonautonomous`): each coefficient order
    counts as one right-hand-side evaluation against :data:`RHS_BUDGET`,
    a step below 10 ulp of t raises :class:`StepSizeUnderflowError` and a
    non-finite coefficient raises :class:`NonFiniteStateError`.
    """
    check_tolerance(rel_tol)
    check_tolerance(abs_tol)
    t = _sample_times(times)
    g = _homogenized(f0, f1, f2)
    states = np.empty((t.size, x0.size), dtype=complex)
    states[0] = x = x0
    end, now, filled, spent = float(t[-1]), 0.0, 1, 0
    # the first step has no previous one; 1 over a bound on the field's
    # rate of change near x0 keeps its scaled coefficients near ||x0|| too
    f2_norm = np.abs(f2).sum(axis=1).max()
    rate = (
        np.abs(f1).sum(axis=1).max() + 2.0 * f2_norm * np.abs(x0).max()
        + np.sqrt(f2_norm * np.abs(f0).max()) + abs(frequency)
    )
    r = min(end, 1.0 / rate) if rate > 0 else end
    ladder = np.arange(1, TAYLOR_ORDER + 1)
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite coefficient
        while now < end:
            spent += TAYLOR_ORDER
            _charge(spent)
            phase = None
            if frequency:
                ratios = np.concatenate(([1.0], 1j * frequency * r / ladder))
                phase = cmath.exp(1j * frequency * now) * np.cumprod(ratios)
            y = _taylor_coefficients(g, x, r, phase)
            if not np.all(np.isfinite(y)):
                raise NonFiniteStateError("integration produced non-finite state")
            eps = abs_tol + rel_tol * np.abs(x).max()
            tail = np.abs(y[-2:]).max(axis=1)
            h = r * _STEP_SAFETY * np.min((eps / tail) ** (1.0 / ladder[-2:]))
            if not h >= 10.0 * np.spacing(now):  # a NaN step is no step either
                raise StepSizeUnderflowError(
                    "Required step size is less than spacing between numbers."
                )
            stop = min(now + h, end)
            last = int(np.searchsorted(t, stop, side="right"))
            theta = (np.append(t[filled:last], stop) - now)[:, None] / r
            acc = y[TAYLOR_ORDER] * theta
            for m in range(TAYLOR_ORDER - 1, 0, -1):
                acc += y[m]
                acc *= theta
            acc += y[0]
            states[filled:last] = acc[:-1]
            x, filled, now, r = acc[-1], last, stop, h
    return Trajectory(t, states)


def _homogenized(f0, f1, f2) -> np.ndarray:
    """The (n, (n+1)^2) matrix g with g (z (x) z) = F0 + F1 x + F2 (x (x) x) for z = [1, x].

    F0 sits in the (1, 1) slot, F1 in the (1, x) slots and F2 in the
    (x, x) ones; the (x, 1) slots stay zero.
    """
    n = f1.shape[0]
    g = np.zeros((n, n + 1, n + 1), dtype=complex)
    g[:, 0, 0], g[:, 0, 1:], g[:, 1:, 1:] = f0, f1, f2.reshape(n, n, n)
    return g.reshape(n, -1)


def _taylor_coefficients(g, x, r, phase=None) -> np.ndarray:
    """Y_m = X_m r^m, m = 0..p, of the solution through x (see :func:`_taylor_solve`).

    ``g`` is the field homogenized on z = [1, x] (:func:`_homogenized`).
    The constant coordinate has Z_0 = 1 and Z_m = 0 after, so the Cauchy sum
    sum_i Z_i (x) Z_(m-i) carries delta_m0, Y_m and C_m at once and each
    order is one product with g.  ``phase`` holds U_a r^a, a <= p, of the
    factor on the F2 term (None for the constant 1); it enters through
    the phase-weighted coefficients V_k = sum_a U_a r^a Y_(k-a), since
    sum_a U_a C_(m-a) = sum_i V_i (x) Y_(m-i).
    """
    z = np.zeros((TAYLOR_ORDER + 1, x.size + 1), dtype=complex)
    z[0, 0], z[0, 1:] = 1.0, x
    v = z
    if phase is not None:
        v = z.copy()
        v[0, 1:] *= phase[0]
    for m in range(TAYLOR_ORDER):
        cauchy = v[: m + 1].T @ z[m::-1]
        z[m + 1, 1:] = (g @ cauchy.reshape(-1)) * (r / (m + 1))
        if phase is not None:
            v[m + 1, 1:] = phase[: m + 2] @ z[m + 1 :: -1, 1:]
    return z[:, 1:]
