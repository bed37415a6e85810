"""Quadratic ODE systems xdot = F0 + F1 x + F2 (x (x) x).

The state is complex throughout; F2 maps the tensor square of the state
back to the state space, stored dense with column index j*N + l for the
(j, l) slot pair.  The coefficient arrays are read-only, so each system
can carry its :class:`Spectrum`, the eigenbasis data every certifier
reads, computed once on first use.  The module also hosts the
high-accuracy adaptive reference integrator that all truncation-error
measurements are judged against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
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
    kron_pair,
    kron_square,
    spectral_norm,
)

_RNG_PROBES = 8


@dataclass(frozen=True)
class QuadraticSystem:
    """The triple (F0, F1, F2) defining a quadratic ODE of dimension n."""

    f0: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    symmetrized: bool = False

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

        The one evaluation of the vector field: the reference and supremum
        solves call it at every stage, so it skips the coercion and
        dimension checks that :func:`rhs` makes.
        """
        return self.f0 + self.f1 @ y + self.f2 @ kron_pair(y)

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
    the empirical trajectory supremum in the eigenbasis, or its
    finite-time escape, per (x0, horizon, tol, frequency).
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
        f2t = dec.inverse_vectors @ sys.f2 @ kron_square(q)
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
    tolerance: float = field(default=np.nan)

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


def validate(sys: QuadraticSystem) -> list[str]:
    """Diagnostics list; empty means well-formed.

    Dimension errors are caught at construction, so this mostly reports
    the measured asymmetry of F2 under swapping its two input slots.
    """
    issues: list[str] = []
    n = sys.n
    if not np.all(np.isfinite(sys.f0)) or not np.all(np.isfinite(sys.f1)):
        issues.append("non-finite entries")
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(_RNG_PROBES):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        gap = np.linalg.norm(sys.f2 @ kron2(u, v) - sys.f2 @ kron2(v, u))
        scale = max(np.linalg.norm(u) * np.linalg.norm(v), 1e-300)
        worst = max(worst, gap / scale)
    if worst > 1e-12:
        issues.append(f"f2 asymmetry {worst:.3e} on probe vectors")
    return issues


def symmetrize(sys: QuadraticSystem) -> QuadraticSystem:
    """Average F2 over its two input slots; the induced quadratic map is unchanged."""
    n = sys.n
    t = sys.f2.reshape(n, n, n)
    sym = (t + t.transpose(0, 2, 1)) / 2.0
    return replace(sys, f2=sym.reshape(n, n * n), symmetrized=True)


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
    """Adaptive Dormand-Prince 5(4) solve sampled at the requested times.

    Local error is controlled per step by rel_tol*|x| + abs_tol.  This is
    the brute-force oracle every Carleman truncation error is measured
    against, so the defaults are near the binary64 floor.
    """
    v0 = as_cvector(x0)
    if v0.size != sys.n:
        raise DimensionMismatchError(f"x0 dim {v0.size}, system dim {sys.n}")
    for tol in (rel_tol, abs_tol):
        if not 1e-14 <= tol <= 1e-3:
            raise ValueError(f"tolerance {tol} outside [1e-14, 1e-3]")
    return _dormand_prince(lambda _t, y: sys.vector_field(y), v0, times, rel_tol, abs_tol)


def integrate_nonautonomous(f, x0, times, rel_tol=1e-12, abs_tol=1e-12) -> Trajectory:
    """Same Dormand-Prince solve for an explicit time-dependent rhs f(t, x).

    Used to cross-check the autonomous embeddings of driven and
    oscillating systems against a direct non-autonomous solve.
    """
    return _dormand_prince(f, as_cvector(x0), times, rel_tol, abs_tol)


def _dormand_prince(
    f, v0: np.ndarray, times, rel_tol, abs_tol, *, method: str = "RK45"
) -> Trajectory:
    """Dormand-Prince solve of xdot = f(t, x) at the given times, with one failure policy.

    ``method`` is the scipy pair, fixed by each caller: the 5(4) pair
    "RK45" for the reference oracles the lift is scored against, the
    8(5,3) pair "DOP853" for the certifiers' trajectory supremum, where
    it needs about four times fewer rhs evaluations at 1e-12.  The times
    must start at 0 and increase strictly.  A collapsed step raises
    :class:`StepSizeUnderflowError`, any other solver failure or a
    non-finite sampled state raises :class:`NonFiniteStateError`.
    """
    t = np.asarray(times, dtype=float)
    if t.size == 0 or t[0] != 0.0 or (t.size > 1 and np.any(np.diff(t) <= 0)):
        raise ValueError("times must be strictly increasing and start at 0")
    if t.size == 1:
        return Trajectory(t, v0[None, :].copy(), rel_tol)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rtol clamping near eps is fine
        sol = solve_ivp(
            f,
            (0.0, float(t[-1])),
            v0.astype(complex),
            method=method,
            t_eval=t,
            rtol=max(rel_tol, 3e-14),
            atol=abs_tol,
        )
    if not sol.success:
        msg = sol.message or "integration failed"
        if "step size" in msg.lower() or sol.status == -1:
            raise StepSizeUnderflowError(msg)
        raise NonFiniteStateError(msg)
    states = sol.y.T
    if not np.all(np.isfinite(states)):
        raise NonFiniteStateError("integration produced non-finite state")
    return Trajectory(t, states, rel_tol)
