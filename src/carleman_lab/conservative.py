"""Certificates and embeddings for marginally stable systems.

Marginal modes (eigenvalues on the imaginary axis) are admissible when
they correspond to conserved or oscillating linear quantities, i.e. when
their left eigenvectors annihilate the quadratic term (and the drive for
truly conserved ones).  Convergence of the lift is then governed by the
real spectral gap of the dissipative modes.  Driving, explicit time
dependence, and quadratic conserved observables are handled by exact
embeddings into larger autonomous driftless systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (
    DriveNotSupportedError,
    NoDissipativeModeError,
    NonDiagonalizableError,
    NonFiniteStateError,
    PositiveRealPartError,
    SingularQError,
    StepSizeUnderflowError,
    UncertifiedError,
    UnsupportedOrderError,
    ZeroAncillaSeedError,
    ZeroDriveError,
    ZeroNonlinearityError,
)
from .linalg import as_cmatrix, as_cvector, kron2, kron_pair, kron_square, spectral_norm
from .system import QuadraticSystem, _dormand_prince

DETECTION_TOL_DEFAULT = 1e-9
XMAX_SAFETY = 1.02
_XMAX_SAMPLES = 2001


@dataclass(frozen=True)
class InvariantStructure:
    """Detected conserved and oscillating linear quantities.

    ``violations`` lists marginal eigenvalues whose left eigenvectors
    fail the annihilation tests, with the measured residuals; such modes
    block certification.
    """

    conserved: list
    oscillating: list  # (vector, omega) pairs
    tolerance: float
    violations: list = field(default_factory=list)


def detect_invariants(
    sys: QuadraticSystem, tol: float = DETECTION_TOL_DEFAULT
) -> InvariantStructure:
    """Find left eigenvectors of F1 on the imaginary axis that survive F2/F0 tests."""
    if not 1e-12 <= tol <= 1e-4:
        raise ValueError(f"detection tolerance {tol} outside [1e-12, 1e-4]")
    dec = sys.spectrum.dec
    if not dec.diagonalizable:
        raise NonDiagonalizableError("linear part is numerically defective")
    f2_scale = max(np.linalg.norm(sys.f2, 2), 0.0)
    f0_scale = max(np.linalg.norm(sys.f0), 0.0)
    conserved, oscillating, violations = [], [], []
    for m, lam in enumerate(dec.eigenvalues):
        if abs(lam.real) > tol:
            continue
        q_dag = dec.inverse_vectors[m, :]
        q = q_dag.conj()
        q = q / np.linalg.norm(q)
        res_f2 = float(np.linalg.norm(q.conj() @ sys.f2))
        res_f0 = float(abs(q.conj() @ sys.f0))
        ok_f2 = res_f2 <= tol * f2_scale or f2_scale == 0.0
        ok_f0 = res_f0 <= tol * f0_scale or f0_scale == 0.0
        if ok_f2 and ok_f0:
            if abs(lam.imag) <= tol:
                conserved.append(q)
            else:
                oscillating.append((q, float(lam.imag)))
        else:
            violations.append(
                {
                    "eigenvalue": complex(lam),
                    "vector": q,
                    "residual_f2": res_f2,
                    "residual_f0": res_f0,
                }
            )
    return InvariantStructure(conserved, oscillating, tol, violations)


def real_spectral_gap(f1, tol: float = DETECTION_TOL_DEFAULT) -> float:
    """Decay rate of the slowest strictly dissipative mode."""
    a = as_cmatrix(f1)
    lams = np.linalg.eigvals(a)
    if np.any(lams.real > tol):
        raise PositiveRealPartError(
            f"eigenvalue with real part {lams.real.max():.3e} > {tol}"
        )
    dissipative = lams.real[lams.real < -tol]
    if dissipative.size == 0:
        raise NoDissipativeModeError("no eigenvalue with negative real part")
    return float(-dissipative.max())


def transformed_f2_norm(sys: QuadraticSystem, q) -> float:
    """|| Q^{-1} F2 (Q (x) Q) ||, the nonlinearity strength in the eigenbasis."""
    qm = as_cmatrix(q)
    try:
        qinv = np.linalg.inv(qm)
    except np.linalg.LinAlgError as exc:
        raise SingularQError(str(exc)) from exc
    return float(spectral_norm(qinv @ sys.f2 @ kron_square(qm)))


def r_delta(sys: QuadraticSystem, x_max_tilde: float, q) -> float:
    """Gap-weighted R-number 2e ||x_max~|| ||Q^{-1} F2 Q^(2)|| / delta."""
    if not x_max_tilde > 0:
        raise ValueError("x_max_tilde must be positive")
    delta = real_spectral_gap(sys.f1)
    return float(2.0 * math.e * x_max_tilde * transformed_f2_norm(sys, q) / delta)


def estimate_x_max_tilde(
    sys: QuadraticSystem, x0, q, horizon: float, tol: float = 1e-12
) -> float:
    """Empirical sup of ||Q^{-1} x(t)|| over [0, horizon], padded by 2%.

    This is an estimate from a DOP853 solve (rtol = atol = ``tol``,
    1e-12 by default) sampled at 2001 evenly spaced times, not a proof;
    certificates built on it carry an "empirical-supremum" caveat.  A
    finite-time escape raises :class:`StepSizeUnderflowError` or
    :class:`NonFiniteStateError`.
    """
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    qm = as_cmatrix(q)
    try:
        qinv = np.linalg.inv(qm)
    except np.linalg.LinAlgError as exc:
        raise SingularQError(str(exc)) from exc
    v0 = as_cvector(x0)
    ts = np.linspace(0.0, float(horizon), _XMAX_SAMPLES)
    states = _dormand_prince(
        lambda _t, y: sys.vector_field(y), v0, ts, tol, tol, method="DOP853"
    ).states.T
    sup = float(np.max(np.linalg.norm(qinv @ states, axis=0)))
    return XMAX_SAFETY * sup


@dataclass(frozen=True)
class ConservativeCertificate:
    """Outcome of gap-based certification for a marginally stable system."""

    value: float  # the operative R-number (drive-adjusted when upsilon set)
    delta: float
    x_max_tilde: float
    gamma0: float
    p: float
    certified: bool
    reason: str = ""
    q: np.ndarray | None = None
    upsilon: float | None = None
    tight_first_block: bool = False
    gamma0_tight: float | None = None
    value_tight: float | None = None
    caveats: tuple = ()

    @property
    def gamma(self) -> float:
        return self.p * self.gamma0


def certify_conservative(
    sys: QuadraticSystem,
    x0,
    horizon: float = 10.0,
    tol: float = 1e-12,
    p: float = 1.0,
    tight_first_block: bool = False,
    detection_tol: float = DETECTION_TOL_DEFAULT,
) -> ConservativeCertificate:
    """Run the full gap-certification pipeline on one system.

    Checks diagonalizability, classifies the marginal modes as
    conserved/oscillating quantities, refuses if any marginal mode fails
    its annihilation test, and assembles the R-number (driving handled
    through the optimal ancilla amplitude).  ``p`` in (0, 1] scales the
    rescaling gamma = p * gamma0 the error bound is quoted at.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")

    def refuse(reason: str) -> ConservativeCertificate:
        return ConservativeCertificate(
            value=np.inf,
            delta=np.nan,
            x_max_tilde=np.nan,
            gamma0=np.nan,
            p=p,
            certified=False,
            reason=reason,
            tight_first_block=tight_first_block,
        )

    spec = sys.spectrum
    if not spec.dec.diagonalizable:
        return refuse("linear part is numerically defective")
    inv = detect_invariants(sys, tol=detection_tol)
    if inv.violations:
        lam = inv.violations[0]["eigenvalue"]
        return refuse(
            f"marginal eigenvalue {lam} fails the annihilation tests; "
            "not a conserved/oscillating quantity"
        )
    try:
        delta = real_spectral_gap(sys.f1, tol=detection_tol)
    except (PositiveRealPartError, NoDissipativeModeError) as exc:
        return refuse(str(exc))
    q = spec.dec.right_vectors
    try:
        x_max = spec.x_max_tilde(x0, horizon, tol)
    except (StepSizeUnderflowError, NonFiniteStateError):
        return refuse("trajectory escapes in finite time")
    f2_t = spec.f2_tilde_norm
    q_norm = spec.q_norm
    gamma0 = math.e * f2_t / (delta * q_norm)
    gamma0_tight = 16.0 * f2_t / (delta * q_norm)
    upsilon = None
    if np.linalg.norm(sys.f0) > 0:
        if f2_t == 0.0:
            return replace(
                refuse("driven system with vanishing nonlinearity: ancilla "
                       "amplitude undefined"),
                delta=delta, x_max_tilde=x_max, gamma0=gamma0, q=q,
            )
        f0_t = float(np.linalg.norm(spec.dec.inverse_vectors @ sys.f0))
        upsilon = math.sqrt(f0_t / f2_t)
        value = (
            2.0
            * math.e
            * f2_t
            * math.sqrt(x_max**2 + f0_t / f2_t)
            / delta
        )
        value_tight = value * 2.0 / math.e
    else:
        value = 2.0 * math.e * x_max * f2_t / delta
        value_tight = 4.0 * x_max * f2_t / delta
    return ConservativeCertificate(
        value=float(value),
        delta=delta,
        x_max_tilde=x_max,
        gamma0=gamma0,
        p=p,
        certified=bool(value < 1.0),
        reason="" if value < 1.0 else "R-number >= 1",
        q=q,
        upsilon=upsilon,
        tight_first_block=tight_first_block,
        gamma0_tight=gamma0_tight,
        value_tight=float(value_tight),
        caveats=("empirical-supremum",),
    )


def conservative_error_bound(cert: ConservativeCertificate, j: int, k: int) -> float:
    """Time-uniform per-block bound j/(2(k+1)) p^j R^(k+1) for the rescaled lift.

    With the tight-first-block option and j = 1 the sharper constants
    (bound p * R_tight^(k+1), rescaling gamma0_tight) apply instead.
    """
    if not cert.certified:
        raise UncertifiedError(cert.reason or "certificate is not certified")
    if not (1 <= j <= k):
        raise ValueError("need 1 <= j <= k")
    if cert.tight_first_block and j == 1:
        return float(cert.p * cert.value_tight ** (k + 1))
    return float(j / (2.0 * (k + 1)) * cert.p**j * cert.value ** (k + 1))


# ---------------------------------------------------------------------------
# Exact embeddings


@dataclass(frozen=True)
class DrivingEmbedding:
    """Driftless (n+1)-dim system whose extra coordinate freezes the drive."""

    extended: QuadraticSystem
    gamma: float
    upsilon: float

    def lift_state(self, x0) -> np.ndarray:
        v = as_cvector(x0)
        return np.concatenate([v, [self.gamma * self.upsilon]])

    def discard_indices(self, j: int) -> np.ndarray:
        """Indices of the level-j lift that involve only original coordinates."""
        n_ext = self.extended.n
        n = n_ext - 1
        idx = np.arange(n_ext**j)
        keep = np.ones(n_ext**j, dtype=bool)
        for slot in range(j):
            digit = (idx // n_ext ** (j - 1 - slot)) % n_ext
            keep &= digit < n
        return np.nonzero(keep)[0]


def embed_driving(
    sys: QuadraticSystem, upsilon: float | None = None, gamma: float = 1.0
) -> DrivingEmbedding:
    """Trade the drive for one constant ancilla coordinate.

    The extended system is driftless, its last coordinate stays exactly
    at gamma*upsilon, and its first n coordinates reproduce the driven
    dynamics.  ``upsilon=None`` selects the amplitude minimizing the
    drive-adjusted R-number.
    """
    if np.linalg.norm(sys.f0) == 0.0:
        raise ZeroDriveError("drive vector is zero; embedding unnecessary")
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if upsilon is None:
        spec = sys.spectrum
        f2_t = spec.f2_tilde_norm
        if np.isnan(f2_t):
            raise SingularQError("eigenbasis of the linear part is singular")
        if f2_t == 0.0:
            raise ZeroNonlinearityError(
                "optimal ancilla amplitude undefined for F2 = 0"
            )
        f0_t = float(np.linalg.norm(spec.dec.inverse_vectors @ sys.f0))
        upsilon = math.sqrt(f0_t / f2_t)
    n = sys.n
    m = n + 1
    g1 = np.zeros((m, m), dtype=complex)
    g1[:n, :n] = sys.f1
    g2 = np.zeros((m, m * m), dtype=complex)
    f2 = sys.f2.reshape(n, n, n)
    coupling = sys.f0 / (gamma * upsilon) ** 2
    g2_t = g2.reshape(m, m, m)
    g2_t[:n, :n, :n] = f2
    g2_t[:n, n, n] = coupling
    extended = QuadraticSystem(
        f0=np.zeros(m), f1=g1, f2=g2_t.reshape(m, m * m), symmetrized=False
    )
    return DrivingEmbedding(extended, float(gamma), float(upsilon))


@dataclass(frozen=True)
class FourierModes:
    """Fourier data of a non-autonomous quadratic system.

    The drive and the linear term may carry oscillating components
    exp(i w_j t); the quadratic term is time-independent.
    """

    f0_static: np.ndarray
    f1_static: np.ndarray
    f2: np.ndarray
    terms: tuple  # (omega_j, f0_j, f1_j) triples

    @cached_property
    def static(self) -> QuadraticSystem:
        """The time-independent part (F0, F1, F2) as a system."""
        return QuadraticSystem(f0=self.f0_static, f1=self.f1_static, f2=self.f2)

    def rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        out = self.static.vector_field(x)
        for omega, f0_j, f1_j in self.terms:
            phase = np.exp(1j * omega * t)
            out = out + phase * (f0_j + f1_j @ x)
        return out


@dataclass(frozen=True)
class TimeDependentEmbedding:
    """Autonomous (n+J)-dim system with one oscillating ancilla per mode."""

    extended: QuadraticSystem
    z0: np.ndarray
    n_original: int

    def lift_state(self, x0) -> np.ndarray:
        return np.concatenate([as_cvector(x0), self.z0])


def embed_time_dependent(modes: FourierModes, z0) -> TimeDependentEmbedding:
    """Absorb Fourier time dependence into oscillating ancilla coordinates.

    Each mode j contributes one coordinate evolving as z_j(0) e^{i w_j t};
    the couplings divide by z_j(0), so the seeds must be nonzero.  The
    first n coordinates of the autonomous system reproduce the
    non-autonomous dynamics exactly.
    """
    f0_0 = as_cvector(modes.f0_static)
    f1_0 = as_cmatrix(modes.f1_static)
    f2 = as_cmatrix(modes.f2)
    n = f1_0.shape[0]
    terms = list(modes.terms)
    j_count = len(terms)
    seeds = as_cvector(z0) if j_count else np.zeros(0, dtype=complex)
    if seeds.size != j_count:
        raise ValueError(f"need {j_count} ancilla seeds, got {seeds.size}")
    if j_count and np.any(np.abs(seeds) == 0.0):
        raise ZeroAncillaSeedError("ancilla seeds must be nonzero")
    m = n + j_count
    g0 = np.zeros(m, dtype=complex)
    g0[:n] = f0_0
    g1 = np.zeros((m, m), dtype=complex)
    g1[:n, :n] = f1_0
    for j, (omega, f0_j, f1_j) in enumerate(terms):
        g1[:n, n + j] = as_cvector(f0_j) / seeds[j]
        g1[n + j, n + j] = 1j * float(omega)
    g2 = np.zeros((m, m, m), dtype=complex)
    g2[:n, :n, :n] = f2.reshape(n, n, n)
    for j, (omega, f0_j, f1_j) in enumerate(terms):
        g2[:n, :n, n + j] = as_cmatrix(f1_j) / seeds[j]
    extended = QuadraticSystem(f0=g0, f1=g1, f2=g2.reshape(m, m * m))
    return TimeDependentEmbedding(extended, seeds, n)


@dataclass(frozen=True)
class PolynomialLift:
    """Direct-sum system on C^n + C^(n^2) carrying x and its tensor square."""

    lifted: QuadraticSystem
    n_original: int
    a22: np.ndarray
    a23: np.ndarray

    def lift_state(self, x0) -> np.ndarray:
        v = as_cvector(x0)
        return np.concatenate([v, kron_pair(v)])

    def check_conserved(self, q2, tol: float = 1e-10) -> dict:
        """Residuals of a candidate quadratic invariant against both sectors."""
        w = as_cvector(q2)
        if w.size != self.n_original**2:
            raise ValueError("candidate must live on the tensor-square sector")
        r22 = float(np.linalg.norm(w.conj() @ self.a22))
        r23 = float(np.linalg.norm(w.conj() @ self.a23))
        scale = max(
            np.linalg.norm(self.a22, 2) + np.linalg.norm(self.a23, 2), 1e-300
        )
        return {
            "residual_linear": r22,
            "residual_quadratic": r23,
            "conserved": bool(r22 <= tol * scale and r23 <= tol * scale),
        }


def embed_polynomial_conserved(sys: QuadraticSystem, r: int = 2) -> PolynomialLift:
    """Realize quadratic conserved observables as linear ones in a lifted system.

    Only the quadratic order is supported: the lifted state is
    [x, x (x) x], the cubic feedback enters through a quadratic term
    supported on the (sector-1 (x) sector-2) subspace, and a candidate
    quadratic form is conserved iff it annihilates both the level-2 drift
    and the level-2-to-3 coupling.
    """
    if r != 2:
        raise UnsupportedOrderError("only quadratic conserved observables supported")
    if np.linalg.norm(sys.f0) > 0:
        raise DriveNotSupportedError("polynomial lift requires F0 = 0")
    n = sys.n
    eye = np.eye(n, dtype=complex)
    a22 = kron2(sys.f1, eye) + kron2(eye, sys.f1)
    a23 = kron2(sys.f2, eye) + kron2(eye, sys.f2)
    m = n + n * n
    f1_lift = np.zeros((m, m), dtype=complex)
    f1_lift[:n, :n] = sys.f1
    f1_lift[:n, n:] = sys.f2
    f1_lift[n:, n:] = a22
    f2_lift = np.zeros((m, m, m), dtype=complex)
    # cubic term routed through the (x, x(x)x) slot pair of the lifted square
    a23_t = a23.reshape(n * n, n, n * n)
    f2_lift[n:, :n, n:] = a23_t
    lifted = QuadraticSystem(
        f0=np.zeros(m), f1=f1_lift, f2=f2_lift.reshape(m, m * m)
    )
    return PolynomialLift(lifted, n, a22, a23)
