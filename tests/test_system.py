import importlib.util
import sys as interpreter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carleman_lab import linalg
from carleman_lab.errors import (
    DimensionMismatchError,
    NonFiniteStateError,
    NonPositiveGammaError,
    StepSizeUnderflowError,
)
from carleman_lab.system import (
    QuadraticSystem,
    integrate_nonautonomous,
    integrate_reference,
    rescale,
    rhs,
    symmetrize,
    validate,
)


def scalar_system(a, b, f0=0.0):
    return QuadraticSystem(f0=[f0], f1=[[a]], f2=[[b]])


def random_system(seed, n=2, f2_scale=0.1, stable_shift=2.0):
    rng = np.random.default_rng(seed)
    f1 = rng.standard_normal((n, n)) - stable_shift * np.eye(n)
    f2 = f2_scale * rng.standard_normal((n, n * n))
    f0 = 0.1 * rng.standard_normal(n)
    return QuadraticSystem(f0=f0, f1=f1, f2=f2)


class TestValidate:
    def test_well_formed(self):
        sys = random_system(0)
        assert validate(symmetrize(sys)) == []

    def test_dimension_violation_raises_at_construction(self):
        with pytest.raises(DimensionMismatchError):
            QuadraticSystem(f0=[0.0], f1=[[1.0]], f2=[[1.0, 2.0]])

    def test_asymmetry_reported_with_magnitude(self):
        f2 = np.zeros((2, 4))
        f2[0, 1] = 0.3  # slot pair (0,1) only; swap image differs by 0.3-ish
        sys = QuadraticSystem(f0=np.zeros(2), f1=np.eye(2), f2=f2)
        issues = validate(sys)
        assert len(issues) == 1 and "asymmetry" in issues[0]


class TestSymmetrize:
    def test_already_symmetric_unchanged(self):
        f2 = np.array([[0.0, 0.5, 0.5, 1.0], [1.0, 0.2, 0.2, 0.0]])
        sys = QuadraticSystem(f0=np.zeros(2), f1=np.eye(2), f2=f2)
        assert np.array_equal(symmetrize(sys).f2, f2)

    def test_scalar_unchanged(self):
        sys = scalar_system(-1.0, 0.3)
        assert np.array_equal(symmetrize(sys).f2, sys.f2)

    def test_quadratic_map_preserved(self):
        rng = np.random.default_rng(5)
        sys = QuadraticSystem(
            f0=np.zeros(2), f1=np.eye(2), f2=rng.standard_normal((2, 4))
        )
        sym = symmetrize(sys)
        for _ in range(100):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert np.allclose(
                sys.f2 @ np.kron(x, x), sym.f2 @ np.kron(x, x), atol=1e-14
            )


class TestRescale:
    def test_identity(self):
        sys = random_system(1)
        out = rescale(sys, 1.0)
        assert np.array_equal(out.f0, sys.f0) and np.array_equal(out.f2, sys.f2)

    def test_direct_formula(self):
        sys = scalar_system(-1.0, 0.5, f0=1.0)
        out = rescale(sys, 2.0)
        assert out.f0[0] == 2.0 and out.f1[0, 0] == -1.0 and out.f2[0, 0] == 0.25

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveGammaError):
            rescale(random_system(2), 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(0, 50))
    def test_round_trip(self, gamma, seed):
        sys = random_system(seed)
        back = rescale(rescale(sys, gamma), 1.0 / gamma)
        assert np.allclose(back.f0, sys.f0, atol=1e-14)
        assert np.allclose(back.f2, sys.f2, atol=1e-14)

    def test_trajectories_scale(self):
        sys = random_system(7, f2_scale=0.05)
        x0 = np.array([0.4, -0.2])
        gamma = 2.5
        times = np.linspace(0.0, 3.0, 7)
        base = integrate_reference(sys, x0, times, 1e-12, 1e-12)
        scaled = integrate_reference(rescale(sys, gamma), gamma * x0, times, 1e-12, 1e-12)
        assert np.allclose(scaled.states / gamma, base.states, atol=1e-9)


class TestRhs:
    def test_zero_state_gives_drive(self):
        sys = random_system(3)
        assert np.allclose(rhs(sys, np.zeros(2)), sys.f0)

    def test_scalar_arithmetic(self):
        sys = scalar_system(-1.0, 0.1)
        assert rhs(sys, [0.5])[0] == pytest.approx(-0.475)

    def test_relaxation_toy_form(self):
        a, b = 0.2, 0.05
        f2 = np.zeros((2, 4))
        f2[1, 0] = a
        f2[1, 3] = -b
        sys = QuadraticSystem(f0=np.zeros(2), f1=[[0, 0], [0, -1]], f2=f2)
        x = np.array([0.5, 0.3])
        out = rhs(sys, x)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(-0.3 - b * 0.09 + a * 0.25)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            rhs(random_system(4), np.zeros(3))


class TestIntegrateReference:
    def test_zero_system_constant(self):
        sys = QuadraticSystem(f0=np.zeros(2), f1=np.zeros((2, 2)), f2=np.zeros((2, 4)))
        traj = integrate_reference(sys, [1.0, -2.0], np.linspace(0, 5, 6))
        assert np.allclose(traj.states, traj.states[0], atol=1e-14)

    def test_linear_system_matches_exponential(self):
        rng = np.random.default_rng(9)
        f1 = rng.standard_normal((2, 2)) - np.eye(2)
        sys = QuadraticSystem(f0=np.zeros(2), f1=f1, f2=np.zeros((2, 4)))
        x0 = np.array([0.7, -0.3])
        times = np.linspace(0.0, 5.0, 11)
        traj = integrate_reference(sys, x0, times, 1e-12, 1e-12)
        for t, state in zip(traj.times, traj.states):
            assert np.allclose(state, linalg.matrix_exp(f1, t) @ x0, atol=1e-8)

    def test_driven_scalar_stays_bounded(self):
        # stable fixed point with R_mu just below one
        sys = scalar_system(-1.0, 0.02, f0=0.97)
        traj = integrate_reference(sys, [0.99], np.linspace(0, 10, 21))
        norms = np.abs(traj.states[:, 0])
        assert np.all(norms <= 0.99 * (1 + 1e-9))

    def test_blow_up_detected(self):
        sys = scalar_system(1.0, 2.0)
        with pytest.raises(StepSizeUnderflowError):
            integrate_reference(sys, [5.0], np.linspace(0, 10, 11), 1e-10, 1e-10)

    def test_nonautonomous_overflow_detected(self):
        # the solver accepts every step while the state overflows to inf
        with pytest.raises(NonFiniteStateError):
            integrate_nonautonomous(
                lambda t, x: np.full_like(x, 1e308), [1.0], np.linspace(0, 2, 5)
            )

    def test_tolerance_ladder_is_monotone(self):
        f2 = np.zeros((2, 4))
        f2[1, 0] = -0.5
        sys = QuadraticSystem(f0=np.zeros(2), f1=[[0, 1], [-1, -1]], f2=f2)
        x0 = np.array([0.5, 0.5])
        times = np.linspace(0.0, 5.0, 6)
        exact = integrate_reference(sys, x0, times, 1e-13, 1e-13)
        errors = []
        for tol in (1e-5, 1e-7, 1e-9, 1e-11):
            traj = integrate_reference(sys, x0, times, tol, tol)
            errors.append(np.max(np.abs(traj.states - exact.states)))
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_times_must_start_at_zero(self):
        with pytest.raises(ValueError):
            integrate_reference(random_system(5), np.zeros(2), [1.0, 2.0])


def kron_field(sys):
    """Oracle: the vector field as a closure over np.kron."""
    return lambda _t, y: sys.f0 + sys.f1 @ y + sys.f2 @ np.kron(y, y)


class TestVectorField:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
    def test_bitwise_equal_to_kron_closure(self, seed, n):
        rng = np.random.default_rng(seed)
        sys = random_system(seed, n=n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert sys.vector_field(y).tobytes() == kron_field(sys)(0.0, y).tobytes()
        assert rhs(sys, y).tobytes() == kron_field(sys)(0.0, y).tobytes()

    @pytest.mark.parametrize("seed,n", [(0, 1), (1, 2), (2, 3)])
    def test_reference_solve_bitwise_equal_to_kron_closure(self, seed, n):
        from carleman_lab.system import _dormand_prince

        sys = random_system(seed, n=n, f2_scale=0.3)
        x0 = np.full(n, 0.4 + 0.1j)
        times = np.linspace(0.0, 3.0, 31)
        traj = integrate_reference(sys, x0, times)
        oracle = _dormand_prince(
            kron_field(sys), x0, times, 1e-12, 1e-12, method="DOP853", land=True
        )
        assert traj.states.tobytes() == oracle.states.tobytes()


@pytest.fixture
def bench_workloads(monkeypatch):
    """``bench/workloads.py``, loaded by path without writing bytecode."""
    monkeypatch.setattr(interpreter, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(interpreter.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def lift_benchmark_cases(bench, seed):
    """(system, x0, times) of every reference solve the lift benchmark makes at ``seed``."""
    runs = [(n, np.linspace(0.0, t, steps + 1)) for n, _k, t, steps in bench.LIFT_SIMULATIONS]
    runs += [(n, np.array([0.0, bench.SWEEP_T])) for n, _lo, _hi in bench.LIFT_SWEEPS]
    cases = []
    for index, (n, times) in enumerate(runs):
        f0, f1, f2, x0 = bench.stable_driven_system(bench._rng(seed, index), n)
        cases.append((QuadraticSystem(f0=f0, f1=f1, f2=f2), x0, times))
    return cases


class TestReferenceOracles:
    """The landing DOP853 reference against the RK45 dense-output solve it replaced."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lift_benchmark_references(self, bench_workloads, seed):
        from carleman_lab.system import _dormand_prince

        for system, x0, times in lift_benchmark_cases(bench_workloads, seed):
            field = kron_field(system)
            x0 = np.asarray(x0, dtype=complex)
            states = integrate_reference(system, x0, times).states
            rk45 = _dormand_prince(field, x0, times, 1e-12, 1e-12).states
            tight = _dormand_prince(field, x0, times, 3e-14, 1e-18, method="DOP853").states
            assert np.abs(states - rk45).max() <= 1e-12
            assert np.abs(states - tight).max() <= 2e-13

    def test_budget_caps_each_solve(self, monkeypatch):
        from carleman_lab import system
        from carleman_lab.errors import CapExceededError

        nfev = []
        real = system.solve_ivp

        def recording(*args, **kwargs):
            sol = real(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(system, "solve_ivp", recording)
        field = kron_field(random_system(3))
        x0, times = np.array([0.3, 0.1], dtype=complex), np.linspace(0.0, 2.0, 5)
        system._dormand_prince(field, x0, times, 1e-12, 1e-12, method="DOP853", land=True)
        assert len(nfev) == len(times) - 1
        # the samples' solves together may spend more than one solve's budget
        monkeypatch.setattr(system, "RHS_BUDGET", max(nfev))
        assert sum(nfev) > system.RHS_BUDGET
        system._dormand_prince(field, x0, times, 1e-12, 1e-12, method="DOP853", land=True)
        monkeypatch.setattr(system, "RHS_BUDGET", max(nfev) - 1)
        with pytest.raises(CapExceededError, match=f"budget of {max(nfev) - 1} "):
            system._dormand_prince(field, x0, times, 1e-12, 1e-12, method="DOP853", land=True)
        with pytest.raises(CapExceededError):
            system._dormand_prince(field, x0, times, 1e-12, 1e-12)


class TestSolverPerCaller:
    """The reference and supremum solves use DOP853; the non-autonomous cross-check RK45."""

    @staticmethod
    def methods(monkeypatch):
        from carleman_lab import system

        seen = []
        real = system.solve_ivp

        def recording(*args, **kwargs):
            seen.append(kwargs["method"])
            return real(*args, **kwargs)

        monkeypatch.setattr(system, "solve_ivp", recording)
        return seen

    def test_reference_uses_dop853_cross_check_rk45(self, monkeypatch):
        seen = self.methods(monkeypatch)
        # one reference solve per sample interval, one cross-check solve in all
        integrate_reference(random_system(2), [0.3, 0.1], np.linspace(0.0, 2.0, 5))
        integrate_nonautonomous(lambda _t, x: -x, [1.0], np.linspace(0.0, 1.0, 3))
        assert seen == ["DOP853"] * 4 + ["RK45"]

    def test_supremum_uses_dop853(self, monkeypatch):
        from carleman_lab import conservative

        seen = self.methods(monkeypatch)
        sys = random_system(2)
        conservative.estimate_x_max_tilde(sys, [0.3, 0.1], np.eye(2), 2.0)
        sys.spectrum.x_max_tilde([0.3, 0.1], 2.0, 1e-12)
        assert seen == ["DOP853", "DOP853"]


class TestNormMonotonicity:
    def test_log_norm_certified_decrease(self):
        # mu(F1) < 0 and R_mu < 1 force the Euclidean norm down
        sys = scalar_system(-1.0, 0.02, f0=0.97)
        from carleman_lab.stability import r_mu

        assert r_mu(sys, [0.99]) < 1
        traj = integrate_reference(sys, [0.99], np.linspace(0, 10, 41))
        assert np.all(
            np.abs(traj.states[:, 0]) <= 0.99 * (1 + 1e-7)
        )

    def test_weighted_norm_certified_decrease(self):
        from carleman_lab.stability import r_p

        sys = random_system(21, f2_scale=0.02, stable_shift=2.5)
        p = linalg.solve_lyapunov(sys.f1)
        x0 = np.array([0.5, -0.4])
        assert r_p(sys, x0, p) < 1
        traj = integrate_reference(sys, x0, np.linspace(0, 10, 41))
        start = linalg.p_vector_norm(x0, p)
        for state in traj.states:
            assert linalg.p_vector_norm(state, p) <= start * (1 + 1e-7)


class TestSpectrum:
    def test_coefficients_are_read_only(self):
        sys = random_system(3)
        for a in (sys.f0, sys.f1, sys.f2):
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_caller_arrays_are_not_aliased(self):
        f1 = np.array([[-1.0, 0.5], [0.0, -2.0]], dtype=complex)
        f2 = np.zeros((2, 4), dtype=complex)
        f0 = np.zeros(2, dtype=complex)
        sys = QuadraticSystem(f0=f0, f1=f1, f2=f2)
        spec = sys.spectrum
        f1[0, 0] = 5.0
        f0[0] = 1.0
        assert sys.f1[0, 0] == -1.0 and sys.f0[0] == 0.0
        assert spec.dec.reconstruct() == pytest.approx(sys.f1, abs=1e-14)

    def test_computed_once(self, monkeypatch):
        from carleman_lab import system

        calls = []

        def counting_eig(m):
            calls.append(m)
            return linalg.eig(m)

        monkeypatch.setattr(system, "eig", counting_eig)
        sys = random_system(4)
        assert sys.spectrum is sys.spectrum
        assert len(calls) == 1

    def test_f2_tilde_matches_explicit_rotation(self):
        sys = random_system(5, n=3)
        dec = linalg.eig(sys.f1)
        q = dec.right_vectors
        explicit = dec.inverse_vectors @ sys.f2 @ np.kron(q, q)
        spec = sys.spectrum
        assert np.array_equal(spec.f2_tilde, explicit)
        assert spec.f2_tilde_norm == float(np.linalg.norm(explicit, 2))
        assert spec.q_norm == float(np.linalg.norm(q, 2))
        assert spec.sparsity == linalg.column_sparsity(explicit)
        assert not spec.f2_tilde.flags.writeable

    def test_x_max_tilde_solved_once_per_key(self, monkeypatch):
        from carleman_lab import conservative

        calls = []
        real = conservative.estimate_x_max_tilde

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(conservative, "estimate_x_max_tilde", counting)
        sys = random_system(6)
        spec = sys.spectrum
        first = spec.x_max_tilde([0.3, 0.1], 2.0, 1e-10)
        assert spec.x_max_tilde(np.array([0.3, 0.1]), 2.0, 1e-10) == first
        assert len(calls) == 1
        spec.x_max_tilde([0.3, 0.1], 3.0, 1e-10)
        spec.x_max_tilde([0.3, 0.2], 2.0, 1e-10)
        spec.x_max_tilde([0.3, 0.1], 2.0, 1e-9)
        assert len(calls) == 4
        assert first == real(sys, [0.3, 0.1], spec.dec.right_vectors, 2.0, tol=1e-10)

    def test_x_max_tilde_keyed_on_frequency(self, monkeypatch):
        from carleman_lab import conservative

        calls = []
        real = conservative.estimate_x_max_tilde

        def counting(*args, **kwargs):
            calls.append(kwargs["frequency"])
            return real(*args, **kwargs)

        monkeypatch.setattr(conservative, "estimate_x_max_tilde", counting)
        base = random_system(6)
        spec = QuadraticSystem(f0=np.zeros(2), f1=base.f1, f2=base.f2).spectrum
        shifted = spec.x_max_tilde([0.3, 0.1], 2.0, 1e-10)
        unshifted = spec.x_max_tilde([0.3, 0.1], 2.0, 1e-10, frequency=3.0)
        assert calls == [0.0, 3.0]
        for _ in range(2):
            assert spec.x_max_tilde([0.3, 0.1], 2.0, 1e-10) == shifted
            assert spec.x_max_tilde([0.3, 0.1], 2.0, 1e-10, frequency=3.0) == unshifted
        assert calls == [0.0, 3.0]

    def test_x_max_tilde_escape_remembered(self, monkeypatch):
        from carleman_lab import conservative

        calls = []
        real = conservative.estimate_x_max_tilde

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(conservative, "estimate_x_max_tilde", counting)
        # xdot = -x + 2 x^2 from x0 = 3 blows up before t = 1
        spec = QuadraticSystem(f0=[0.0], f1=[[-1.0]], f2=[[2.0]]).spectrum
        for _ in range(3):
            with pytest.raises((StepSizeUnderflowError, NonFiniteStateError)):
                spec.x_max_tilde([3.0], 10.0, 1e-12)
        assert len(calls) == 1
        # a different key solves again
        assert spec.x_max_tilde([0.1], 10.0, 1e-12) > 0
        assert len(calls) == 2
