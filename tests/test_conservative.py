import json
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from carleman_lab import conservative, system
from carleman_lab.carleman import error_profile
from carleman_lab.cli import main as cli_main
from carleman_lab.conservative import (
    certify_conservative,
    conservative_error_bound,
    detect_invariants,
    embed_driving,
    embed_polynomial_conserved,
    embed_time_dependent,
    estimate_x_max_tilde,
    FourierModes,
    r_delta,
    real_spectral_gap,
    transformed_f2_norm,
)
from carleman_lab.errors import (
    NoDissipativeModeError,
    PositiveRealPartError,
    UncertifiedError,
    ZeroAncillaSeedError,
    ZeroDriveError,
)
from carleman_lab.fixtures import (
    conservative_ellipse_test,
    conservative_toy,
    fixture,
    oscillating_toy,
    reduced_conservative_rp,
    time_dep_toy,
)
from carleman_lab.system import (
    QuadraticSystem,
    integrate_nonautonomous,
    integrate_reference,
    rescale,
    rhs,
)

# (fixture, parameters) of the benchmark's certify requests, at the
# values its seeds jitter by 2%
BENCH_CERTIFY_CASES = (
    ("scalar", {"a": -1.0, "b": 0.1}),
    ("damped_oscillator", {"r": 1.6, "n": 0.22}),
    ("damped_oscillator", {"r": 1.0, "n": 0.5}),
    ("oscillating_toy", {"omega": 2.0, "a": 0.02}),
    ("time_dep_toy", {"a": 0.05, "c1": 0.1}),
    ("conservative_toy", {"a": 0.2, "b": 0.05}),
    ("oscillator_network", {"w": 0.05, "n": 3}),
)
ESCAPE = ["certify", "--fixture", "scalar", "--param", "a=-1", "--param", "b=2",
          "--param", "x0=3.0"]


class TestDetectInvariants:
    def test_toy_has_one_conserved_vector(self):
        fx = conservative_toy()
        inv = detect_invariants(fx.system)
        assert len(inv.conserved) == 1 and not inv.oscillating
        assert np.allclose(np.abs(inv.conserved[0]), [1.0, 0.0], atol=1e-12)

    def test_oscillating_fixture(self):
        fx = oscillating_toy(omega=2.0)
        inv = detect_invariants(fx.system)
        assert not inv.conserved and len(inv.oscillating) == 1
        _q, omega = inv.oscillating[0]
        assert omega == pytest.approx(2.0, abs=1e-10)

    def test_time_dependent_embedding_ancillas(self):
        modes = FourierModes(
            f0_static=np.zeros(1),
            f1_static=np.array([[-1.0]]),
            f2=np.array([[0.05]]),
            terms=(
                (2.0, np.zeros(1), np.array([[0.1]])),
                (3.0, np.zeros(1), np.array([[0.07]])),
            ),
        )
        emb = embed_time_dependent(modes, [0.3, 0.2])
        inv = detect_invariants(emb.extended)
        assert sorted(w for _q, w in inv.oscillating) == pytest.approx([2.0, 3.0])

    def test_strictly_stable_has_none(self):
        sys = QuadraticSystem(f0=np.zeros(2), f1=-np.eye(2), f2=np.zeros((2, 4)))
        inv = detect_invariants(sys)
        assert not inv.conserved and not inv.oscillating

    def test_marginal_mode_failing_annihilation_is_reported(self):
        f2 = np.zeros((2, 4))
        f2[0, 3] = 0.3  # the marginal first coordinate feels the nonlinearity
        sys = QuadraticSystem(f0=np.zeros(2), f1=[[0, 0], [0, -1]], f2=f2)
        inv = detect_invariants(sys)
        assert not inv.conserved and inv.violations
        assert inv.violations[0]["residual_f2"] > 0.1


class TestRealSpectralGap:
    def test_toy_gap(self):
        assert real_spectral_gap(np.diag([0.0, -1.0])) == pytest.approx(1.0)

    def test_oscillating_gap(self):
        assert real_spectral_gap(np.diag([2j, -1.0])) == pytest.approx(1.0)

    def test_all_marginal_rejected(self):
        with pytest.raises(NoDissipativeModeError):
            real_spectral_gap(np.diag([0.0, 0.0]))

    def test_positive_part_rejected(self):
        with pytest.raises(PositiveRealPartError):
            real_spectral_gap(np.diag([0.1, -1.0]))


class TestRDelta:
    def test_zero_nonlinearity(self):
        sys = QuadraticSystem(f0=np.zeros(2), f1=np.diag([0, -1.0]), f2=np.zeros((2, 4)))
        assert r_delta(sys, 1.0, np.eye(2)) == 0.0

    def test_toy_closed_form(self):
        a, b = 0.1, 0.2
        fx = conservative_toy(a=a, b=b, x1=0.4, x2=0.1)
        x_max = 0.7
        expected = 2 * math.e * math.hypot(a, b) * x_max
        assert r_delta(fx.system, x_max, np.eye(2)) == pytest.approx(expected, rel=1e-12)

    def test_small_parameters_certify(self):
        fx = conservative_toy(a=0.01, b=0.01, x1=0.5, x2=0.0)
        cert = certify_conservative(fx.system, fx.x0, horizon=20.0)
        assert cert.certified and cert.value < 1


class TestEstimateXMax:
    def test_isometric_flow(self):
        sys = QuadraticSystem(
            f0=np.zeros(2), f1=[[0.0, 1.0], [-1.0, 0.0]], f2=np.zeros((2, 4))
        )
        x0 = np.array([0.6, 0.8])
        est = estimate_x_max_tilde(sys, x0, np.eye(2), horizon=10.0)
        assert est == pytest.approx(1.02 * np.linalg.norm(x0), rel=1e-9)

    def test_toy_rising_branch_matches_closed_form(self):
        a, b, x1 = 0.2, 0.05, 0.5
        fx = conservative_toy(a=a, b=b, x1=x1, x2=0.0)
        x2_max = (math.sqrt(1 + 4 * a * b * x1 * x1) - 1) / (2 * b)
        expected = math.hypot(x1, x2_max)
        est = estimate_x_max_tilde(fx.system, fx.x0, np.eye(2), horizon=30.0)
        assert est == pytest.approx(1.02 * expected, rel=0.02)

    def test_growing_solution_tracks_horizon(self):
        sys = QuadraticSystem(f0=[1.0], f1=[[0.0]], f2=np.zeros((1, 1)))
        short = estimate_x_max_tilde(sys, [0.0], np.eye(1), horizon=1.0)
        long = estimate_x_max_tilde(sys, [0.0], np.eye(1), horizon=5.0)
        assert long > 4 * short


class TestSupremumSolver:
    @staticmethod
    def record(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def recording(*args, **kwargs):
            # recorded before the call, so a solve that raises counts too
            call = {"args": args, "kwargs": kwargs}
            calls.append(call)
            call["result"] = real(*args, **kwargs)
            return call["result"]

        monkeypatch.setattr(module, name, recording)
        return calls

    @pytest.mark.parametrize("name,params", BENCH_CERTIFY_CASES)
    def test_agrees_with_tight_dop853(self, monkeypatch, tmp_path, name, params):
        sups = self.record(monkeypatch, conservative, "estimate_x_max_tilde")
        argv = ["certify", "--fixture", name, "--all"]
        for key, value in params.items():
            argv += ["--param", f"{key}={value!r}"]
        if name == "oscillator_network":
            omega = fixture(name, **params).extras["omega"]
            argv += ["--f2-frequency", repr(omega)]
        cli_main([*argv, "--out", str(tmp_path / "cert.json")])
        assert sups
        for call in sups:
            (sys, x0, q, horizon), value = call["args"], call["result"]
            ts = np.linspace(0.0, horizon, 2001)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # scipy clamps rtol to 100 eps
                sol = solve_ivp(
                    lambda _t, y: rhs(sys, y), (0.0, horizon), np.asarray(x0, complex),
                    method="DOP853", t_eval=ts, rtol=1e-14, atol=1e-14,
                )
            assert sol.success
            sup = np.max(np.linalg.norm(np.linalg.inv(q) @ sol.y, axis=0))
            assert value == pytest.approx(conservative.XMAX_SAFETY * sup, rel=1e-10)

    def test_escape_reported_after_one_solve(self, monkeypatch, tmp_path):
        sups = self.record(monkeypatch, conservative, "estimate_x_max_tilde")
        solves = self.record(monkeypatch, system, "solve_ivp")
        out = tmp_path / "cert.json"
        assert cli_main([*ESCAPE, "--all", "--out", str(out)]) == 3
        diag = json.loads(out.read_text())["diagnostics"]
        for stage in ("conservative", "nonresonant_poincare", "siegel_split"):
            assert diag[stage]["reason"] == "trajectory escapes in finite time"
        assert len(sups) == 1
        assert [call["kwargs"]["method"] for call in solves] == ["DOP853"]


class TestSupremumVectorField:
    @pytest.mark.parametrize("name,params", BENCH_CERTIFY_CASES)
    def test_bitwise_equal_to_kron_closure(self, name, params):
        fx = fixture(name, **params)
        sys, q = fx.system, fx.system.spectrum.dec.right_vectors

        def kron_field(_t, y):
            return sys.f0 + sys.f1 @ y + sys.f2 @ np.kron(y, y)

        ts = np.linspace(0.0, fx.horizon, 2001)
        states = system._dormand_prince(
            kron_field, np.asarray(fx.x0, complex), ts, 1e-12, 1e-12, method="DOP853"
        ).states.T
        sup = float(np.max(np.linalg.norm(np.linalg.inv(q) @ states, axis=0)))
        assert estimate_x_max_tilde(sys, fx.x0, q, fx.horizon) == conservative.XMAX_SAFETY * sup

    def test_fourier_rhs_bitwise_equal_to_kron_formula(self):
        modes = time_dep_toy(a=0.05, c1=0.1, omega1=2.0, b1=0.3).extras["modes"]
        rng = np.random.default_rng(4)
        for t in (0.0, 0.7, 3.1):
            x = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            out = modes.f0_static + modes.f1_static @ x + modes.f2 @ np.kron(x, x)
            for omega, f0_j, f1_j in modes.terms:
                out = out + np.exp(1j * omega * t) * (f0_j + f1_j @ x)
            assert modes.rhs(t, x).tobytes() == out.tobytes()


class TestConservativeErrorBound:
    def _cert(self):
        fx = conservative_toy(a=0.01, b=0.01, x1=0.5, x2=0.0)
        cert = certify_conservative(fx.system, fx.x0, horizon=20.0)
        assert cert.certified
        return fx, cert

    def test_top_block_substitution(self):
        _fx, cert = self._cert()
        k = 5
        assert conservative_error_bound(cert, k, k) == pytest.approx(
            (k / (2 * (k + 1))) * cert.p**k * cert.value ** (k + 1)
        )

    def test_arithmetic(self):
        _fx, cert = self._cert()
        manual = 1 / 12 * cert.p * cert.value**6
        assert conservative_error_bound(cert, 1, 5) == pytest.approx(manual)

    def test_measured_rescaled_errors_below_bound(self):
        fx, cert = self._cert()
        gamma = cert.gamma
        resc = rescale(fx.system, gamma)
        prof = error_profile(
            resc, gamma * fx.x0, 6, np.array([0.0, 1.0, 2.0, 5.0]), tol=1e-12
        )
        for j in range(1, 7):
            assert prof.block_norms[:, j - 1].max() <= conservative_error_bound(
                cert, j, 6
            )

    def test_uncertified_rejected(self):
        fx = conservative_toy(a=2.0, b=2.0, x1=0.5, x2=0.2)
        cert = certify_conservative(fx.system, fx.x0, horizon=5.0)
        assert not cert.certified
        with pytest.raises(UncertifiedError):
            conservative_error_bound(cert, 1, 5)

    def test_tight_first_block_constants(self):
        fx = conservative_toy(a=0.01, b=0.01, x1=0.5, x2=0.0)
        cert = certify_conservative(fx.system, fx.x0, horizon=20.0, tight_first_block=True)
        _fx, plain = self._cert()
        assert cert.certified and cert.tight_first_block
        # driftless: R_tight = 4 x_max ||F2~|| / delta = (2/e) R
        assert cert.value_tight == pytest.approx(2.0 / math.e * cert.value, rel=1e-14)
        assert cert.gamma0_tight == pytest.approx(16.0 / math.e * cert.gamma0, rel=1e-14)
        k = 5
        assert conservative_error_bound(cert, 1, k) == cert.p * cert.value_tight ** (k + 1)
        # the sharper constants apply to the first block only
        for j in range(2, k + 1):
            assert conservative_error_bound(cert, j, k) == conservative_error_bound(
                plain, j, k
            )
        assert conservative_error_bound(plain, 1, k) == pytest.approx(
            1 / (2 * (k + 1)) * plain.p * plain.value ** (k + 1)
        )

    def test_conserved_quantity_constant_along_flow(self):
        fx = conservative_toy(a=0.05, b=0.05, x1=0.5, x2=0.1)
        inv = detect_invariants(fx.system)
        q = inv.conserved[0]
        traj = integrate_reference(fx.system, fx.x0, np.linspace(0, 10, 21))
        values = traj.states @ q.conj()
        assert np.max(np.abs(values - values[0])) <= 1e-8 * np.linalg.norm(fx.x0)

    def test_oscillating_quantity_rotates_along_flow(self):
        fx = oscillating_toy(omega=2.0, a=0.01, b=0.01, c=0.01, x1=0.4, x2=0.1)
        inv = detect_invariants(fx.system)
        q, omega = inv.oscillating[0]
        times = np.linspace(0, 10, 21)
        traj = integrate_reference(fx.system, fx.x0, times)
        values = traj.states @ q.conj()
        expected = values[0] * np.exp(1j * omega * times)
        assert np.max(np.abs(values - expected)) <= 1e-8 * np.linalg.norm(fx.x0)


class TestComplementarity:
    def test_gap_certificate_where_reduction_fails(self):
        fx = conservative_toy(a=0.2, b=0.05, x1=0.3, x2=0.0)
        cert = certify_conservative(fx.system, fx.x0, horizon=20.0)
        assert cert.certified and cert.value < 1
        assert reduced_conservative_rp(0.2, 0.05, 0.3, 0.0) >= 1

    def test_ellipse_agrees_with_reduced_criterion(self):
        a, b = 0.2, 0.05
        for x1 in np.linspace(0.1, 6.0, 30):
            for x2 in np.linspace(0.1, 22.0, 30):
                rp = reduced_conservative_rp(a, b, x1, x2)
                if abs(rp - 1.0) < 1e-3:
                    continue
                assert conservative_ellipse_test(a, b, x1, x2) == (rp < 1.0)


class TestEmbedDriving:
    def test_zero_drive_rejected(self):
        sys = QuadraticSystem(f0=np.zeros(1), f1=[[-1.0]], f2=[[0.1]])
        with pytest.raises(ZeroDriveError):
            embed_driving(sys)

    def test_auto_upsilon(self):
        sys = QuadraticSystem(f0=[0.04], f1=[[-1.0]], f2=[[0.01]])
        emb = embed_driving(sys)
        assert emb.upsilon == pytest.approx(2.0, rel=1e-12)

    def test_extended_solution_reproduces_driven_dynamics(self):
        sys = QuadraticSystem(f0=[0.3], f1=[[-1.0]], f2=[[0.1]])
        emb = embed_driving(sys, upsilon=1.5, gamma=0.7)
        times = np.linspace(0, 5, 11)
        ext = integrate_reference(emb.extended, emb.lift_state([0.5]), times, 1e-12, 1e-12)
        direct = integrate_reference(sys, [0.5], times, 1e-12, 1e-12)
        assert np.max(np.abs(ext.states[:, 0] - direct.states[:, 0])) <= 1e-8
        assert np.max(np.abs(ext.states[:, 1] - 0.7 * 1.5)) <= 1e-10

    def test_discard_indices(self):
        sys = QuadraticSystem(f0=[0.3], f1=[[-1.0]], f2=[[0.1]])
        emb = embed_driving(sys, upsilon=1.0)
        # level 2 of a 2-dim extended space keeps only the (0,0) slot
        assert list(emb.discard_indices(2)) == [0]
        assert list(emb.discard_indices(1)) == [0]


class TestEmbedTimeDependent:
    def test_no_modes_identity(self):
        modes = FourierModes(
            f0_static=np.array([0.1]),
            f1_static=np.array([[-1.0]]),
            f2=np.array([[0.2]]),
            terms=(),
        )
        emb = embed_time_dependent(modes, [])
        assert emb.extended.n == 1
        assert np.allclose(emb.extended.f1, [[-1.0]])
        assert np.allclose(emb.extended.f2, [[0.2]])

    def test_zero_seed_rejected(self):
        modes = FourierModes(
            f0_static=np.zeros(1),
            f1_static=np.array([[-1.0]]),
            f2=np.array([[0.1]]),
            terms=((1.0, np.zeros(1), np.array([[0.1]])),),
        )
        with pytest.raises(ZeroAncillaSeedError):
            embed_time_dependent(modes, [0.0])

    def test_fidelity_against_direct_nonautonomous_solve(self):
        fx = time_dep_toy(a=0.05, c1=0.1, omega1=2.0, b1=0.0, x0=0.25)
        modes = fx.extras["modes"]
        times = np.linspace(0, 5, 26)
        emb = integrate_reference(fx.system, fx.x0, times, 1e-12, 1e-12)
        direct = integrate_nonautonomous(
            lambda t, y: modes.rhs(t, y), fx.extras["x0_original"], times, 1e-12, 1e-12
        )
        assert np.max(np.abs(emb.states[:, 0] - direct.states[:, 0])) <= 1e-7

    def test_ancilla_modulus_constant(self):
        fx = time_dep_toy(a=0.05, c1=0.1, omega1=2.0)
        times = np.linspace(0, 5, 26)
        emb = integrate_reference(fx.system, fx.x0, times, 1e-12, 1e-12)
        moduli = np.abs(emb.states[:, 1])
        assert np.max(np.abs(moduli - moduli[0])) <= 1e-10

    def test_sqrt_seed_bound_on_r_number(self):
        a, c1 = 0.05, 0.1
        fx = time_dep_toy(a=a, c1=c1, omega1=2.0, x0=0.25)
        cert = certify_conservative(fx.system, fx.x0, horizon=20.0)
        modes = fx.extras["modes"]
        direct = integrate_nonautonomous(
            lambda t, y: modes.rhs(t, y),
            fx.extras["x0_original"],
            np.linspace(0, 20, 201),
            1e-10,
            1e-10,
        )
        x_abs_max = np.abs(direct.states[:, 0]).max()
        closed = 2 * math.e * math.sqrt(c1 + a * a) * math.sqrt(c1 + x_abs_max**2)
        # the certificate inflates its empirical supremum by 2%
        assert cert.value <= closed * 1.02 * (1 + 1e-9)


class TestEmbedPolynomialConserved:
    def test_lifted_trajectory_consistency(self):
        rng = np.random.default_rng(1)
        f2 = 0.05 * rng.standard_normal((2, 4))
        sys = QuadraticSystem(f0=np.zeros(2), f1=[[0.0, 1.0], [-1.0, -0.5]], f2=f2)
        lift = embed_polynomial_conserved(sys)
        x0 = np.array([0.4, -0.3])
        times = np.linspace(0, 5, 11)
        lifted = integrate_reference(lift.lifted, lift.lift_state(x0), times, 1e-12, 1e-12)
        direct = integrate_reference(sys, x0, times, 1e-12, 1e-12)
        assert np.max(np.abs(lifted.states[:, :2] - direct.states)) <= 1e-8
        squares = np.array([np.kron(s, s) for s in direct.states])
        assert np.max(np.abs(lifted.states[:, 2:] - squares)) <= 1e-8

    def test_rotation_energy_is_linear_invariant_of_lift(self):
        rot = QuadraticSystem(
            f0=np.zeros(2), f1=[[0.0, 1.0], [-1.0, 0.0]], f2=np.zeros((2, 4))
        )
        lift = embed_polynomial_conserved(rot)
        q2 = np.eye(2).reshape(-1)
        assert lift.check_conserved(q2)["conserved"]
        x0 = np.array([0.6, -0.2])
        times = np.linspace(0, 10, 21)
        lifted = integrate_reference(rot, x0, times, 1e-12, 1e-12)
        energy = np.array([s @ s for s in lifted.states])
        assert np.max(np.abs(energy - energy[0])) <= 1e-9

    def test_non_invariant_reports_residual(self):
        rot = QuadraticSystem(
            f0=np.zeros(2), f1=[[0.0, 1.0], [-1.0, 0.0]], f2=np.zeros((2, 4))
        )
        lift = embed_polynomial_conserved(rot)
        q2 = np.zeros(4)
        q2[0] = 1.0  # x1^2 alone is not conserved under rotation
        report = lift.check_conserved(q2)
        assert not report["conserved"] and report["residual_linear"] > 0.1
