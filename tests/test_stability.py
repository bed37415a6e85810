import numpy as np
import pytest

from carleman_lab import linalg
from carleman_lab.carleman import error_profile
from carleman_lab.errors import (
    NonDiagonalizableError,
    UncertifiedError,
    ZeroInitialStateError,
)
from carleman_lab.fixtures import damped_oscillator
from carleman_lab.stability import (
    StabilityCertificate,
    optimize_rp,
    r_alpha,
    r_mu,
    r_p,
    region_scan,
    rp_condition_number_bound,
    stable_error_bound,
    xi_bound,
)
from carleman_lab.system import QuadraticSystem, rescale


def scalar_system(a, b, f0=0.0):
    return QuadraticSystem(f0=[f0], f1=[[a]], f2=[[b]])


def random_stable_system(seed, n=2, f2_scale=0.05):
    rng = np.random.default_rng(seed)
    f1 = rng.standard_normal((n, n)) - 2.5 * np.eye(n)
    return QuadraticSystem(
        f0=0.05 * rng.standard_normal(n),
        f1=f1,
        f2=f2_scale * rng.standard_normal((n, n * n)),
    )


class TestRMu:
    def test_counterexample_instance(self):
        sys = scalar_system(-1.0, 0.02, f0=0.97)
        assert r_mu(sys, [0.99]) == pytest.approx(0.999598, abs=1e-6)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [0.1, 1.0])
    def test_oscillator_always_infinite(self, r, n):
        fx = damped_oscillator(r=r, n=n)
        assert r_mu(fx.system, fx.x0) == np.inf

    def test_pure_linear_dissipative_is_zero(self):
        sys = scalar_system(-1.0, 0.0)
        assert r_mu(sys, [0.5]) == 0.0

    def test_zero_initial_state_rejected(self):
        with pytest.raises(ZeroInitialStateError):
            r_mu(scalar_system(-1.0, 0.1), [0.0])


class TestRAlpha:
    def test_normal_linear_part_reduces_to_r_mu(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((2, 2))
        f1 = -(h @ h.T) - 0.5 * np.eye(2)  # symmetric, hence normal
        sys = QuadraticSystem(
            f0=0.1 * rng.standard_normal(2),
            f1=f1,
            f2=0.1 * rng.standard_normal((2, 4)),
        )
        x0 = np.array([0.4, 0.3])
        assert r_alpha(sys, x0) == pytest.approx(r_mu(sys, x0), abs=1e-10)

    def test_linear_oscillator_is_zero(self):
        fx = damped_oscillator(r=1.0, n=0.0)
        assert r_alpha(fx.system, fx.x0) == 0.0

    def test_matches_eigenbasis_weight(self):
        fx = damped_oscillator(r=1.0, n=0.1)
        val = r_alpha(fx.system, fx.x0)
        assert np.isfinite(val)
        dec = linalg.eig(fx.system.f1)
        w = dec.inverse_vectors
        assert r_p(fx.system, fx.x0, w.conj().T @ w) == pytest.approx(val, rel=1e-9)

    def test_defective_rejected(self):
        sys = QuadraticSystem(
            f0=np.zeros(2), f1=[[-1.0, 1.0], [0.0, -1.0]], f2=np.zeros((2, 4))
        )
        with pytest.raises(NonDiagonalizableError):
            r_alpha(sys, [1.0, 0.0])


class TestRP:
    def test_identity_weight_is_r_mu(self):
        sys = random_stable_system(4)
        x0 = np.array([0.5, -0.2])
        assert r_p(sys, x0, np.eye(2)) == pytest.approx(r_mu(sys, x0), rel=1e-12)

    @pytest.mark.parametrize("c", [0.1, 1.0, 17.5])
    def test_scale_invariance(self, c):
        sys = random_stable_system(5)
        x0 = np.array([0.3, 0.4])
        p = linalg.solve_lyapunov(sys.f1)
        assert r_p(sys, x0, c * p) == pytest.approx(r_p(sys, x0, p), rel=1e-12)

    def test_weight_factored_once_per_call(self, monkeypatch):
        from carleman_lab import stability

        calls = []
        real = linalg._pd_sqrt_factors

        def counting(p):
            calls.append(p)
            return real(p)

        for module in (linalg, stability):
            monkeypatch.setattr(module, "_pd_sqrt_factors", counting)
        sys = random_stable_system(7)
        x0 = np.array([0.4, -0.3])
        p = linalg.solve_lyapunov(sys.f1)
        value = r_p(sys, x0, p)
        assert len(calls) == 1
        # bitwise the value the per-quantity weighted norms give
        mu_p = linalg.generalized_log_norm(sys.f1, p)
        assert mu_p < 0
        norms = linalg.p_norms(x0, sys.f2, sys.f0, p)
        assert value == float((norms["f2"] * norms["x"] + norms["f0"] / norms["x"]) / (-mu_p))

    def test_condition_number_bound_dominates(self):
        sys = random_stable_system(6)
        x0 = np.array([0.5, 0.1])
        p = linalg.solve_lyapunov(sys.f1)
        kappa = np.linalg.cond(p)
        mu_p = linalg.generalized_log_norm(sys.f1, p)
        assert rp_condition_number_bound(sys, x0, kappa, mu_p) >= r_p(sys, x0, p) - 1e-12


class TestXiBound:
    def test_pure_linear(self):
        sys = QuadraticSystem(f0=np.zeros(2), f1=-np.eye(2), f2=np.zeros((2, 4)))
        p = np.eye(2)
        assert xi_bound(sys, p) == pytest.approx(
            4 * linalg.generalized_log_norm(sys.f1, p)
        )

    def test_arithmetic(self):
        f2 = np.zeros((1, 1))
        f2[0, 0] = 0.2
        sys = QuadraticSystem(f0=[0.1], f1=[[-1.0]], f2=f2)
        assert xi_bound(sys, np.eye(1)) == pytest.approx(-2.9)

    def test_certified_oscillator_negative_after_rescaling(self):
        fx = damped_oscillator(r=1.5, n=0.1)
        cert = optimize_rp(fx.system, fx.x0, budget=600)
        assert cert.certified and cert.xi < 0


class TestOptimizeRP:
    def test_oscillator_point_inside_region(self):
        fx = damped_oscillator(r=1.5, n=0.1)
        cert = optimize_rp(fx.system, fx.x0, budget=600)
        assert cert.certified and cert.value < 1

    def test_never_loses_to_identity_weight(self):
        sys = random_stable_system(7, f2_scale=0.02)
        x0 = np.array([0.4, 0.1])
        cert = optimize_rp(sys, x0, budget=600)
        assert cert.value <= r_mu(sys, x0) + 1e-9

    def test_strong_nonlinearity_uncertified(self):
        fx = damped_oscillator(r=1.0, n=10.0)
        cert = optimize_rp(fx.system, fx.x0, budget=600)
        assert not cert.certified and cert.value >= 1

    def test_unstable_refused_with_reason(self):
        sys = QuadraticSystem(f0=np.zeros(1), f1=[[0.1]], f2=np.zeros((1, 1)))
        cert = optimize_rp(sys, [1.0], budget=100)
        assert not cert.certified and "stable" in cert.reason

    def test_witness_satisfies_lyapunov_inequality(self):
        for seed in range(4):
            sys = random_stable_system(seed)
            cert = optimize_rp(sys, np.array([0.5, 0.2]), budget=400)
            lhs = cert.p @ sys.f1 + sys.f1.conj().T @ cert.p
            top = np.max(np.linalg.eigvalsh(lhs)) / np.linalg.norm(cert.p, 2)
            assert top < -1e-12

    def test_domination_over_both_classical_numbers(self):
        fx = damped_oscillator(r=1.3, n=0.15)
        cert = optimize_rp(fx.system, fx.x0, budget=600)
        classical = min(r_mu(fx.system, fx.x0), r_alpha(fx.system, fx.x0))
        assert cert.value <= classical + 1e-8

    def test_three_dimensional_search(self):
        sys = random_stable_system(11, n=3, f2_scale=0.02)
        x0 = np.array([0.3, 0.2, -0.1])
        cert = optimize_rp(sys, x0, budget=900)
        assert cert.value <= min(r_mu(sys, x0), r_alpha(sys, x0)) + 1e-8


class TestStableErrorBound:
    def _certified(self):
        sys = scalar_system(-1.0, 0.05, f0=0.02)
        cert = optimize_rp(sys, [0.5], budget=400)
        assert cert.certified
        return sys, cert

    def test_exponent_scaling_in_k(self):
        _sys, cert = self._certified()
        b5 = stable_error_bound(cert, 1, 5, 1.0)
        b7 = stable_error_bound(cert, 1, 7, 1.0)
        expected = (7 / 5) * cert.x0_p_rescaled**2
        assert b7 / b5 == pytest.approx(expected, rel=1e-12)

    def test_first_block_identity_weight_drops_pinv_factor(self):
        _sys, cert = self._certified()
        b = stable_error_bound(cert, 1, 4, 1.0)
        manual = (
            4 * cert.f2_p_rescaled * cert.p_inv_norm**0.5 * cert.x0_p_rescaled**5
        ) / (-cert.xi)
        assert b == pytest.approx(manual, rel=1e-12)

    def test_measured_error_below_bound(self):
        sys, cert = self._certified()
        resc = rescale(sys, cert.gamma)
        prof = error_profile(
            resc, [cert.gamma * 0.5], 6, np.array([0.0, 2.0]), tol=1e-12
        )
        assert prof.block_norms[-1, 0] <= stable_error_bound(cert, 1, 6, 2.0)

    def test_all_blocks_below_bound_on_certified_oscillator(self):
        fx = damped_oscillator(r=1.5, n=0.1)
        cert = optimize_rp(fx.system, fx.x0, budget=600)
        resc = rescale(fx.system, cert.gamma)
        times = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
        for k in (4, 7):
            prof = error_profile(resc, cert.gamma * fx.x0, k, times, tol=1e-12)
            for j in range(1, k + 1):
                assert prof.block_norms[:, j - 1].max() <= stable_error_bound(
                    cert, j, k, 5.0
                )

    def test_uncertified_rejected(self):
        cert = StabilityCertificate(
            criterion="R_P", value=2.0, alpha=-1.0, mu=-1.0, certified=False
        )
        with pytest.raises(UncertifiedError):
            stable_error_bound(cert, 1, 4, 1.0)


class TestRegionScan:
    def test_oscillator_grid(self):
        grid = [(r, n) for r in (0.5, 1.0, 1.5, 2.0) for n in (0.0, 0.1, 0.3)]
        rows = region_scan(
            lambda r, n: damped_oscillator(r=r, n=n).system,
            grid,
            np.array([0.5, 0.5]),
            budget=300,
        )
        # the plain log-norm criterion never fires for the oscillator
        assert all(row["r_mu"] == np.inf for row in rows)
        # eigenbasis criterion fires somewhere, and the witness search
        # dominates it pointwise
        alpha_region = {
            (row["param1"], row["param2"]) for row in rows if row["r_alpha"] < 1
        }
        assert alpha_region
        for row in rows:
            if np.isfinite(row["r_alpha"]):
                assert row["r_p_best"] <= row["r_alpha"] + 1e-8

    def test_certified_region_grows_with_damping(self):
        x0 = np.array([0.5, 0.5])
        per_r = []
        for r in (0.8, 1.4, 2.0):
            rows = region_scan(
                lambda rr, nn: damped_oscillator(r=rr, n=nn).system,
                [(r, n) for n in (0.05, 0.1, 0.15, 0.2, 0.25)],
                x0,
                budget=300,
            )
            per_r.append(sum(row["r_p_best"] < 1 for row in rows))
        assert per_r[0] <= per_r[1] <= per_r[2] and per_r[-1] >= 1


def test_counterexample_regression_log_norm_of_lift_positive():
    # scalar instance with mu + |f0| + |f2| < 0 whose order-4 lift still
    # has positive log-norm, refuting the naive one-shot argument
    from carleman_lab.carleman import assemble_dense, build_blocks

    sys = scalar_system(-1.0, 0.02, f0=0.97)
    assert linalg.log_norm(sys.f1) + 0.97 + 0.02 < 0
    lift = assemble_dense(build_blocks(sys, 4))
    assert linalg.log_norm(lift) > 0.012
