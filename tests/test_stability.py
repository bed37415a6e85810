import ast
import inspect

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from carleman_lab import linalg, stability
from carleman_lab.carleman import error_profile
from carleman_lab.errors import (
    NonDiagonalizableError,
    NotPositiveDefiniteError,
    UncertifiedError,
    ZeroInitialStateError,
)
from carleman_lab.fixtures import damped_oscillator, fixture
from carleman_lab.stability import (
    StabilityCertificate,
    optimize_rp,
    r_alpha,
    r_mu,
    r_p,
    scan_point,
)
from carleman_lab.system import QuadraticSystem, Spectrum, rescale
from rp_oracle import nelder_mead_planar_rp


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

    def test_divides_by_the_certificate_alpha(self):
        fx = damped_oscillator(r=0.1, n=0.1)
        spec = fx.system.spectrum
        alpha = optimize_rp(fx.system, fx.x0, budget=100).alpha
        # linalg.eig sorts on real parts quantized to 1e-10 max|lambda|, so the
        # first eigenvalue is not the one with the largest real part here
        assert spec.dec.eigenvalues[0].real < alpha == np.max(spec.dec.eigenvalues.real)
        w = spec.dec.inverse_vectors
        nx = np.linalg.norm(w @ linalg.as_cvector(fx.x0))
        f0_t = np.linalg.norm(w @ fx.system.f0)
        expected = float((spec.f2_tilde_norm * nx + f0_t / nx) / (-alpha))
        assert r_alpha(fx.system, fx.x0) == expected

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


def r_p_weighted_system(sys, x0, p):
    """Oracle: R_P as R_mu of the P^{1/2}-weighted QuadraticSystem, built with np.kron."""
    v = stability._check_x0(x0)
    root, inv_root = linalg._pd_sqrt_factors(p)
    weighted = QuadraticSystem(
        f0=root @ sys.f0,
        f1=root @ sys.f1 @ inv_root,
        f2=root @ sys.f2 @ np.kron(inv_root, inv_root),
    )
    return r_mu(weighted, root @ v)


def outcome(f, *args):
    """The value, or the type and message of the exception, of f(*args)."""
    try:
        return f(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


# _planar_rp and r_p factor P differently (Cholesky against the Hermitian
# square root), so they agree to roundoff, not bitwise.  Both round mu_P
# at about eps sqrt(kappa(P)) ||F1||; over 4 000 random weights with
# kappa(P) up to 1e6 (1 065 of them with mu_P < 0) the largest relative
# gap was 6.9e-15 times 1 + sqrt(kappa(P)) ||F1|| / |mu_P|.
PLANAR_RTOL = 1e-13


def weight(a, b, d):
    return np.array([[a, b], [np.conj(b), d]], dtype=complex)


def assert_planar_close(sys, p, value, ref):
    """Two R_P evaluations at the weight p agree up to the roundoff of mu_P."""
    if value == ref:
        return
    mu_p = linalg.generalized_log_norm(sys.f1, p)
    slack = PLANAR_RTOL * np.sqrt(np.linalg.cond(p)) * np.linalg.norm(sys.f1, 2)
    if abs(mu_p) <= slack:  # the sign of mu_P is below roundoff: inf or finite
        return
    assert abs(value - ref) <= (PLANAR_RTOL + slack / abs(mu_p)) * abs(ref), (value, ref, mu_p)


def assert_planar_matches_r_p(sys, x0, a, b, d, value):
    """``value`` of _planar_rp at [[a, b], [b*, d]] (scalars or a grid) matches r_p."""
    points = np.broadcast_arrays(a, b, d, value)
    for a_i, b_i, d_i, v_i in zip(*(np.ravel(z).tolist() for z in points)):
        p = weight(a_i, b_i, d_i)
        assert_planar_close(sys, p, v_i, r_p(sys, x0, p))


POLL_SAMPLE = 16


def assert_search_matches_r_p(planar):
    """Recorded _planar_rp calls of an n = 2 search match r_p.

    The first call, the Bloch grid, is checked on every witness; each
    later call, one poll of up to 9^3 witnesses, on its best witness and
    a seeded sample of POLL_SAMPLE others.
    """
    rng = np.random.default_rng(0)
    for i, (sys, x0, a, b, d, value) in enumerate(planar):
        if i:
            a, b, d, value = (np.ravel(z) for z in np.broadcast_arrays(a, b, d, value))
            sample = rng.choice(value.size, min(value.size, POLL_SAMPLE), replace=False)
            pick = np.union1d(np.argmin(value), sample)
            a, b, d, value = a[pick], b[pick], d[pick], value[pick]
        assert_planar_matches_r_p(sys, x0, a, b, d, value)


class TestRPAgainstWeightedSystem:
    @staticmethod
    def recorded_calls(monkeypatch):
        calls = []
        real = stability.r_p

        def recording(sys, x0, p):
            calls.append((sys, np.array(x0), np.array(p)))
            return real(sys, x0, p)

        monkeypatch.setattr(stability, "r_p", recording)
        return calls

    @staticmethod
    def recorded_planar_calls(monkeypatch):
        """Every (sys, x0, a, b, d, value) of the closed-form n = 2 kernel."""
        calls = []
        real = stability._planar_rp

        def recording(sys, x0, a, b, d):
            value = real(sys, x0, a, b, d)
            calls.append((sys, np.array(x0), a, b, d, value))
            return value

        monkeypatch.setattr(stability, "_planar_rp", recording)
        return calls

    # the benchmark's certify fixtures; only the stable ones reach the search
    @pytest.mark.parametrize(
        "name,params",
        [
            ("scalar", {"a": -1.0, "b": 0.1}),
            ("damped_oscillator", {"r": 1.6, "n": 0.22}),
            ("damped_oscillator", {"r": 1.0, "n": 0.5}),
            ("oscillating_toy", {"omega": 2.0, "a": 0.02}),
            ("time_dep_toy", {"a": 0.05, "c1": 0.1}),
            ("conservative_toy", {"a": 0.2, "b": 0.05}),
            ("oscillator_network", {"w": 0.05, "n": 3}),
        ],
    )
    def test_bitwise_on_every_witness_of_a_certify_search(self, monkeypatch, name, params):
        # a two-dimensional search scores its grid and pattern-search
        # stencils with _planar_rp, checked against r_p here (each poll on
        # its best witness and a seeded sample); its seed witnesses, and
        # every witness at n >= 3, still go through r_p.  At n = 1 there is
        # no search: one r_p call at P = [[1]].
        fx = fixture(name, **params)
        calls = self.recorded_calls(monkeypatch)
        planar = self.recorded_planar_calls(monkeypatch)
        optimize_rp(fx.system, fx.x0, budget=300)
        monkeypatch.undo()
        stable = fx.system.spectrum.abscissa < 0
        if not stable:
            assert not (calls or planar)
        elif fx.system.n == 1:
            assert [p.tolist() for _, _, p in calls] == [[[1.0]]] and not planar
        else:
            searched = planar if fx.system.n == 2 else calls
            assert len(searched) > 10
            assert fx.system.n == 2 or not planar
        for sys, x0, p in calls:
            new, old = outcome(r_p, sys, x0, p), outcome(r_p_weighted_system, sys, x0, p)
            assert new == old or (np.isnan(new) and np.isnan(old))
        assert_search_matches_r_p(planar)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        spread=st.floats(-3.0, 3.0),
        hermitian=st.booleans(),
    )
    def test_bitwise_on_random_weights(self, seed, n, spread, hermitian):
        rng = np.random.default_rng(seed)
        sys = random_stable_system(seed, n=n, f2_scale=0.3)
        x0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ell = np.tril(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        ell[np.diag_indices(n)] = 10.0 ** (spread * rng.random(n))
        p = ell @ ell.conj().T
        if hermitian:
            p = (p + p.conj().T) / 2.0
        assert outcome(r_p, sys, x0, p) == outcome(r_p_weighted_system, sys, x0, p)

    @pytest.mark.parametrize(
        "f0,f1",
        [
            ([0.0, 0.0], [[-1.0, 1e300], [0.0, -1.0]]),  # weighted F1 overflows
            ([1e306, 0.0], [[-1.0, 0.0], [0.0, -1.0]]),  # weighted F0 overflows
        ],
    )
    @pytest.mark.filterwarnings("ignore:.*encountered in matmul:RuntimeWarning")
    def test_non_finite_weighted_system_is_rejected(self, f0, f1):
        sys = QuadraticSystem(f0=f0, f1=f1, f2=np.zeros((2, 4)))
        p = np.diag([1e10, 1e-10])
        x0 = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="non-finite"):
            r_p(sys, x0, p)
        assert outcome(r_p, sys, x0, p) == outcome(r_p_weighted_system, sys, x0, p)

    @pytest.mark.parametrize("sys", [damped_oscillator(r=1.5, n=0.1).system,
                                     random_stable_system(11, n=3, f2_scale=0.02)])
    def test_every_objective_evaluation_goes_through_r_p(self, monkeypatch, sys):
        # the benchmark's stability.r_p span wraps the module attribute; an
        # objective that computed R_P another way would drop out of it.  At
        # n = 2 the search goes through _planar_rp instead: one array call
        # for the grid, then one per poll, each scoring only in-ball
        # unit-trace witnesses, checked against r_p (each poll on its best
        # witness and a seeded sample); no Nelder-Mead runs.
        x0 = np.full(sys.n, 0.5)
        planar = self.recorded_planar_calls(monkeypatch)
        calls = planar if sys.n == 2 else self.recorded_calls(monkeypatch)
        real_minimize = scipy.optimize.minimize
        evaluations = []

        def minimize(fun, x, **kwargs):
            assert sys.n > 2, "the n = 2 search runs no Nelder-Mead"

            def counted(z):
                before = len(calls)
                value = fun(z)
                evaluations.append(len(calls) - before)
                return value

            return real_minimize(counted, x, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", minimize)
        optimize_rp(sys, x0, budget=200)
        if sys.n > 2:
            assert len(evaluations) > 50
            assert all(made == 1 for made in evaluations)
            return
        grid, *polls = planar
        assert np.size(grid[2]) == len(stability._bloch_matrices(stability.BLOCH_GRID_RESOLUTION))
        assert 10 < len(polls) <= 200
        for _, _, a, b, d, _ in polls:
            assert isinstance(a, np.ndarray) and 0 < a.size <= 9**3
            assert np.all(a + d == 1.0)
            assert np.all((a - d) ** 2 + 4.0 * np.abs(b) ** 2 < 1.0 - 1e-12)
        assert_search_matches_r_p(planar)


def random_complex_system(seed):
    rng = np.random.default_rng(seed)

    def c(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    sys = QuadraticSystem(f0=0.1 * c(2), f1=c(2, 2) - 2.5 * np.eye(2), f2=0.3 * c(2, 4))
    return sys, c(2), rng


def random_weights(rng, log_kappa, log_scale, count):
    """Hermitian PD 2x2 weights with condition number 10**log_kappa, as (a, b, d) scalars."""
    out = []
    for _ in range(count):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        p = 10.0**log_scale * (q @ np.diag([1.0, 10.0**-log_kappa]) @ q.conj().T)
        out.append((float(p[0, 0].real), complex(p[0, 1]), float(p[1, 1].real)))
    return out


class TestPlanarRP:
    """The closed-form n = 2 kernel against r_p, its oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_kappa=st.floats(0.0, 6.0),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_matches_r_p_on_random_weights(self, seed, log_kappa, log_scale):
        sys, x0, rng = random_complex_system(seed)
        ((a, b, d),) = random_weights(rng, log_kappa, log_scale, 1)
        p = weight(a, b, d)
        assert_planar_close(sys, p, stability._planar_rp(sys, x0, a, b, d), r_p(sys, x0, p))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_kappa=st.floats(0.0, 6.0))
    def test_scalar_and_array_evaluations_agree(self, seed, log_kappa):
        sys, x0, rng = random_complex_system(seed)
        witnesses = random_weights(rng, log_kappa, 0.0, 16)
        grid = stability._planar_rp(sys, x0, *(np.array(z) for z in zip(*witnesses)))
        assert grid.shape == (16,)
        for (a, b, d), value in zip(witnesses, grid):
            assert_planar_close(sys, weight(a, b, d), value, stability._planar_rp(sys, x0, a, b, d))

    def test_bloch_grid_matches_r_p(self):
        fx = damped_oscillator(r=1.6, n=0.22)
        r = stability._bloch_matrices(9)
        a, b, d = stability._bloch_weight(r.T)
        values = stability._planar_rp(fx.system, fx.x0, a, b, d)
        assert np.isinf(values).any() and np.isfinite(values).any()
        assert_planar_matches_r_p(fx.system, fx.x0, a, b, d, values)

    NOT_PD = [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 2.0, 1.0), (-1.0, 0.0, -2.0),
              (1.0, 1j, 1.0), (2.0, 1.0 - 1j, 1.0)]

    @pytest.mark.parametrize("a,b,d", NOT_PD)
    def test_not_positive_definite_weight_is_rejected(self, a, b, d):
        sys = random_stable_system(3)
        x0 = np.array([0.5, -0.2])
        with pytest.raises(NotPositiveDefiniteError):
            r_p(sys, x0, weight(a, b, d))
        with pytest.raises(NotPositiveDefiniteError):
            stability._planar_rp(sys, x0, a, b, d)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_not_positive_definite_grid_weights_score_inf(self):
        sys = random_stable_system(3)
        a, b, d = (np.array(z) for z in zip(*self.NOT_PD))
        values = stability._planar_rp(sys, np.array([0.5, -0.2]), a.real, b, d.real)
        assert np.all(values == np.inf)

    @pytest.mark.parametrize(
        "f0,f1",
        [
            ([0.0, 0.0], [[-1.0, 1e300], [0.0, -1.0]]),  # weighted F1 overflows
            ([1e306, 0.0], [[-1.0, 0.0], [0.0, -1.0]]),  # weighted F0 overflows
        ],
    )
    @pytest.mark.filterwarnings("ignore:.*encountered in matmul:RuntimeWarning")
    def test_non_finite_weighted_system_is_rejected(self, f0, f1):
        sys = QuadraticSystem(f0=f0, f1=f1, f2=np.zeros((2, 4)))
        x0 = np.array([0.5, 0.5])
        new = outcome(stability._planar_rp, sys, x0, 1e10, 0j, 1e-10)
        assert new == outcome(r_p, sys, x0, np.diag([1e10, 1e-10]))
        assert new[0] is ValueError and "non-finite" in new[1]

    @pytest.mark.parametrize(
        "sys,a,b,d",
        [
            (damped_oscillator(r=1.0, n=0.5).system, 0.5, 0j, 0.5),  # mu_P = 0 exactly
            (damped_oscillator(r=1.0, n=0.5).system, 0.9, 0.2 + 0.1j, 0.1),
            (QuadraticSystem(f0=[0.1, 0.0], f1=np.eye(2), f2=np.ones((2, 4))), 0.5, 0.1j, 0.5),
        ],
    )
    def test_nonnegative_mu_p_scores_inf(self, sys, a, b, d):
        x0 = np.array([0.5, 0.5])
        assert linalg.generalized_log_norm(sys.f1, weight(a, b, d)) >= 0
        assert stability._planar_rp(sys, x0, a, b, d) == np.inf
        assert r_p(sys, x0, weight(a, b, d)) == np.inf

    def test_kernel_makes_no_lapack_call(self):
        # the kernel and every module function it calls: no np.linalg, no
        # scipy, and no call out of the module but to exceptions and these
        builtins = {"isinstance", "float", "sum", "map", "zip", "abs"}
        seen = set()

        def check(func):
            seen.add(func.__name__)
            tree = ast.parse(inspect.getsource(func).lstrip())
            for node in ast.walk(tree):
                assert not (isinstance(node, ast.Attribute) and node.attr == "linalg")
                assert not (isinstance(node, ast.Name) and node.id in ("scipy", "minimize"))
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    name = node.func.id
                    if name in builtins or name in seen or name.endswith("Error"):
                        continue
                    callee = getattr(stability, name)
                    assert callee.__module__ == stability.__name__, name
                    check(callee)

        check(stability._planar_rp)
        assert {"_abs2", "_top_eigenvalue", "_all_finite"} <= seen


class TestXiBound:
    """The decay budget xi = 4 mu_P + 5 ||F0||_P + 3 ||F2||_P of the gamma-rescaled system."""

    def test_pure_linear(self):
        sys = QuadraticSystem(f0=np.zeros(2), f1=-np.eye(2), f2=np.zeros((2, 4)))
        cert = optimize_rp(sys, [0.3, 0.4])
        assert cert.certified
        assert cert.xi == pytest.approx(4 * linalg.generalized_log_norm(sys.f1, cert.p))
        assert cert.xi == pytest.approx(-4.0)

    def test_arithmetic(self):
        f2 = np.zeros((1, 1))
        f2[0, 0] = 0.2
        sys = QuadraticSystem(f0=[0.1], f1=[[-1.0]], f2=f2)
        cert = optimize_rp(sys, [0.5])
        assert cert.certified
        # scalar weight p: ||F0||_P = sqrt(p) |F0| and ||F2||_P = |F2| / sqrt(p)
        root = np.sqrt(cert.p[0, 0].real)
        g = cert.gamma
        assert cert.xi == pytest.approx(-4.0 + 5 * g * 0.1 * root + 3 * 0.2 / (g * root))
        resc = rescale(sys, g)
        norms = linalg.p_norms([0.5], resc.f2, resc.f0, cert.p)
        mu_p = linalg.generalized_log_norm(sys.f1, cert.p)
        assert cert.xi == pytest.approx(4 * mu_p + 5 * norms["f0"] + 3 * norms["f2"])

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

    def test_lyapunov_seed_lets_programming_errors_through(self, monkeypatch):
        def broken(_f1):
            raise TypeError("bug in the seed")

        monkeypatch.setattr(stability, "solve_lyapunov", broken)
        fx = damped_oscillator(r=1.5, n=0.1)
        with pytest.raises(TypeError, match="bug in the seed"):
            optimize_rp(fx.system, fx.x0, budget=100)

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

    def test_certificate_factors_weight_once(self, monkeypatch):
        from carleman_lab import stability

        fx = damped_oscillator(r=1.5, n=0.1)
        cert = optimize_rp(fx.system, fx.x0, budget=600)
        assert cert.certified
        calls = []
        real = linalg._pd_sqrt_factors

        def counting(p):
            calls.append(p)
            return real(p)

        def recomputed(_m):
            raise AssertionError("alpha and mu come from optimize_rp")

        for module in (linalg, stability):
            monkeypatch.setattr(module, "_pd_sqrt_factors", counting)
        monkeypatch.setattr(Spectrum, "abscissa", property(recomputed))
        monkeypatch.setattr(stability, "log_norm", recomputed)
        sys, x0, p = fx.system, fx.x0, cert.p
        again = stability._certificate_from_p(sys, x0, p, cert.value, cert.alpha, cert.mu)
        assert len(calls) == 1
        assert (again.alpha, again.mu) == (cert.alpha, cert.mu)
        # bitwise the values the per-quantity weighted norms give
        mu_p = linalg.generalized_log_norm(sys.f1, p)
        norms = linalg.p_norms(x0, sys.f2, sys.f0, p)
        assert (again.gamma, again.xi) == stability._gamma_search(mu_p, norms)
        rescaled = rescale(sys, again.gamma)
        assert again.f2_p_rescaled == linalg.p_norms(x0, rescaled.f2, rescaled.f0, p)["f2"]
        assert again.x0_p_rescaled == float(again.gamma * norms["x"])
        disc = mu_p * mu_p - 4.0 * norms["f0"] * norms["f2"]
        assert again.late_time_estimate == float(
            (-mu_p - np.sqrt(disc)) / (2.0 * norms["f2"])
        )

    def test_three_dimensional_search(self):
        sys = random_stable_system(11, n=3, f2_scale=0.02)
        x0 = np.array([0.3, 0.2, -0.1])
        cert = optimize_rp(sys, x0, budget=900)
        assert cert.value <= min(r_mu(sys, x0), r_alpha(sys, x0)) + 1e-8

    def test_scalar_system_is_not_searched(self, monkeypatch):
        # R_P = R_mu for every P > 0 at n = 1: one r_p call at the unit-trace
        # witness P = [[1]], whatever the budget, and no Nelder-Mead
        fx = fixture("scalar", a=-1.0, b=0.1)
        calls = TestRPAgainstWeightedSystem.recorded_calls(monkeypatch)

        def minimize(*_args, **_kwargs):
            raise AssertionError("the n = 1 witness is not searched")

        monkeypatch.setattr(scipy.optimize, "minimize", minimize)
        cert = optimize_rp(fx.system, fx.x0, budget=0)
        assert len(calls) == 1 and cert.p.tolist() == [[1.0]]
        assert cert.value == r_mu(fx.system, fx.x0) and cert.certified
        assert (cert.p_inv_norm, cert.kappa_p) == (1.0, 1.0)

    def test_budget_caps_the_planar_polls(self, monkeypatch):
        fx = damped_oscillator(r=1.6, n=0.22)
        planar = TestRPAgainstWeightedSystem.recorded_planar_calls(monkeypatch)
        capped = optimize_rp(fx.system, fx.x0, budget=3)
        assert len(planar) == 1 + 3  # the grid, then three polls
        full = optimize_rp(fx.system, fx.x0)
        assert full.value <= capped.value


# The stable two-dimensional certify requests of the benchmark, and the
# stable systems among random_complex_system(seed) for seeds 0..39 and
# 177.  On seed 177 a pattern search that stopped at a step of 2e-11
# ended 1.4e-12 relative above Nelder-Mead.
PLANAR_SEARCH_CASES = [
    pytest.param((fx.system, fx.x0), id=f"damped_oscillator-{tag}")
    for tag, fx in (
        ("stable", damped_oscillator(r=1.6, n=0.22)),
        ("uncertified", damped_oscillator(r=1.0, n=0.5)),
    )
] + [
    pytest.param(random_complex_system(seed)[:2], id=f"random-{seed}")
    for seed in [*range(40), 177]
    if random_complex_system(seed)[0].spectrum.abscissa < 0
]


@pytest.mark.parametrize("case", PLANAR_SEARCH_CASES)
def test_planar_search_never_above_nelder_mead(case):
    sys, x0 = case
    reference, _ = nelder_mead_planar_rp(sys, x0)
    cert = optimize_rp(sys, x0)
    assert cert.value <= reference + 1e-12 * abs(reference)
    assert_planar_close(sys, cert.p, cert.value, r_p(sys, x0, cert.p))


class TestStableErrorBound:
    def _certified(self):
        sys = scalar_system(-1.0, 0.05, f0=0.02)
        cert = optimize_rp(sys, [0.5], budget=400)
        assert cert.certified
        return sys, cert

    def test_exponent_scaling_in_k(self):
        _sys, cert = self._certified()
        b5 = cert.error_bound(1, 5, 1.0)
        b7 = cert.error_bound(1, 7, 1.0)
        expected = (7 / 5) * cert.x0_p_rescaled**2
        assert b7 / b5 == pytest.approx(expected, rel=1e-12)

    def test_first_block_identity_weight_drops_pinv_factor(self):
        _sys, cert = self._certified()
        b = cert.error_bound(1, 4, 1.0)
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
        assert prof.block_norms[-1, 0] <= cert.error_bound(1, 6, 2.0)

    def test_all_blocks_below_bound_on_certified_oscillator(self):
        fx = damped_oscillator(r=1.5, n=0.1)
        cert = optimize_rp(fx.system, fx.x0, budget=600)
        resc = rescale(fx.system, cert.gamma)
        times = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
        for k in (4, 7):
            prof = error_profile(resc, cert.gamma * fx.x0, k, times, tol=1e-12)
            for j in range(1, k + 1):
                assert prof.block_norms[:, j - 1].max() <= cert.error_bound(j, k, 5.0)

    def test_uncertified_rejected(self):
        cert = StabilityCertificate(
            criterion="R_P", value=2.0, alpha=-1.0, mu=-1.0, certified=False
        )
        with pytest.raises(UncertifiedError):
            cert.error_bound(1, 4, 1.0)


class TestRegionScan:
    def test_oscillator_grid(self):
        grid = [(r, n) for r in (0.5, 1.0, 1.5, 2.0) for n in (0.0, 0.1, 0.3)]
        x0 = np.array([0.5, 0.5])
        rows = [
            scan_point(damped_oscillator(r=r, n=n).system, x0, budget=300) for r, n in grid
        ]
        # the plain log-norm criterion never fires for the oscillator
        assert all(row["r_mu"] == np.inf for row in rows)
        # eigenbasis criterion fires somewhere, and the witness search
        # dominates it pointwise
        alpha_region = {point for point, row in zip(grid, rows) if row["r_alpha"] < 1}
        assert alpha_region
        for row in rows:
            if np.isfinite(row["r_alpha"]):
                assert row["r_p_best"] <= row["r_alpha"] + 1e-8

    def test_certified_region_grows_with_damping(self):
        x0 = np.array([0.5, 0.5])
        per_r = []
        for r in (0.8, 1.4, 2.0):
            rows = [
                scan_point(damped_oscillator(r=r, n=n).system, x0, budget=300)
                for n in (0.05, 0.1, 0.15, 0.2, 0.25)
            ]
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
