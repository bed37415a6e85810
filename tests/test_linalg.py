import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carleman_lab import linalg
from carleman_lab.errors import (
    EmptyInputError,
    NonSquareError,
    NotPositiveDefiniteError,
    NotStableError,
)

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])
TRANSIENT = np.array([[0.25, 1.0], [-1.0, -0.5]])


def random_matrix(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


class TestEig:
    def test_rotation_generator(self):
        dec = linalg.eig(ROTATION)
        assert np.allclose(dec.eigenvalues, [1j, -1j])
        assert dec.condition_number == pytest.approx(1.0, abs=1e-9)
        assert dec.diagonalizable

    def test_transient_matrix_real_parts(self):
        dec = linalg.eig(TRANSIENT)
        assert np.allclose(dec.eigenvalues.real, -0.125, atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        m = random_matrix(rng, 3)
        dec = linalg.eig(m)
        rel = np.linalg.norm(dec.reconstruct() - m, 2) / np.linalg.norm(m, 2)
        assert rel <= 1e-10

    def test_ordering_is_descending(self):
        m = np.diag([-3.0, -1.0, -2.0 + 1j, -2.0 - 1j])
        dec = linalg.eig(m)
        w = dec.eigenvalues
        assert np.all(np.diff(w.real) <= 1e-15)
        for a, b in zip(w, w[1:]):
            if abs(a.real - b.real) < 1e-15:
                assert a.imag >= b.imag

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            linalg.eig(np.zeros((2, 3)))

    def test_defective_matrix_flagged(self):
        dec = linalg.eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not dec.diagonalizable


class TestMatrixExp:
    def test_zero_matrix(self):
        for t in (0.0, 1.0, -2.5, 7.0):
            assert np.allclose(linalg.matrix_exp(np.zeros((3, 3)), t), np.eye(3))

    def test_diagonal(self):
        out = linalg.matrix_exp(np.diag([-1.0, -2.0]), 1.0)
        assert np.allclose(out, np.diag([np.exp(-1.0), np.exp(-2.0)]), atol=1e-14)

    def test_transient_growth(self):
        x0 = np.array([1.0, 1.0])
        assert np.linalg.norm(linalg.matrix_exp(TRANSIENT, 1.0) @ x0) >= 1.65

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_semigroup(self, seed):
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, 4)
        m *= min(1.0, 10.0 / np.linalg.norm(m, 2))
        s, t = rng.uniform(-10, 10, size=2)
        whole = linalg.matrix_exp(m, s + t)
        split = linalg.matrix_exp(m, s) @ linalg.matrix_exp(m, t)
        assert np.linalg.norm(whole - split, 2) <= 1e-9 * np.linalg.norm(whole, 2)


class TestLogNormAndAbscissa:
    def test_minus_identity(self):
        assert linalg.log_norm(-np.eye(2)) == pytest.approx(-1.0, abs=1e-14)

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.0])
    def test_damped_oscillator_log_norm_is_zero(self, r):
        f1 = np.array([[0.0, 1.0], [-1.0, -r]])
        assert linalg.log_norm(f1) == pytest.approx(0.0, abs=1e-14)

    def test_printed_lift_matrix_log_norm(self):
        a = np.array(
            [
                [-1.0, 0.02, 0.0, 0.0],
                [1.94, -2.0, 0.04, 0.0],
                [0.0, 2.91, -3.0, 0.06],
                [0.0, 0.0, 3.88, -4.0],
            ]
        )
        assert linalg.log_norm(a) > 0.012

    def test_abscissa_examples(self):
        assert linalg.spectral_abscissa(TRANSIENT) == pytest.approx(-0.125, abs=1e-12)
        assert linalg.spectral_abscissa(ROTATION) == pytest.approx(0.0, abs=1e-13)
        f1 = np.array([[0.0, 1.0], [-1.0, -1.0]])
        # closed-form quadratic roots: Re[(-1 + sqrt(-3))/2]
        assert linalg.spectral_abscissa(f1) == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_log_norm_dominates_abscissa(self, seed):
        m = random_matrix(np.random.default_rng(seed), 4)
        assert linalg.log_norm(m) >= linalg.spectral_abscissa(m) - 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_abscissa_similarity_invariant(self, seed):
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, 3)
        q = random_matrix(rng, 3) + 3 * np.eye(3)
        sim = q @ m @ np.linalg.inv(q)
        assert linalg.spectral_abscissa(sim) == pytest.approx(
            linalg.spectral_abscissa(m), abs=1e-8
        )


class TestGeneralizedLogNorm:
    @pytest.mark.parametrize("seed", range(4))
    def test_identity_weight_reduces(self, seed):
        m = random_matrix(np.random.default_rng(seed), 3)
        assert linalg.generalized_log_norm(m, np.eye(3)) == pytest.approx(
            linalg.log_norm(m), abs=1e-12
        )

    def test_eigenbasis_weight_gives_abscissa(self):
        rng = np.random.default_rng(11)
        m = random_matrix(rng, 3) - 2 * np.eye(3)
        dec = linalg.eig(m)
        w = dec.inverse_vectors
        p = w.conj().T @ w
        assert linalg.generalized_log_norm(m, p) == pytest.approx(
            linalg.spectral_abscissa(m), abs=1e-10
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_lyapunov_weight_is_negative(self, seed):
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, 3) - 3 * np.eye(3)
        assert linalg.spectral_abscissa(m) < 0
        p = linalg.solve_lyapunov(m)
        assert linalg.generalized_log_norm(m, p) < 0

    def test_rejects_indefinite_weight(self):
        with pytest.raises(NotPositiveDefiniteError):
            linalg.generalized_log_norm(np.eye(2), np.diag([1.0, -1.0]))


class TestPNorms:
    def test_identity_weight(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f2 = rng.standard_normal((2, 4))
        f0 = rng.standard_normal(2)
        norms = linalg.p_norms(x, f2, f0, np.eye(2))
        assert norms["x"] == pytest.approx(np.linalg.norm(x))
        assert norms["f0"] == pytest.approx(np.linalg.norm(f0))
        assert norms["f2"] == pytest.approx(np.linalg.norm(f2, 2))

    def test_scaling_homogeneity(self):
        f2 = np.array([[0.3, 0.0, 0.1, 0.0], [0.0, 0.2, 0.0, 0.5]])
        norms = linalg.p_norms([1.0, 0.0], f2, [0.0, 0.0], 4.0 * np.eye(2))
        assert norms["x"] == pytest.approx(2.0, abs=1e-14)
        assert norms["f2"] == pytest.approx(np.linalg.norm(f2, 2) / 2.0, abs=1e-12)

    def test_scalar_reduction_of_relaxation_model(self):
        # reduced one-dimensional model: f1 = -1, f2 = -b, f0 = a*x1^2
        a, b, x1 = 0.2, 0.05, 0.5
        norms = linalg.p_norms([0.3], [[-b]], [a * x1**2], [[1.0]])
        assert norms["f2"] == pytest.approx(b)
        assert norms["f0"] == pytest.approx(a * x1**2)


class TestSolveLyapunov:
    def test_minus_identity(self):
        assert np.allclose(linalg.solve_lyapunov(-np.eye(3)), np.eye(3) / 2.0)

    def test_transient_matrix_witness(self):
        p = linalg.solve_lyapunov(TRANSIENT)
        lhs = p @ TRANSIENT + TRANSIENT.conj().T @ p
        assert np.linalg.norm(lhs + np.eye(2), 2) <= 1e-10
        assert np.max(np.linalg.eigvalsh(lhs)) == pytest.approx(-1.0, abs=1e-10)

    def test_marginal_matrix_rejected(self):
        with pytest.raises(NotStableError):
            linalg.solve_lyapunov(ROTATION)


class TestOriginHull:
    def test_segment_through_origin(self):
        status = linalg.origin_hull_status([1j, -1j])
        assert status.inside
        assert status.separating_direction is None

    def test_three_points_outside(self):
        pts = np.array([-1.0, -2.0 + 1j, -1.0 - 3j])
        status = linalg.origin_hull_status(pts)
        assert not status.inside
        w = status.separating_direction
        values = (pts.conj() * w).real
        assert np.all(values > 0)
        assert values.min() == pytest.approx(status.distance, abs=1e-12)

    def test_upper_half_plane_outside(self):
        status = linalg.origin_hull_status([-1.0 + 1j, 1j, -2.0 + 2j])
        assert not status.inside

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            linalg.origin_hull_status([])

    def test_near_real_spectrum_outside(self):
        # a real spectrum through a complex eigensolver: roundoff-level
        # imaginary parts must not make a sliver hull that holds the origin
        pts = np.array([-1.1 + 1e-18j, -1.4 - 1e-18j, -1.7 + 1e-18j, -1.9 - 1e-18j])
        status = linalg.origin_hull_status(pts)
        assert not status.inside
        assert status.distance == pytest.approx(1.1, abs=1e-12)
        assert status.separating_direction == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_direction_distance_consistency(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal(6) + 1j * rng.standard_normal(6) + (3.0 + 0j)
        status = linalg.origin_hull_status(pts)
        assert not status.inside
        values = (pts.conj() * status.separating_direction).real
        assert values.min() == pytest.approx(status.distance, abs=1e-10)
        assert status.distance > 0


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.01, max_value=100.0), st.integers(0, 100))
def test_generalized_log_norm_matches_plain_under_scaled_identity(c, seed):
    # mu_P is invariant under scaling P -> cP
    m = random_matrix(np.random.default_rng(seed), 2)
    plain = linalg.log_norm(m)
    assert linalg.generalized_log_norm(m, c * np.eye(2)) == pytest.approx(
        plain, abs=1e-10 * max(1.0, abs(plain))
    )


# bounded so that no product overflows; signed zeros stay in
_entries = st.complex_numbers(max_magnitude=1e100, allow_nan=False, allow_infinity=False)


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _complex_array(shape):
    return st.lists(
        _entries, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))
    ).map(lambda xs: np.array(xs, dtype=complex).reshape(shape))


_sizes = st.integers(min_value=1, max_value=5)


class TestKernels:
    """The broadcast Kronecker kernels and spectral_norm against the numpy oracle, bit for bit."""

    def test_kron_pair_at_n1(self):
        # y[:, None] * y rounds this product without FMA, np.kron with it
        y = np.array([94906267.0 + 16160.0j])
        assert _bitwise_equal(linalg.kron_pair(y), np.kron(y, y))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=_sizes)
    def test_kron_pair(self, data, n):
        y = data.draw(_complex_array((2 * n,)))
        for v in (y[:n], y[::2]):  # contiguous and strided
            assert _bitwise_equal(linalg.kron_pair(v), np.kron(v, v))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=_sizes)
    def test_kron_square(self, data, n):
        m = data.draw(_complex_array((n, n)))
        for a in (m, np.asfortranarray(m), m.T):
            assert _bitwise_equal(linalg.kron_square(a), np.kron(a, a))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=_sizes, cols=_sizes, rows2=_sizes, cols2=_sizes)
    def test_kron2(self, data, rows, cols, rows2, cols2):
        a = data.draw(_complex_array((rows, cols)))
        b = data.draw(_complex_array((rows2, cols2)))
        assert _bitwise_equal(linalg.kron2(a, b), np.kron(a, b))
        assert _bitwise_equal(linalg.kron2(a[:, 0], b[0]), np.kron(a[:, 0], b[0]))
        # a real identity factor, as in the polynomial lift
        eye = np.eye(rows2)
        assert _bitwise_equal(linalg.kron2(a, eye), np.kron(a, eye))
        assert _bitwise_equal(linalg.kron2(eye, a), np.kron(eye, a))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=_sizes, cols=_sizes)
    def test_spectral_norm(self, data, rows, cols):
        m = data.draw(_complex_array((rows, cols)))
        assert linalg.spectral_norm(m) == np.linalg.norm(m, 2)


class TestHermitianShortcut:
    @staticmethod
    def count_svds(monkeypatch):
        calls = []
        real = linalg.spectral_norm

        def counting(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(linalg, "spectral_norm", counting)
        return calls

    def test_exactly_hermitian_weight_skips_the_defect_svds(self, monkeypatch):
        calls = self.count_svds(monkeypatch)
        p = np.array([[2.0, 0.5 - 0.25j], [0.5 + 0.25j, 1.0]])
        root, inv_root = linalg._pd_sqrt_factors(p)
        assert calls == []
        assert np.allclose(root @ root, p, atol=1e-14)
        assert np.allclose(root @ inv_root, np.eye(2), atol=1e-14)

    def test_roundoff_defect_takes_the_svd_path_and_passes(self, monkeypatch):
        calls = self.count_svds(monkeypatch)
        p = np.array([[2.0, 0.5], [0.5 + 1e-15, 1.0]])
        linalg._pd_sqrt_factors(p)
        assert len(calls) == 2

    def test_defect_of_1e9_relative_is_refused(self):
        p = np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex)
        p[0, 1] += 1e-9 * np.linalg.norm(p, 2)
        assert np.linalg.norm(p - p.conj().T, 2) == pytest.approx(
            1e-9 * np.linalg.norm(p, 2), rel=1e-3
        )
        with pytest.raises(NotPositiveDefiniteError, match="not Hermitian"):
            linalg._pd_sqrt_factors(p)
