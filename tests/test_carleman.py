import numpy as np
import pytest
import scipy.sparse as sp

from carleman_lab import linalg
from carleman_lab.carleman import (
    _shifted_augmented,
    assemble_dense,
    build_blocks,
    build_symmetric_lift,
    convergence_sweep,
    error_profile,
    initial_lift,
    integrate_lift,
    multiset_index,
    split_blocks,
    symmetric_dimension,
    symmetric_monomials,
    total_dimension,
)
from carleman_lab.cli import main
from carleman_lab.errors import (
    DimensionCapError,
    DimensionMismatchError,
    MatrixOverflowError,
)
from carleman_lab.linalg import tensor_power
from carleman_lab.system import QuadraticSystem, integrate_reference


def scalar_system(a, b, f0=0.0):
    return QuadraticSystem(f0=[f0], f1=[[a]], f2=[[b]])


def random_system(seed, n=2, f2_scale=0.1):
    rng = np.random.default_rng(seed)
    return QuadraticSystem(
        f0=0.1 * rng.standard_normal(n),
        f1=rng.standard_normal((n, n)) - 2 * np.eye(n),
        f2=f2_scale * rng.standard_normal((n, n * n)),
    )


class TestBuildBlocks:
    def test_scalar_block_values(self):
        a, b = -1.0, 0.5
        cm = build_blocks(scalar_system(a, b), 4)
        assert [cm.block_diag(j)[0, 0] for j in range(1, 5)] == [a, 2 * a, 3 * a, 4 * a]
        assert [cm.block_upper(j)[0, 0] for j in range(1, 4)] == [b, 2 * b, 3 * b]
        # the level-k upward block is retained as the truncation source
        assert cm.block_upper(4)[0, 0] == 4 * b

    def test_zero_drive_zeroes_lower_blocks(self):
        sys = random_system(0)
        cm = build_blocks(QuadraticSystem(f0=np.zeros(2), f1=sys.f1, f2=sys.f2), 3)
        for j in range(2, 4):
            assert np.count_nonzero(cm.block_lower(j).toarray()) == 0
        assert np.count_nonzero(cm.drive) == 0

    def test_level_two_diagonal_is_kronecker_sum(self):
        sys = random_system(1)
        cm = build_blocks(sys, 2)
        eye = np.eye(2)
        expected = np.kron(sys.f1, eye) + np.kron(eye, sys.f1)
        assert np.allclose(cm.block_diag(2).toarray(), expected, atol=1e-15)

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            build_blocks(random_system(2), 6, cap=50)

    def test_blocks_are_csr_and_count_stored_bytes(self):
        cm = build_blocks(random_system(3), 3)
        for block in (*cm.lower, *cm.diag, *cm.upper):
            assert sp.issparse(block) and block.format == "csr"
            stored = block.data.nbytes + block.indices.nbytes + block.indptr.nbytes
            assert block.nbytes == stored

    @pytest.mark.parametrize("n, k", [(1, 5), (2, 4), (3, 3)])
    def test_blocks_match_dense_kronecker_shift_sums(self, n, k):
        def shift_sum(op, j):
            return sum(
                np.kron(np.kron(np.eye(n**l), op), np.eye(n ** (j - 1 - l)))
                for l in range(j)
            )

        sys = random_system(5 + n, n=n)
        cm = build_blocks(sys, k)
        for j in range(1, k + 1):
            pairs = [(cm.block_diag(j), sys.f1), (cm.block_upper(j), sys.f2)]
            if j >= 2:
                pairs.append((cm.block_lower(j), sys.f0.reshape(n, 1)))
            for block, op in pairs:
                assert np.allclose(block.toarray(), shift_sum(op, j), rtol=0, atol=1e-14)

    def test_truncation_is_a_fresh_lower_order_build(self):
        sys = random_system(4)
        full = build_blocks(sys, 5)
        for k in range(1, 6):
            fresh = build_blocks(sys, k)
            assert np.array_equal(
                assemble_dense(full.truncated(k)), assemble_dense(fresh)
            )
            assert np.array_equal(full.truncated(k).drive, fresh.drive)


class TestAssembleDense:
    def test_printed_driven_scalar_lift(self):
        sys = scalar_system(-1.0, 0.02, f0=0.97)
        dense = assemble_dense(build_blocks(sys, 4))
        expected = np.array(
            [
                [-1.0, 0.02, 0.0, 0.0],
                [1.94, -2.0, 0.04, 0.0],
                [0.0, 2.91, -3.0, 0.06],
                [0.0, 0.0, 3.88, -4.0],
            ]
        )
        assert np.max(np.abs(dense - expected)) <= 1e-12

    def test_order_one_is_linear_part(self):
        sys = random_system(3)
        assert np.array_equal(assemble_dense(build_blocks(sys, 1)), sys.f1)

    def test_dense_matches_blockwise_matvec(self):
        sys = random_system(4)
        k = 3
        cm = build_blocks(sys, k)
        dense = assemble_dense(cm)
        rng = np.random.default_rng(5)
        y = rng.standard_normal(cm.total_dim) + 1j * rng.standard_normal(cm.total_dim)
        blocks = split_blocks(y, sys.n, k)
        expected = []
        for j in range(1, k + 1):
            acc = cm.block_diag(j) @ blocks[j - 1]
            if j >= 2:
                acc = acc + cm.block_lower(j) @ blocks[j - 2]
            if j < k:
                acc = acc + cm.block_upper(j) @ blocks[j]
            expected.append(acc)
        assert np.max(np.abs(dense @ y - np.concatenate(expected))) <= 1e-14


class TestInitialLift:
    def test_zero_state(self):
        assert np.count_nonzero(initial_lift(np.zeros(2), 3)) == 0

    def test_basis_vector(self):
        lift = initial_lift([1.0, 0.0], 3)
        blocks = split_blocks(lift, 2, 3)
        for j, block in enumerate(blocks, start=1):
            expected = np.zeros(2**j)
            expected[0] = 1.0
            assert np.array_equal(block, expected)

    def test_arithmetic(self):
        lift = initial_lift([0.5, 0.5], 2)
        assert np.allclose(lift, [0.5, 0.5, 0.25, 0.25, 0.25, 0.25])


class TestIntegrateLift:
    def test_null_generator_constant(self):
        sys = QuadraticSystem(f0=np.zeros(1), f1=np.zeros((1, 1)), f2=np.zeros((1, 1)))
        cm = build_blocks(sys, 3)
        y0 = initial_lift([0.7], 3)
        traj = integrate_lift(cm, y0, np.linspace(0, 2, 5))
        assert np.allclose(traj.states, y0, atol=1e-15)

    def test_order_one_matches_linearized_reference(self):
        sys = random_system(6)
        linear = QuadraticSystem(f0=sys.f0, f1=sys.f1, f2=np.zeros((2, 4)))
        x0 = np.array([0.4, -0.1])
        times = np.linspace(0.0, 3.0, 7)
        lift = integrate_lift(build_blocks(linear, 1), x0, times)
        ref = integrate_reference(linear, x0, times, 1e-12, 1e-12)
        assert np.max(np.abs(lift.states - ref.states)) <= 1e-9

    def test_scalar_first_block_tracks_reference(self):
        sys = scalar_system(-1.0, 0.1)
        times = np.array([0.0, 1.0])
        lift = integrate_lift(build_blocks(sys, 6), initial_lift([0.5], 6), times)
        ref = integrate_reference(sys, [0.5], times, 1e-12, 1e-12)
        assert abs(lift.states[-1][0] - ref.states[-1][0]) <= 1e-6

    def test_dimension_mismatch(self):
        cm = build_blocks(scalar_system(-1.0, 0.1), 3)
        with pytest.raises(DimensionMismatchError):
            integrate_lift(cm, np.zeros(5), [0.0, 1.0])

    def test_overflow_raises(self):
        # e^{800} is past the float range
        cm = build_blocks(scalar_system(400.0, 0.0), 1)
        with pytest.raises(MatrixOverflowError):
            integrate_lift(cm, [1.0], [0.0, 2.0])

    def test_dimension_cap(self):
        cm = build_blocks(random_system(2), 4)
        with pytest.raises(DimensionCapError):
            integrate_lift(cm, initial_lift([0.1, 0.1], 4), [0.0, 1.0], cap=20)


def dense_lift(cm, y0, times):
    """The dense oracle: [y; 1] stepped by e^{dt G} from linalg.matrix_exp."""
    a = assemble_dense(cm)
    dim = a.shape[0]
    aug = np.zeros((dim + 1, dim + 1), dtype=complex)
    aug[:dim, :dim] = a
    aug[:dim, dim] = cm.drive
    current = np.concatenate([y0, [1.0]])
    states = [y0]
    for dt in np.diff(times):
        current = linalg.matrix_exp(aug, dt) @ current
        states.append(current[:dim])
    return np.array(states)


class TestSparseActionOracle:
    @pytest.mark.parametrize("n, k", [(2, 7), (3, 5), (4, 4), (6, 3)])
    def test_matches_dense_exponential_on_uneven_steps(self, n, k):
        rng = np.random.default_rng(100 + n)
        sys = QuadraticSystem(
            f0=0.1 * rng.standard_normal(n),
            f1=rng.standard_normal((n, n)) / n - 1.3 * np.eye(n),
            f2=0.1 * rng.standard_normal((n, n * n)) / n,
        )
        cm = build_blocks(sys, k)
        assert cm.total_dim <= 400
        times = np.linspace(0.0, 1.0, 11)  # float steps of unequal size
        assert len({float(dt) for dt in np.diff(times)}) > 1
        y0 = initial_lift(0.3 * rng.standard_normal(n) / np.sqrt(n), k)
        expected = dense_lift(cm, y0, times)
        got = integrate_lift(cm, y0, times).states
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def scipy_shifted_augmented(lift):
    """The oracle: G = [[A, a], [0, 0]] by ``sp.block_array``, then scipy's trace, shift and 1-norm."""
    drive = sp.csr_array(lift.drive.reshape(-1, 1))
    corner = sp.csr_array((1, 1), dtype=complex)
    aug = sp.block_array([[lift.generator(), drive], [None, corner]], format="csr")
    dim = aug.shape[0]
    mu = aug.trace() / dim
    shifted = aug - mu * sp.identity(dim, dtype=complex, format="csr")
    return shifted, mu, abs(shifted).sum(axis=0).max()


def assert_bitwise_operator(lift):
    shifted, mu, col_max = _shifted_augmented(lift)
    want_shifted, want_mu, want_col_max = scipy_shifted_augmented(lift)
    assert shifted.shape == want_shifted.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(shifted, name), getattr(want_shifted, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert np.complex128(mu).tobytes() == np.complex128(want_mu).tobytes()
    assert np.float64(col_max).tobytes() == np.float64(want_col_max).tobytes()


class TestShiftedAugmentedOracle:
    """The one-pass evolution operator is bitwise the block_array route it replaced."""

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_lift_benchmark_systems(self, bench_workloads, seed):
        bench = bench_workloads
        cases = [(n, [k]) for n, k, _t, _steps in bench.LIFT_SIMULATIONS]
        cases += [(n, range(lo, hi + 1)) for n, lo, hi in bench.LIFT_SWEEPS]
        for index, (n, ks) in enumerate(cases):
            f0, f1, f2, _x0 = bench.stable_driven_system(bench._rng(seed, index), n)
            lifted = build_symmetric_lift(QuadraticSystem(f0=f0, f1=f1, f2=f2), max(ks))
            for k in ks:  # every truncation a sweep evolves
                assert_bitwise_operator(lifted.truncated(k))

    def test_undriven_lift(self):
        sys = random_system(4, n=3)
        undriven = QuadraticSystem(f0=np.zeros(3), f1=sys.f1, f2=sys.f2)
        assert_bitwise_operator(build_symmetric_lift(undriven, 4))

    def test_full_coordinate_lift(self):
        assert_bitwise_operator(build_blocks(random_system(5, n=3), 3))

    @pytest.mark.parametrize("f1", [[[2.0, 0.0], [0.0, 1.0]], [[1.0, 2.0], [0.0, -1.0]]])
    def test_cancelled_and_missing_diagonals(self, f1):
        # level 2 of diag(1, -1) stores an explicit zero, and with
        # diag(2, 1) at k = 1 the shift cancels a diagonal entry exactly
        sys = QuadraticSystem(f0=[0.5, 0.0], f1=f1, f2=np.zeros((2, 4)))
        for k in (1, 2, 3):
            assert_bitwise_operator(build_symmetric_lift(sys, k))
            assert_bitwise_operator(build_blocks(sys, k))


class TestErrorProfile:
    def test_linear_system_exact(self):
        sys = random_system(8)
        linear = QuadraticSystem(f0=sys.f0, f1=sys.f1, f2=np.zeros((2, 4)))
        prof = error_profile(linear, [0.5, -0.5], 4, np.linspace(0, 10, 6), tol=1e-12)
        assert np.max(prof.block_norms) <= 1e-9

    def test_zero_time_zero_error(self):
        sys = scalar_system(-1.0, 0.1)
        prof = error_profile(sys, [0.5], 5, np.array([0.0, 1.0]))
        assert np.max(prof.block_norms[0]) == 0.0

    def test_scalar_errors_shrink_geometrically(self):
        sys = scalar_system(-1.0, 0.1)
        sweep = convergence_sweep(sys, [0.5], range(2, 9), 2.0)
        errs = [sweep["errors"][k] for k in range(2, 9)]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        # by k = 8 the error reaches the oracle noise floor, so fit the
        # ratio on the clean part of the sweep
        clean = convergence_sweep(sys, [0.5], range(2, 8), 2.0)
        x_max = 0.5
        cap = 8 * 0.1 * x_max / 1.0 + 0.05
        assert clean["fitted_ratio"] <= cap

    def test_flow_derivative_matches_block_action(self):
        # central difference of tensor powers along the flow vs the blocks
        sys = random_system(9, f2_scale=0.05)
        k = 3
        cm = build_blocks(sys, k)
        h = 1e-4
        times = np.array([0.0, 1.0 - h, 1.0, 1.0 + h])
        ref = integrate_reference(sys, [0.3, 0.2], times, 1e-12, 1e-12)
        x_minus, x_mid, x_plus = ref.states[1], ref.states[2], ref.states[3]
        for j in range(1, k + 1):
            numeric = (tensor_power(x_plus, j) - tensor_power(x_minus, j)) / (2 * h)
            model = cm.block_diag(j) @ tensor_power(x_mid, j) + cm.block_upper(
                j
            ) @ tensor_power(x_mid, j + 1)
            if j >= 2:
                model = model + cm.block_lower(j) @ tensor_power(x_mid, j - 1)
            else:
                model = model + sys.f0
            assert np.max(np.abs(numeric - model)) <= 1e-6


class TestConvergenceSweep:
    def test_linear_reports_noise_floor(self):
        sys = QuadraticSystem(
            f0=np.zeros(2), f1=[[0.0, 1.0], [-1.0, -1.0]], f2=np.zeros((2, 4))
        )
        sweep = convergence_sweep(sys, [0.5, 0.5], range(2, 6), 2.0)
        assert sweep["fitted_ratio"] is None

    def test_damped_oscillator_converges(self):
        from carleman_lab.fixtures import damped_oscillator

        fx = damped_oscillator(r=1.5, n=0.2)
        sweep = convergence_sweep(fx.system, fx.x0, range(2, 8), 3.0)
        errs = [sweep["errors"][k] for k in range(2, 8)]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert sweep["fitted_ratio"] < 1

    def test_uncertified_bounded_instance_reports_growth(self):
        # bounded damped rotation with strong nonlinearity: R_mu > 1 and
        # the truncation errors grow with k; the sweep must say so calmly
        sys = scalar_system(-0.1 + 3j, 3.0)
        from carleman_lab.stability import r_mu

        assert r_mu(sys, [0.8]) > 1
        traj = integrate_reference(sys, [0.8], np.linspace(0, 10, 11))
        assert np.abs(traj.states).max() <= 0.81
        sweep = convergence_sweep(sys, [0.8], range(2, 9), 3.0)
        assert sweep["fitted_ratio"] >= 1


class TestSlicedSweep:
    @pytest.mark.parametrize("n, k_max", [(2, 6), (3, 4)])
    def test_errors_match_fresh_builds(self, n, k_max):
        sys = random_system(20 + n, n=n)
        x0 = np.full(n, 0.3)
        ks = range(2, k_max + 1)
        sweep = convergence_sweep(sys, x0, ks, 1.0)
        times = np.array([0.0, 1.0])
        for k in ks:
            fresh = error_profile(sys, x0, k, times).block_norms[-1, 0]
            assert abs(sweep["errors"][k] - fresh) <= 1e-13


def complex_system(seed, n, f2_scale=0.4):
    """A random complex system with a drive and a non-symmetric F2, and an x0."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    sys = QuadraticSystem(
        f0=0.1 * draw(n),
        f1=draw(n, n) / n - 1.5 * np.eye(n),
        f2=f2_scale * draw(n, n * n) / n,
    )
    return sys, 0.3 * draw(n) / np.sqrt(n)


def full_lift(sys, x0, k, times):
    """The full-coordinate oracle: Kronecker blocks evolved from x0^(j)."""
    return integrate_lift(build_blocks(sys, k), initial_lift(x0, k), times)


def symmetric_vector(rng, n, j):
    """A random symmetric level-j tensor, flattened."""
    index = multiset_index(n, j)[-(n**j):] - symmetric_dimension(n, j - 1)
    z = rng.standard_normal(index.max() + 1) + 1j * rng.standard_normal(index.max() + 1)
    return z[index]


class TestSymmetricLift:
    CASES = [(1, 10), (2, 8), (3, 5), (4, 4)]

    @pytest.mark.parametrize("n, k", CASES)
    def test_error_profile_matches_full_path(self, n, k):
        sys, x0 = complex_system(40 + n, n)
        times = np.linspace(0.0, 1.0, 5)
        prof = error_profile(sys, x0, k, times)
        full = full_lift(sys, x0, k, times)
        for i, x in enumerate(prof.reference.states):
            blocks = split_blocks(full.states[i], n, k)
            expected = [
                np.linalg.norm(tensor_power(x, j) - blocks[j - 1]) for j in range(1, k + 1)
            ]
            assert np.max(np.abs(prof.block_norms[i] - expected)) <= 1e-13
        assert np.all(prof.block_norms[0] == 0.0)
        # the expanded lift keeps the full layout
        assert prof.lift.states.shape == full.states.shape
        assert np.max(np.abs(prof.lift.states - full.states)) <= 1e-13

    @pytest.mark.parametrize("n, k", CASES)
    @pytest.mark.parametrize("f2_scale", [0.4, 0.0])
    def test_sweep_matches_full_path(self, n, k, f2_scale):
        sys, x0 = complex_system(40 + n, n, f2_scale)
        tol = 1e-12
        sweep = convergence_sweep(sys, x0, range(1, k + 1), 1.0, tol=tol)
        times = np.array([0.0, 1.0])
        ref = integrate_reference(sys, x0, times, tol, tol)
        expected = [
            np.linalg.norm(ref.states[-1] - full_lift(sys, x0, m, times).states[-1, :n])
            for m in range(1, k + 1)
        ]
        got = [sweep["errors"][m] for m in range(1, k + 1)]
        assert np.max(np.abs(np.subtract(got, expected))) <= 1e-13
        assert (sweep["fitted_ratio"] is None) == (min(expected) <= 10 * tol)
        # F2 = 0 puts every error at the noise floor, which drops the fit
        if f2_scale == 0.0:
            assert sweep["fitted_ratio"] is None

    @pytest.mark.parametrize("n, k", [(1, 4), (2, 4), (3, 3)])
    def test_blocks_are_the_restriction_of_the_full_blocks(self, n, k):
        sys, _ = complex_system(50 + n, n)
        f2 = sys.f2.reshape(n, n, n)
        assert n == 1 or not np.allclose(f2, f2.transpose(0, 2, 1))
        full = build_blocks(sys, k)
        index = multiset_index(n, k)
        # elimination keeps the sorted index tuple of each multiset;
        # duplication copies each multiset to all its index tuples
        rows = np.unique(index, return_index=True)[1]
        duplication = np.zeros((index.size, rows.size))
        duplication[np.arange(index.size), index] = 1.0
        expected = full.generator().toarray()[rows] @ duplication
        got = build_symmetric_lift(sys, k).generator().toarray()
        assert np.max(np.abs(got - expected)) <= 1e-14

        # every full block, A_{k,k+1} included, maps symmetric tensors to symmetric ones
        index = multiset_index(n, k + 1)
        levels = [
            index[total_dimension(n, j - 1) : total_dimension(n, j)]
            - symmetric_dimension(n, j - 1)
            for j in range(1, k + 2)
        ]
        rng = np.random.default_rng(n)
        for j in range(1, k + 1):
            pairs = [(j, full.block_diag(j)), (j + 1, full.block_upper(j))]
            if j >= 2:
                pairs.append((j - 1, full.block_lower(j)))
            level = levels[j - 1]
            representative = np.unique(level, return_index=True)[1]
            for m, block in pairs:
                image = block @ symmetric_vector(rng, n, m)
                assert np.max(np.abs(image - image[representative][level])) <= 1e-14

    def test_coordinates(self):
        n, k = 3, 4
        x = np.array([0.5, -0.2 + 0.1j, 1.3])
        index = multiset_index(n, k)
        assert index.size == total_dimension(n, k)
        assert index.max() + 1 == symmetric_dimension(n, k) == 34
        # expanding the monomials gives the tensor powers, and each
        # multiset is hit by its multinomial number of index tuples
        assert np.allclose(symmetric_monomials(x, n, k).ravel()[index], initial_lift(x, k))
        counts = np.bincount(index)
        assert counts[:n].tolist() == [1, 1, 1]
        assert counts[n : n + 6].tolist() == [1, 2, 2, 1, 2, 1]  # 00 01 02 11 12 22

    def test_truncation_is_a_fresh_lower_order_build(self):
        sys, _ = complex_system(7, 3)
        lifted = build_symmetric_lift(sys, 5)
        for k in range(1, 6):
            fresh = build_symmetric_lift(sys, k)
            assert np.array_equal(
                lifted.truncated(k).generator().toarray(), fresh.generator().toarray()
            )
            assert np.array_equal(lifted.truncated(k).drive, fresh.drive)

    def test_cap_counts_full_coordinates(self, monkeypatch):
        from carleman_lab import carleman

        sys, x0 = complex_system(3, 3)
        assert symmetric_dimension(3, 4) <= 100 < total_dimension(3, 4)

        def refuse(*args):
            raise AssertionError("allocated before the cap check")

        monkeypatch.setattr(carleman, "_multisets", refuse)
        monkeypatch.setattr(carleman, "multiset_rows", refuse)
        with pytest.raises(DimensionCapError) as err:
            build_symmetric_lift(sys, 4, cap=100)
        assert err.value.required == total_dimension(3, 4)
        with pytest.raises(DimensionCapError):
            error_profile(sys, x0, 4, [0.0, 1.0], cap=100)
        with pytest.raises(DimensionCapError):
            convergence_sweep(sys, x0, range(2, 5), 1.0, cap=100)


class TestDeterminism:
    # scipy's expm_multiply switches to a randomized 1-norm estimate once
    # t * ||A - mu I||_1 exceeds Al-Mohy & Higham's (3.13) bound, about 63
    ARGV = ["simulate", "--fixture", "damped_oscillator", "--k", "6", "--t", "40",
            "--steps", "2"]

    def test_setup_is_past_the_randomized_threshold(self):
        from carleman_lab.fixtures import damped_oscillator

        # simulate evolves the multiset lift; the full one is checked as before
        for build in (build_symmetric_lift, build_blocks):
            a = build(damped_oscillator().system, 6).generator()
            shifted = a - a.trace() / a.shape[0] * sp.identity(a.shape[0])
            assert 20.0 * abs(shifted).sum(axis=0).max() > 63.4

    def test_reruns_are_byte_identical(self, tmp_path):
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert main([*self.ARGV, "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_global_rng_untouched(self, tmp_path):
        before = np.random.get_state()
        assert main([*self.ARGV, "--out", str(tmp_path / "a.csv")]) == 0
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        assert np.array_equal(before[1], after[1])


def test_total_dimension():
    assert total_dimension(2, 3) == 14
    assert total_dimension(1, 6) == 6
