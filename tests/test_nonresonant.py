import json
import math

import numpy as np
import pytest

from carleman_lab import carleman, nonresonant
from carleman_lab.carleman import assemble_dense, build_blocks
from carleman_lab.cli import main as cli_main
from carleman_lab.errors import (
    DimensionCapError,
    NotPoincareError,
    ResonanceFoundError,
    ResonantDenominatorError,
    UncertifiedError,
)
from carleman_lab.nonresonant import (
    BOUNDARY,
    POINCARE,
    SIEGEL,
    block_norm,
    build_nl,
    classify_spectrum,
    shift_to_fixed_point,
    build_v_blocks,
    build_vinv_blocks,
    _blockwise_residuals,
    _shift_apply,
    _shift_block,
    certify_oscillating,
    certify_poincare,
    certify_siegel_split,
    check_resonance,
    classify_domain,
    column_sparsity,
    delta_gap_poincare,
    diagonalize_carleman,
    find_siegel_split,
    level_sums,
    nonresonant_error_bound,
    norm_bounds_check,
    r_big_delta,
    shift_oscillating_f2,
    siegel_type_estimate,
    xi_nu,
)
from carleman_lab.jsonio import system_from_json, system_to_json
from carleman_lab.system import (
    QuadraticSystem,
    integrate_nonautonomous,
    integrate_reference,
)
from forest_oracle import (
    blockwise_residuals_full,
    v_blocks_by_composition,
    vinv_blocks_by_composition,
    vinv_blocks_by_forest,
    strictly_upper,
    with_identities,
)


def random_poincare_system(seed, n=2, f2_scale=0.05):
    """Diagonalizable driftless system with spectrum in the open left plane."""
    rng = np.random.default_rng(seed)
    lams = -rng.uniform(0.5, 3.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f1 = q @ np.diag(lams) @ np.linalg.inv(q)
    f2 = f2_scale * (rng.standard_normal((n, n * n)) + 1j * rng.standard_normal((n, n * n)))
    return QuadraticSystem(f0=np.zeros(n), f1=f1, f2=f2)


class TestResonance:
    def test_integer_relation_detected(self):
        cls = check_resonance([-1.0, -2.0], 4)
        assert any(i == 1 and alpha == (2, 0) for i, alpha in cls.resonant_tuples)

    def test_incommensurate_pair_clean(self):
        cls = check_resonance([-1.0, -np.pi], 8)
        assert cls.resonant_tuples == []

    def test_marginal_pair_resonant(self):
        cls = check_resonance([1j, -1j], 4)
        assert cls.resonant_tuples  # i = 2i + (-i) at order three


class TestClassifyDomain:
    def test_left_plane_cluster(self):
        assert classify_domain([-1.0, -2.0 + 1j, -1.0 - 1j]) == POINCARE

    def test_straddling_imaginary_axis(self):
        assert classify_domain([1j, -1j]) == SIEGEL

    def test_origin_on_hull(self):
        assert classify_domain([0.0, -1.0]) == BOUNDARY

    def test_near_real_spectrum_is_poincare(self):
        lams = [-1.1 + 1e-18j, -1.4 - 1e-18j, -1.7 + 1e-18j, -1.9 - 1e-18j]
        assert classify_domain(lams) == POINCARE

    def test_origin_on_triangle_edge_stays_boundary(self):
        assert classify_domain([1j, -1j, -1.0]) == BOUNDARY

    def test_surrounded_origin_stays_siegel(self):
        assert classify_domain([1.0, -1.0 + 1j, -1.0 - 1j, 1e-18j]) == SIEGEL


class TestDeltaGap:
    def test_scalar_value(self):
        assert delta_gap_poincare([-1.0]) == pytest.approx(1.0)

    def test_brute_force_cross_check(self):
        lams = np.array([-1.0, -np.pi])
        gap = delta_gap_poincare(lams, order_cap=6)
        # oracle: direct enumeration far beyond the analytic cutoff
        from itertools import combinations_with_replacement

        brute = np.inf
        for total in range(2, 40):
            for combo in combinations_with_replacement(range(2), total):
                s = lams[list(combo)].sum()
                brute = min(brute, np.abs(lams - s).min() / (total - 1))
        assert gap <= brute + 1e-12
        assert gap > 0

    def test_upper_half_plane_pair(self):
        assert delta_gap_poincare([-1.0 + 5j, -1.0 + 6j]) > 0

    def test_siegel_rejected(self):
        with pytest.raises(NotPoincareError):
            delta_gap_poincare([1j, -1j])

    def test_resonant_rejected(self):
        with pytest.raises(ResonanceFoundError):
            delta_gap_poincare([-1.0, -2.0])


class TestBuildNl:
    def test_scalar_entries(self):
        a = -1.3
        for l in range(2, 6):
            nl = build_nl([a], l)
            assert nl[0, 0] == pytest.approx(1.0 / ((l - 1) * a))

    def test_pair_entry(self):
        lams = [-1.0, -np.pi]
        nl = build_nl(lams, 2)
        # entry (first eigenvalue | column of the (2,2) index pair)
        assert nl[0, 3] == pytest.approx(1.0 / (-2 * np.pi + 1.0))

    def test_marginal_resonance_raises(self):
        with pytest.raises(ResonantDenominatorError) as info:
            build_nl([1j, -1j], 3)
        assert info.value.offending is not None

    def test_marginal_pair_order_two_is_fine(self):
        nl = build_nl([1j, -1j], 2)
        assert np.all(np.isfinite(nl))


class TestVBlocks:
    def test_first_off_diagonal_is_hadamard_product(self):
        rng = np.random.default_rng(0)
        lams = np.array([-1.0 + 0.2j, -2.2 - 0.4j])
        f2t = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        blocks = build_v_blocks(lams, f2t, 2)
        assert np.allclose(blocks[(1, 2)], build_nl(lams, 2) * f2t, atol=1e-14)

    def test_scalar_superdiagonal(self):
        a, b = -1.0, 0.7
        blocks = build_v_blocks(np.array([a]), np.array([[b]]), 9)
        for m in range(1, 9):
            assert blocks[(m, m + 1)][0, 0] == pytest.approx(m * b / a, abs=1e-14)

    def test_defining_recurrence(self):
        from carleman_lab.carleman import build_blocks

        sys = random_poincare_system(3)
        from carleman_lab.linalg import eig

        dec = eig(sys.f1)
        lams = dec.eigenvalues
        f2t = dec.inverse_vectors @ sys.f2 @ np.kron(dec.right_vectors, dec.right_vectors)
        k = 4
        blocks = with_identities(build_v_blocks(lams, f2t, k), 2, k)
        cm = build_blocks(
            QuadraticSystem(f0=np.zeros(2), f1=np.diag(lams), f2=f2t), k
        )
        for i in range(1, k):
            for j in range(i + 1, k + 1):
                lhs = blocks[(i, j)] * level_sums(lams, j)[None, :] - level_sums(
                    lams, i
                )[:, None] * blocks[(i, j)]
                rhs = cm.block_upper(i) @ blocks[(i + 1, j)]
                scale = max(np.abs(rhs).max(), 1.0)
                assert np.abs(lhs - rhs).max() <= 1e-10 * scale

    @pytest.mark.parametrize("n,k", [(1, 10), (2, 6), (3, 5), (4, 3)])
    def test_match_composition_oracle(self, n, k):
        rng = np.random.default_rng(7 + 10 * n + k)
        lams = -rng.uniform(0.5, 3.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
        f2t = rng.standard_normal((n, n * n)) + 1j * rng.standard_normal((n, n * n))
        # the oracle's first row of V^-1 sums terms up to 511 times its size
        # at n=1, j=10 and lies up to 6e-13 from a 60-digit value there; the
        # recursion without that sum lies within 4 j u
        for build, oracle, rtol in (
            (build_v_blocks, v_blocks_by_composition, 1e-13),
            (build_vinv_blocks, vinv_blocks_by_composition, 1e-12),
        ):
            blocks = build(lams, f2t, k)
            expected = strictly_upper(oracle(lams, f2t, k))
            assert list(blocks) == sorted(expected)
            for (i, j), block in expected.items():
                scale = np.abs(block).max()
                assert np.abs(blocks[(i, j)] - block).max() <= rtol * scale, (i, j)


def _paper_vinv_13(lams, f2t):
    """Explicit five-index double sum for the (1, 3) inverse block."""
    n = len(lams)
    out = np.zeros((n, n**3), dtype=complex)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    for e in range(n):
                        w1 = (
                            f2t[a, b * n + c]
                            * f2t[b, d * n + e]
                            / (lams[b] + lams[c] - lams[a])
                            / (lams[c] + lams[d] + lams[e] - lams[a])
                        )
                        out[a, (d * n + e) * n + c] += w1
                        w2 = (
                            f2t[a, b * n + c]
                            * f2t[c, d * n + e]
                            / (lams[b] + lams[c] - lams[a])
                            / (lams[b] + lams[d] + lams[e] - lams[a])
                        )
                        out[a, (b * n + d) * n + e] += w2
    return out


def _paper_vinv_24(lams, f2t):
    """Explicit six-index five-forest sum for the (2, 4) inverse block."""
    n = len(lams)
    out = np.zeros((n**2, n**4), dtype=complex)

    def col(*idx):
        c = 0
        for i in idx:
            c = c * n + i
        return c

    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    for e in range(n):
                        for f in range(n):
                            t1 = (
                                f2t[a, b * n + c]
                                * f2t[b, d * n + e]
                                / (lams[b] + lams[c] - lams[a])
                                / (lams[c] + lams[d] + lams[e] - lams[a])
                            )
                            out[col(a, f), col(d, e, c, f)] += t1
                            t2 = (
                                f2t[a, b * n + c]
                                * f2t[c, d * n + e]
                                / (lams[b] + lams[c] - lams[a])
                                / (lams[b] + lams[d] + lams[e] - lams[a])
                            )
                            out[col(a, f), col(b, d, e, f)] += t2
                            t3 = (
                                f2t[a, b * n + c]
                                * f2t[b, e * n + f]
                                / (lams[b] + lams[c] - lams[a])
                                / (lams[c] + lams[e] + lams[f] - lams[a])
                            )
                            out[col(d, a), col(d, e, f, c)] += t3
                            t4 = (
                                f2t[a, b * n + c]
                                * f2t[c, e * n + f]
                                / (lams[b] + lams[c] - lams[a])
                                / (lams[b] + lams[e] + lams[f] - lams[a])
                            )
                            out[col(d, a), col(d, b, e, f)] += t4
                            t5 = (
                                f2t[a, c * n + d]
                                * f2t[b, e * n + f]
                                / (lams[c] + lams[d] - lams[a])
                                / (lams[e] + lams[f] - lams[b])
                            )
                            out[col(a, b), col(c, d, e, f)] += t5
    return out


class TestVInverseBlocks:
    def test_first_row_against_high_precision(self):
        # W_(1,j) = -N_j o (W_(1,j-1) A~_(j-1,j)) takes one product per
        # block, so its error grows linearly in j; the reference is the
        # compositional inverse G_j = -sum_{m<j} G_m V_(m,j) at 60 digits,
        # whose cancellation costs it about 3^j u at double precision
        mpmath = pytest.importorskip("mpmath")
        k = 10
        for seed in range(20):
            rng = np.random.default_rng(seed)
            lams = -rng.uniform(0.5, 3.0, 1) + 1j * rng.uniform(-1.0, 1.0, 1)
            f2t = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
            blocks = build_vinv_blocks(lams, f2t, k)
            with mpmath.workdps(60):
                lam, f2 = mpmath.mpc(complex(lams[0])), mpmath.mpc(complex(f2t[0, 0]))
                v = {(1, 1): mpmath.mpc(1)}
                for j in range(2, k + 1):
                    for i in range(j, 1, -1):
                        v[(i, j)] = sum(
                            v[(i - 1, j - m)] * v[(1, m)] for m in range(1, j - i + 2)
                        )
                    v[(1, j)] = f2 * v[(2, j)] / ((j - 1) * lam)
                g = {1: mpmath.mpc(1)}
                for j in range(2, k + 1):
                    g[j] = -sum(g[m] * v[(m, j)] for m in range(1, j))
                    rel = abs(mpmath.mpc(complex(blocks[(1, j)][0, 0])) - g[j]) / abs(g[j])
                    assert rel <= 4 * j * 2.0**-53, (seed, j, float(rel))

    def test_builds_no_v(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("V built for V^-1")

        monkeypatch.setattr(nonresonant, "build_v_blocks", refuse)
        lams, f2t = self._data()
        w = build_vinv_blocks(lams, f2t, 4)
        assert sorted(w) == [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]

    def _data(self, seed=1):
        rng = np.random.default_rng(seed)
        lams = np.array([-1.1 + 0.3j, -2.4 - 0.6j])
        f2t = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        return lams, f2t

    def test_one_layer_is_negated_forward_block(self):
        lams, f2t = self._data()
        v = build_v_blocks(lams, f2t, 2)
        w = build_vinv_blocks(lams, f2t, 2)
        assert np.allclose(w[(1, 2)], -v[(1, 2)], atol=1e-13)

    def test_explicit_13_formula(self):
        lams, f2t = self._data(2)
        oracle = _paper_vinv_13(lams, f2t)
        for build in (build_vinv_blocks, vinv_blocks_by_forest):
            w = build(lams, f2t, 3)
            assert np.abs(w[(1, 3)] - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_explicit_24_five_forest_formula(self):
        lams, f2t = self._data(3)
        oracle = _paper_vinv_24(lams, f2t)
        for build in (build_vinv_blocks, vinv_blocks_by_forest):
            w = build(lams, f2t, 4)
            assert np.abs(w[(2, 4)] - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_methods_agree(self):
        # production (compositional inverse) against the per-tree forest oracle
        for n, k in [(1, 8), (2, 4), (2, 6), (3, 5)]:
            rng = np.random.default_rng(4 + 10 * n + k)
            lams = -rng.uniform(0.5, 3.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
            f2t = rng.standard_normal((n, n * n)) + 1j * rng.standard_normal((n, n * n))
            w = build_vinv_blocks(lams, f2t, k)
            oracle = strictly_upper(vinv_blocks_by_forest(lams, f2t, k))
            assert sorted(w) == sorted(oracle)
            for key, block in oracle.items():
                scale = np.abs(block).max()
                assert np.abs(w[key] - block).max() <= 1e-12 * scale, (n, k, key)

    def test_block_product_is_identity(self):
        lams, f2t = self._data(5)
        k = 4
        n = 2
        v = with_identities(build_v_blocks(lams, f2t, k), n, k)
        w = with_identities(build_vinv_blocks(lams, f2t, k), n, k)
        for i in range(1, k + 1):
            for j in range(i, k + 1):
                acc = np.zeros((n**i, n**j), dtype=complex)
                for m in range(i, j + 1):
                    acc += v[(i, m)] @ w[(m, j)]
                target = np.eye(n**i) if i == j else 0.0
                assert np.abs(acc - target).max() <= 1e-10

    def test_scalar_forest_bound_beats_factorial_path_bound(self):
        a, b = -1.0, 0.6
        k = 8
        w = build_vinv_blocks(np.array([a]), np.array([[b]]), k)
        for j in range(2, k + 1):
            bound = (4 * abs(b) / abs(a)) ** (j - 1)
            assert abs(w[(1, j)][0, 0]) <= bound

    def test_resonant_spectrum_raises(self):
        # lambda_2 = 2 lambda_1 makes the order-2 denominator vanish
        lams = np.array([-1.0 + 0j, -2.0 + 0j])
        f2t = np.ones((2, 4), dtype=complex)
        with pytest.raises(ResonantDenominatorError):
            build_vinv_blocks(lams, f2t, 3)

    def test_method_argument_rejected(self):
        lams, f2t = self._data()
        with pytest.raises(TypeError):
            build_vinv_blocks(lams, f2t, 3, method="forest")
        with pytest.raises(TypeError):
            build_vinv_blocks(lams, f2t, 3, "backsubstitution")


class TestShiftApply:
    @pytest.mark.parametrize("n,level", [(1, 6), (2, 5), (3, 4), (4, 3)])
    def test_matches_lift_block_from_both_sides(self, n, level):
        rng = np.random.default_rng(50 + n)
        f2 = rng.standard_normal((n, n * n)) + 1j * rng.standard_normal((n, n * n))
        sys = QuadraticSystem(f0=np.zeros(n), f1=np.eye(n), f2=f2)
        upper = build_blocks(sys, level).block_upper(level)
        x, y = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for shape in ((n ** (level + 1), 3), (2, n**level))
        )
        for got, expected in (
            (_shift_apply(f2, x, n, level), upper @ x),
            (_shift_apply(f2.T, y.T, n, level).T, y @ upper),
        ):
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


    @pytest.mark.parametrize("n,level", [(1, 6), (2, 5), (3, 1), (3, 4), (3, 5), (4, 3)])
    def test_dense_block_equals_apply_to_identity(self, n, level):
        rng = np.random.default_rng(60 + n)
        f2 = rng.standard_normal((n, n * n)) + 1j * rng.standard_normal((n, n * n))
        dense = _shift_block(f2, n, level)
        identity = np.eye(n ** (level + 1), dtype=complex)
        assert dense.tobytes() == _shift_apply(f2, identity, n, level).tobytes()
        sys = QuadraticSystem(f0=np.zeros(n), f1=np.eye(n), f2=f2)
        upper = build_blocks(sys, level + 1).block_upper(level).toarray()
        assert np.abs(dense - upper).max() <= 1e-14 * np.abs(upper).max()


class TestDiagonalize:
    def test_linear_system_trivial_transform(self):
        sys = QuadraticSystem(
            f0=np.zeros(2), f1=np.diag([-1.0, -2.5]), f2=np.zeros((2, 4))
        )
        diag = diagonalize_carleman(sys, 3)
        assert list(diag.v_blocks) == [(1, 2), (1, 3), (2, 3)]
        for block in diag.v_blocks.values():
            assert np.count_nonzero(block) == 0
        d = level_sums(diag.eigenvalues, 2)
        assert np.allclose(d, [-2.0, -3.5, -3.5, -5.0])

    def test_second_layer_structure(self):
        sys = random_poincare_system(6)
        diag = diagonalize_carleman(sys, 3)
        w2 = build_nl(diag.eigenvalues, 2) * diag.f2_tilde
        eye = np.eye(2)
        expected = np.kron(w2, eye) + np.kron(eye, w2)
        assert np.allclose(diag.v_blocks[(2, 3)], expected, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_three_dimensional_residuals(self, seed):
        sys = random_poincare_system(seed, n=3, f2_scale=0.03)
        diag = diagonalize_carleman(sys, 4)
        assert diag.residual <= 1e-10
        assert diag.inverse_residual <= 1e-10

    def test_block_independent_of_truncation_order(self):
        sys = random_poincare_system(9)
        small = diagonalize_carleman(sys, 3)
        large = diagonalize_carleman(sys, 5)
        for key, block in small.v_blocks.items():
            assert np.allclose(block, large.v_blocks[key], atol=1e-12)

    def test_ambient_block_transform(self):
        sys = random_poincare_system(10)
        diag = diagonalize_carleman(sys, 2)
        expected = np.kron(diag.q, np.array([[1.0]])) @ diag.v_blocks[(1, 2)]
        assert np.allclose(diag.ambient_v_block(1, 2), expected)

    @staticmethod
    def _dense_oracle(diag, v, w):
        """Dense ||A~ V - V D||_2 / ||A~||_2 and ||V W - I||_2 for blocks v, w."""
        n, k = diag.n, diag.k
        transformed = QuadraticSystem(
            f0=np.zeros(n), f1=np.diag(diag.eigenvalues), f2=diag.f2_tilde
        )
        a = assemble_dense(build_blocks(transformed, k))
        offsets = np.cumsum([0] + [n**j for j in range(1, k + 1)])
        dense = []
        for blocks in (v, w):
            out = np.zeros_like(a)
            for (i, j), b in with_identities(blocks, n, k).items():
                out[offsets[i - 1] : offsets[i], offsets[j - 1] : offsets[j]] = b
            dense.append(out)
        dv, dw = dense
        d = np.concatenate([level_sums(diag.eigenvalues, j) for j in range(1, k + 1)])
        similarity = np.linalg.norm(a @ dv - dv * d[None, :], 2) / np.linalg.norm(a, 2)
        inverse = np.linalg.norm(dv @ dw - np.eye(a.shape[0]), 2)
        return similarity, inverse

    @pytest.mark.parametrize("n,k", [(2, 5), (3, 4), (4, 3)])
    def test_blockwise_residuals_bound_dense_oracle(self, n, k):
        diag = diagonalize_carleman(random_poincare_system(20 + n, n=n), k)
        similarity, inverse = self._dense_oracle(diag, diag.v_blocks, diag.vinv_blocks)
        assert similarity <= diag.residual <= 1e-10
        # at roundoff level the blockwise and dense products of V W round
        # differently, so here both only have to be small
        assert max(inverse, diag.inverse_residual) <= 1e-10
        # a perturbation well above roundoff makes the inequalities exact
        rng = np.random.default_rng(n)

        def perturbed(blocks):
            return {
                key: b + 1e-7 * (rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape))
                for key, b in blocks.items()
            }

        v, w = perturbed(diag.v_blocks), perturbed(diag.vinv_blocks)
        blockwise = _blockwise_residuals(diag.eigenvalues, diag.f2_tilde, v, w, k)
        similarity, inverse = self._dense_oracle(diag, v, w)
        assert 1e-9 < similarity <= blockwise[0]
        assert 1e-9 < inverse <= blockwise[1]

    @pytest.mark.parametrize(
        "n,k", [(1, 10), (2, 7), (3, 6), (4, 4), (1, 1), (3, 1), (1, 2), (3, 2)]
    )
    def test_residuals_match_full_products_bitwise(self, n, k):
        # k = 1 stores no block; at k = 2 the first row of V needs V_(2,2) = I
        diag = diagonalize_carleman(random_poincare_system(40 + n, n=n), k)
        upper = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
        assert list(diag.v_blocks) == list(diag.vinv_blocks) == upper
        full = [with_identities(b, n, k) for b in (diag.v_blocks, diag.vinv_blocks)]
        expected = blockwise_residuals_full(diag.eigenvalues, diag.f2_tilde, *full)
        args = (diag.eigenvalues, diag.f2_tilde, diag.v_blocks, diag.vinv_blocks, k)
        assert _blockwise_residuals(*args) == expected
        assert (diag.residual, diag.inverse_residual) == expected

    def test_stores_no_diagonal_block(self):
        n, k = 3, 6
        diag = diagonalize_carleman(random_poincare_system(46, n=n), k)
        upper = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
        assert list(diag.v_blocks) == list(diag.vinv_blocks) == upper
        stored = sum(b.nbytes for f in (diag.v_blocks, diag.vinv_blocks) for b in f.values())
        # 16 bytes per complex entry, n^i x n^j entries per block: 9.5 MB
        assert stored == 2 * 16 * sum(n ** (i + j) for i, j in upper)

    def test_perturbed_transform_fails_the_check(self, monkeypatch, tmp_path):
        real = nonresonant.build_v_blocks

        def perturbed(*args, **kwargs):
            v = real(*args, **kwargs)
            v[(1, 2)][0, 0] += 1e-6
            return v

        monkeypatch.setattr(nonresonant, "build_v_blocks", perturbed)
        sys = random_poincare_system(30)
        assert diagonalize_carleman(sys, 4).residual > 1e-9
        path = tmp_path / "sys.json"
        path.write_text(system_to_json(sys))
        argv = ["diagonalize", "--system", str(path), "--x0", "0.1,0.1", "--k", "4"]
        assert cli_main([*argv, "--out", str(tmp_path / "out.json")]) == 2

    def test_builds_v_once(self, monkeypatch):
        calls = []
        real = nonresonant.build_v_blocks

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(nonresonant, "build_v_blocks", counting)
        diagonalize_carleman(random_poincare_system(31), 4)
        assert len(calls) == 1

    def test_no_dense_lift(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense lift requested")

        monkeypatch.setattr(carleman, "build_blocks", refuse)
        monkeypatch.setattr(carleman, "assemble_dense", refuse)
        monkeypatch.setattr(carleman.sp.csr_array, "toarray", refuse)
        diag = diagonalize_carleman(random_poincare_system(32, n=3), 3)
        assert diag.residual <= 1e-10 and diag.inverse_residual <= 1e-10

    def test_cap_refuses_before_any_block(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("blocks built before the cap check")

        monkeypatch.setattr(nonresonant, "build_v_blocks", refuse)
        monkeypatch.setattr(nonresonant, "build_vinv_blocks", refuse)
        sys = random_poincare_system(34, n=3)
        # full coordinates 3 + 9 + 27 + 81 = 120
        monkeypatch.setenv("CARLEMAN_LAB_CAP", "119")
        with pytest.raises(DimensionCapError) as err:
            diagonalize_carleman(sys, 4)
        assert (err.value.required, err.value.cap) == (120, 119)

    def test_order_nine(self):
        # lift dimension 2 + 4 + ... + 512 = 1022
        diag = diagonalize_carleman(random_poincare_system(33), 9)
        assert diag.residual <= 1e-10
        assert diag.inverse_residual <= 1e-10


class TestNormBounds:
    def test_scalar_margins(self):
        a, b = -1.0, 0.4
        sys = QuadraticSystem(f0=np.zeros(1), f1=[[a]], f2=[[b]])
        diag = diagonalize_carleman(sys, 8)
        report = norm_bounds_check(diag, delta_gap_poincare([a]))
        assert report["all_ok"]
        for row in report["rows"]:
            i, j = row["i"], row["j"]
            assert row["bound"] == pytest.approx(
                math.comb(j - 1, i - 1) * (4 * abs(b) / abs(a)) ** (j - i)
            )

    def test_zero_nonlinearity_trivial(self):
        sys = QuadraticSystem(
            f0=np.zeros(2), f1=np.diag([-1.0, -2.5]), f2=np.zeros((2, 4))
        )
        diag = diagonalize_carleman(sys, 3)
        report = norm_bounds_check(diag, 1.0)
        assert report["all_ok"] and report["sparsity"] == 1

    @pytest.mark.parametrize("seed", [3, 4])
    def test_random_fixture_margins_nonnegative(self, seed):
        sys = random_poincare_system(seed, f2_scale=0.05)
        diag = diagonalize_carleman(sys, 5)
        report = norm_bounds_check(diag, delta_gap_poincare(diag.eigenvalues))
        assert report["all_ok"]


class TestBlockNorm:
    @staticmethod
    def gram_inputs(monkeypatch):
        seen = []
        real = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            seen.append(np.array(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        return seen

    def test_identity_blocks_take_no_svd(self, monkeypatch):
        diag = diagonalize_carleman(random_poincare_system(8, n=3), 4)
        seen = self.gram_inputs(monkeypatch)
        report = norm_bounds_check(diag, delta_gap_poincare(diag.eigenvalues))
        # one Gram matrix per off-diagonal block, n^i x n^i for block (i, j)
        assert [a.shape for a in seen] == [
            (3**row["i"],) * 2 for row in report["rows"] if row["i"] < row["j"]
        ]
        diagonal = [row for row in report["rows"] if row["i"] == row["j"]]
        assert [(row["family"], row["i"]) for row in diagonal] == [
            (family, i) for i in range(1, 5) for family in ("v", "vinv")
        ]
        assert all(row["norm"] == row["bound"] == 1.0 for row in diagonal)

    def test_perturbed_identity_takes_gram_kernel(self, monkeypatch):
        block = np.eye(9, dtype=complex)
        block[4, 4] += 1e-12
        expected = np.linalg.norm(block, 2)
        seen = self.gram_inputs(monkeypatch)
        got = block_norm(block)
        assert got != 1.0 and got == pytest.approx(expected, rel=1e-13, abs=0)
        assert [a.shape for a in seen] == [(9, 9)]

    @pytest.mark.parametrize("n,k", [(1, 10), (2, 7), (3, 6), (4, 4)])
    def test_gram_norms_match_svd(self, n, k):
        diag = diagonalize_carleman(random_poincare_system(40 + n, n=n), k)
        for blocks in (diag.v_blocks, diag.vinv_blocks):
            for block in blocks.values():
                expected = np.linalg.norm(block, 2)
                assert block_norm(block) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_zero_block_is_zero(self):
        assert block_norm(np.zeros((3, 9), dtype=complex)) == 0.0

    @pytest.mark.parametrize("size", [1e-310, 1e-170, 1e170])
    def test_extreme_entries_match_svd(self, size):
        # unscaled, the Gram entries would underflow (1e-340) or overflow
        rng = np.random.default_rng(7)
        block = size * (rng.standard_normal((9, 27)) + 1j * rng.standard_normal((9, 27)))
        expected = np.linalg.norm(block, 2)
        assert np.isfinite(expected) and expected > 0
        assert block_norm(block) == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("n,k", [(2, 5), (3, 4)])
    @pytest.mark.parametrize("domain", [POINCARE, SIEGEL])
    def test_cli_norms_match_svd_of_every_block(self, tmp_path, n, k, domain):
        sys = random_poincare_system(5, n=n)
        if domain == SIEGEL:
            # one unstable mode: norms are reported without bounds
            sys = QuadraticSystem(
                f0=sys.f0, f1=np.diag([0.7, -1.0, -0.41][:n]), f2=sys.f2
            )
        text = system_to_json(sys)
        sys_file = tmp_path / "sys.json"
        sys_file.write_text(text)
        out = tmp_path / "diag.json"
        x0 = ",".join(["0.1"] * n)
        argv = ["diagonalize", "--system", str(sys_file), "--x0", x0, "--k", str(k)]
        assert cli_main([*argv, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        diag = diagonalize_carleman(system_from_json(text), k)
        for key, blocks in (("blocks", diag.v_blocks), ("inverse_blocks", diag.vinv_blocks)):
            assert len(data[key]) == len(blocks) + k
            for i in range(1, k + 1):
                assert data[key][f"{i},{i}"]["norm"] == 1.0
            for (i, j), block in blocks.items():
                row = data[key][f"{i},{j}"]
                expected = float(np.linalg.norm(block, 2))
                assert row["norm"] == pytest.approx(expected, rel=1e-13, abs=0)
                assert (row["bound"] is None) == (domain == SIEGEL)
        # without a no-resonance gap the file has no gap-derived fields
        assert ("delta" in data and "sparsity" in data) == (domain != SIEGEL)


class TestRBigDelta:
    def test_zero_nonlinearity(self):
        sys = QuadraticSystem(
            f0=np.zeros(2), f1=np.diag([-1.0, -2.5]), f2=np.zeros((2, 4))
        )
        assert r_big_delta(sys, 1.0, 1.0) == 0.0

    def test_scalar_value(self):
        sys = QuadraticSystem(f0=np.zeros(1), f1=[[-1.0]], f2=[[0.01]])
        assert r_big_delta(sys, 1.0, 1.0) == pytest.approx(0.08)

    def test_threshold(self):
        sys = random_poincare_system(12)
        from carleman_lab.linalg import eig

        dec = eig(sys.f1)
        f2t = dec.inverse_vectors @ sys.f2 @ np.kron(dec.right_vectors, dec.right_vectors)
        delta = delta_gap_poincare(dec.eigenvalues)
        s = column_sparsity(f2t)
        x_max = 0.9
        val = r_big_delta(sys, x_max, delta)
        assert (val < 1) == (8 * s * np.linalg.norm(f2t, 2) * x_max < delta)

    def test_siegel_rejected(self):
        sys = QuadraticSystem(f0=np.zeros(2), f1=np.diag([1j, -1j]), f2=np.zeros((2, 4)))
        with pytest.raises(NotPoincareError):
            r_big_delta(sys, 1.0, 1.0)


class TestErrorBoundFormula:
    def test_first_block_form(self):
        val = nonresonant_error_bound(1, 5, 2.0, 1.3, 0.2, 0.8, 0.5)
        assert val == pytest.approx(5 * 2.0 * 1.3 * 0.2 * 0.8**2 * 0.5**4)

    def test_split_variant_carries_sqrt2(self):
        base = nonresonant_error_bound(2, 5, 1.0, 1.0, 0.1, 0.5, 0.3)
        split = nonresonant_error_bound(2, 5, 1.0, 1.0, 0.1, 0.5, 0.3, "siegel_split")
        assert split == pytest.approx(base * math.sqrt(2))

    def test_uncertified_rejected(self):
        with pytest.raises(UncertifiedError):
            nonresonant_error_bound(1, 5, 1.0, 1.0, 0.1, 0.5, 1.2)

    def test_certified_scalar_measured_below_bound(self):
        sys = QuadraticSystem(f0=np.zeros(1), f1=[[-1.0]], f2=[[0.05]])
        cert = certify_poincare(sys, [0.5], horizon=10.0)
        assert cert.certified
        from carleman_lab.carleman import error_profile

        prof = error_profile(sys, [0.5], 6, np.array([0.0, 2.0]), tol=1e-12)
        assert prof.block_norms[-1, 0] <= cert.error_bound(1, 6, 2.0)


class TestShiftOscillating:
    def _system(self):
        f2 = np.zeros((2, 4))
        f2[0, 3] = 0.05
        f2[1, 0] = 0.04
        return QuadraticSystem(f0=np.zeros(2), f1=np.diag([0.5j, -0.5j]), f2=f2)

    def test_band_and_gap(self):
        sys = self._system()
        omega = 2.0
        shifted = shift_oscillating_f2(sys, omega)
        lams = np.linalg.eigvals(shifted.shifted.f1)
        assert np.all(lams.imag >= 3 * omega / 4 - 1e-10)
        assert np.all(lams.imag <= 5 * omega / 4 + 1e-10)
        assert delta_gap_poincare(lams) >= omega / 4 - 1e-10

    def test_round_trip_against_nonautonomous_solve(self):
        sys = self._system()
        omega = 2.0
        shifted = shift_oscillating_f2(sys, omega)
        x0 = np.array([0.4, 0.3])
        times = np.linspace(0, 5, 11)
        direct = integrate_nonautonomous(
            lambda t, y: sys.f1 @ y + np.exp(1j * omega * t) * (sys.f2 @ np.kron(y, y)),
            x0,
            times,
            1e-12,
            1e-12,
        )
        auto = integrate_reference(shifted.shifted, x0, times, 1e-12, 1e-12)
        recovered = auto.states * np.exp(-1j * omega * times)[:, None]
        assert np.max(np.abs(recovered - direct.states)) <= 1e-7

    def test_frequency_too_small(self):
        from carleman_lab.errors import FrequencyTooSmallError

        with pytest.raises(FrequencyTooSmallError):
            shift_oscillating_f2(self._system(), 0.5)

    def test_infinite_frequency_refused(self):
        from carleman_lab.errors import WrongSignError

        with pytest.raises(WrongSignError, match="finite"):
            shift_oscillating_f2(self._system(), np.inf)


class TestSiegelType:
    def test_xi_at_zero(self):
        for nu in (-1.0, 0.0, 0.7, 2.0):
            assert xi_nu(nu, 0) == 1.0

    def test_poincare_spectrum_fits_nonpositive_exponent(self):
        fit = siegel_type_estimate([-1.0, -np.pi], order_cap=8)
        assert fit["nu"] <= 0
        # the fitted law holds on every enumerated order
        for m, g in zip(fit["orders"], fit["min_gaps"]):
            assert fit["c"] * (m - 1.0) ** (-fit["nu"]) <= g * (1 + 1e-12)

    def test_golden_ratio_small_denominators(self):
        phi = (1 + math.sqrt(5)) / 2
        # opposite-sign imaginary pair: classic Siegel small denominators
        fit = siegel_type_estimate([1j, -phi * 1j], order_cap=10)
        assert fit["nu"] > 0
        # same-sign pair is Poincare and its gaps grow instead
        assert classify_domain([1j, phi * 1j]) == POINCARE


class TestCertifiers:
    def test_poincare_route(self):
        sys = QuadraticSystem(f0=np.zeros(1), f1=[[-1.0]], f2=[[0.05]])
        cert = certify_poincare(sys, [0.5])
        assert cert.certified and cert.value < 1

    def test_siegel_split_route(self):
        f2 = np.zeros((2, 4), dtype=complex)
        f2[0, 0] = 0.02
        f2[1, 3] = 0.015
        sys = QuadraticSystem(f0=np.zeros(2), f1=np.diag([1j, -1j]), f2=f2)
        assert classify_domain([1j, -1j]) == SIEGEL
        split = find_siegel_split(np.array([1j, -1j]), f2)
        assert split == ([0], [1])
        cert = certify_siegel_split(sys, [0.3, 0.3])
        assert cert.certified and cert.variant == "siegel_split"
        assert not certify_poincare(sys, [0.3, 0.3]).certified

    def test_coupled_siegel_refused(self):
        f2 = np.zeros((2, 4), dtype=complex)
        f2[0, 1] = 0.02  # couples the two half-plane sectors
        sys = QuadraticSystem(f0=np.zeros(2), f1=np.diag([1j, -1j]), f2=f2)
        cert = certify_siegel_split(sys, [0.3, 0.3])
        assert not cert.certified

    def test_oscillating_route(self):
        f2 = np.zeros((2, 4))
        f2[0, 3] = 0.02
        f2[1, 0] = 0.02
        sys = QuadraticSystem(f0=np.zeros(2), f1=np.diag([0.4j, -0.4j]), f2=f2)
        cert = certify_oscillating(sys, [0.4, 0.4], omega=2.0)
        assert cert.certified and cert.omega == 2.0


class TestClassifySpectrum:
    def test_poincare_gets_gap_and_direction(self):
        cls = classify_spectrum([-1.0, -np.pi])
        assert cls.domain == POINCARE and cls.delta_gap > 0
        assert abs(abs(cls.separating_direction) - 1.0) <= 1e-12
        assert cls.siegel_type is None

    def test_siegel_gets_type_fit(self):
        phi = (1 + math.sqrt(5)) / 2
        cls = classify_spectrum([1j, -phi * 1j], order_cap=8)
        assert cls.domain == SIEGEL and cls.delta_gap is None
        c, nu = cls.siegel_type
        assert c > 0 and nu > 0

    def test_resonant_has_no_gap(self):
        cls = classify_spectrum([-1.0, -2.0])
        assert cls.resonant_tuples and cls.delta_gap is None


class TestFixedPointShift:
    def test_recentring_removes_drive(self):
        # scalar with equilibrium at x* = 2 of xdot = 1.2 - x + 0.2 x^2
        sys = QuadraticSystem(f0=[1.2], f1=[[-1.0]], f2=[[0.2]])
        shifted = shift_to_fixed_point(sys, [2.0])
        assert np.count_nonzero(shifted.f0) == 0
        assert shifted.f1[0, 0] == pytest.approx(-1.0 + 0.2 * 2 * 2)
        # the deviation dynamics match the original after recentring
        times = np.linspace(0, 4, 9)
        orig = integrate_reference(sys, [1.0], times, 1e-12, 1e-12)
        dev = integrate_reference(shifted, [-1.0], times, 1e-12, 1e-12)
        assert np.max(np.abs(dev.states[:, 0] + 2.0 - orig.states[:, 0])) <= 1e-9

    def test_non_equilibrium_rejected(self):
        sys = QuadraticSystem(f0=[1.2], f1=[[-1.0]], f2=[[0.2]])
        with pytest.raises(ValueError):
            shift_to_fixed_point(sys, [1.0])
