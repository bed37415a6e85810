import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from carleman_lab import carleman, linalg, nonresonant
from carleman_lab.carleman import assemble_dense, build_blocks
from carleman_lab.cli import main as cli_main
from carleman_lab.errors import (
    CapExceededError,
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
    NonresonantCertificate,
    block_norm,
    build_nl,
    build_v_blocks,
    build_vinv_blocks,
    _blockwise_residuals,
    _multiset_gaps,
    _nonresonant_gap,
    _overflow_unit,
    _shift_apply,
    _shift_block,
    certify_oscillating,
    certify_poincare,
    certify_siegel_split,
    classify_domain,
    delta_gap_poincare,
    diagonalize_carleman,
    find_siegel_split,
    level_sums,
    norm_bounds_check,
    shift_oscillating_f2,
)
from carleman_lab.jsonio import system_from_json, system_to_json
from carleman_lab.linalg import column_sparsity, multiset_rows, origin_hull_status
from carleman_lab.carleman import integrate_nonautonomous
from carleman_lab.system import QuadraticSystem, integrate_reference
from forest_oracle import (
    blockwise_residuals_full,
    map_blocks_by_kron,
    v_blocks_by_composition,
    vinv_blocks_by_composition,
    vinv_blocks_by_forest,
    strictly_upper,
    with_identities,
)
from gap_oracle import gap_by_loop, nonresonant_gaps_by_loop

# the module forms no value under np.errstate, so any overflow or invalid
# operation in it shows as a RuntimeWarning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def benchmark_diagonalize_systems(bench, seed):
    """(system, k) of every diagonalize request of the benchmark at ``seed``."""
    for index, (n, k) in enumerate(bench.DIAGONALIZE_CASES):
        f0, f1, f2, _x0 = bench.poincare_system(bench._rng(seed, index), n)
        yield QuadraticSystem(f0=f0, f1=f1, f2=f2), k


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
        # lambda_1 = 2 lambda_0 at order two; the message names the index
        with pytest.raises(ResonanceFoundError, match=r"^resonance at eigenvalue index 1$"):
            delta_gap_poincare([-1.0, -2.0])

    def test_incommensurate_pair_clean(self):
        ev = np.array([-1.0, -np.pi], dtype=complex)
        tables = [np.concatenate(list(multiset_rows(2, m))) for m in range(2, 9)]
        # one row per multiset: order m has m + 1 of them for two eigenvalues
        assert [len(rows) for rows in tables] == [m + 1 for m in range(2, 9)]
        assert all(np.all(_multiset_gaps(ev, rows) > 0) for rows in tables)
        assert _nonresonant_gap(ev, 8) == gap_by_loop(ev, 8) > 0

    def test_marginal_pair_resonant(self):
        # i = 2i + (-i) at order three
        with pytest.raises(ResonanceFoundError):
            _nonresonant_gap(np.array([1j, -1j]), 4)


def seeded_spectrum(bench, seed, n):
    """Eigenvalues of the benchmark's random Poincare-domain system of dimension n."""
    f0, f1, f2, _x0 = bench.poincare_system(np.random.default_rng([seed, n]), n)
    return QuadraticSystem(f0=f0, f1=f1, f2=f2).spectrum.dec.eigenvalues


def resonance_message(gap, ev, top) -> str:
    with pytest.raises(ResonanceFoundError) as info:
        gap(ev, top)
    return str(info.value)


class TestGapAgainstLoop:
    """The blockwise gap against the per-multiset loop it replaced (``gap_oracle``)."""

    # real parts -1 and -9.3: the separating bound needs order 11, so the
    # enumeration runs to order 10
    WIDE = np.array([-1.0, -9.3 + 0.4j, -4.1 - 0.2j])

    @pytest.mark.parametrize("n", range(2, 13))
    def test_order_gaps_and_delta_are_the_loops(self, monkeypatch, bench_workloads, n):
        for seed in (0, 1):
            ev = seeded_spectrum(bench_workloads, seed, n)
            ev = ev * _overflow_unit(ev)  # as delta_gap_poincare hands them on
            loop = list(nonresonant_gaps_by_loop(ev, 6))
            for total in range(2, 7):
                want = np.array([gaps for order, gaps in loop if order == total])
                got = _multiset_gaps(ev, np.concatenate(list(multiset_rows(n, total))))
                assert got.tobytes() == want.tobytes(), (seed, total)
            assert _nonresonant_gap(ev, 6) == gap_by_loop(ev, 6)
            delta = delta_gap_poincare(ev)
            monkeypatch.setattr(nonresonant, "_nonresonant_gap", gap_by_loop)
            assert delta_gap_poincare(ev) == delta
            monkeypatch.undo()

    def test_high_order_gaps_are_the_loops(self, monkeypatch):
        ev = self.WIDE * _overflow_unit(self.WIDE)
        for total in range(2, 13):
            want = np.array([g for order, g in nonresonant_gaps_by_loop(ev, 12) if order == total])
            got = _multiset_gaps(ev, np.concatenate(list(multiset_rows(3, total))))
            assert got.tobytes() == want.tobytes(), total
        delta = delta_gap_poincare(self.WIDE)
        tops = []

        def loop(ev, top):
            tops.append(top)
            return gap_by_loop(ev, top)

        monkeypatch.setattr(nonresonant, "_nonresonant_gap", loop)
        assert delta_gap_poincare(self.WIDE) == delta
        assert tops == [10]

    @pytest.mark.parametrize("total", [8, 9, 128, 129, 200])
    def test_long_multiset_sums_are_the_loops(self, total):
        # numpy sums more than 8 terms in unrolled lanes and splits past 128
        ev = np.array([-0.5 + 0.1j, -0.83 - 0.2j])
        want = np.array([g for order, g in nonresonant_gaps_by_loop(ev, total) if order == total])
        got = _multiset_gaps(ev, np.concatenate(list(multiset_rows(2, total))))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "lams,expected",
        [
            ([-1.0, -2.0], 1),  # order 2: 2 lambda_0 = lambda_1
            ([-3.0, -1.0], 0),  # order 3: 3 lambda_1 = lambda_0
            ([-1.0, -1.45 + 0.3j, -3.9 + 0.6j], 2),  # order 3: lambda_0 + 2 lambda_1
        ],
    )
    def test_resonance_messages_are_the_loops(self, lams, expected):
        ev = np.asarray(lams, dtype=complex)
        message = f"resonance at eigenvalue index {expected}"
        assert resonance_message(_nonresonant_gap, ev, 6) == message
        assert resonance_message(gap_by_loop, ev, 6) == message
        with pytest.raises(ResonanceFoundError, match=f"^{message}$"):
            delta_gap_poincare(lams)

    def test_resonance_in_a_later_block(self, monkeypatch):
        # the resonant multiset (0, 1, 1) is row 3 of order 3, in its second block of two
        ev = np.array([-1.0, -1.45 + 0.3j, -3.9 + 0.6j])
        monkeypatch.setattr(linalg, "MULTISET_BLOCK_ROWS", 2)
        blocks = list(multiset_rows(3, 3))
        assert [len(b) for b in blocks] == [2] * 5
        assert blocks[1][1].tolist() == [0, 1, 1]
        message = resonance_message(gap_by_loop, ev, 6)
        assert resonance_message(_nonresonant_gap, ev, 6) == message
        assert message == "resonance at eigenvalue index 2"

    def test_block_size_leaves_the_gap_unchanged(self, monkeypatch, bench_workloads):
        ev = seeded_spectrum(bench_workloads, 0, 5)
        delta = delta_gap_poincare(ev)
        monkeypatch.setattr(linalg, "MULTISET_BLOCK_ROWS", 7)
        assert delta_gap_poincare(ev) == delta

    def test_large_gap_memory_is_bounded(self, bench_workloads):
        # unchunked, the order-6 gaps alone are 177 100 x 20 complex entries (57 MB)
        ev = seeded_spectrum(bench_workloads, 0, 20)
        tracemalloc.start()
        try:
            delta = delta_gap_poincare(ev)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert delta > 0
        assert peak < 32 * 2**20


class TestClassifyDomain:
    def test_left_plane_cluster(self):
        assert classify_domain(origin_hull_status([-1.0, -2.0 + 1j, -1.0 - 1j])) == POINCARE

    def test_straddling_imaginary_axis(self):
        assert classify_domain(origin_hull_status([1j, -1j])) == SIEGEL

    def test_origin_on_hull(self):
        assert classify_domain(origin_hull_status([0.0, -1.0])) == BOUNDARY

    def test_near_real_spectrum_is_poincare(self):
        lams = [-1.1 + 1e-18j, -1.4 - 1e-18j, -1.7 + 1e-18j, -1.9 - 1e-18j]
        assert classify_domain(origin_hull_status(lams)) == POINCARE

    def test_origin_on_triangle_edge_stays_boundary(self):
        assert classify_domain(origin_hull_status([1j, -1j, -1.0])) == BOUNDARY

    def test_surrounded_origin_stays_siegel(self):
        assert classify_domain(origin_hull_status([1.0, -1.0 + 1j, -1.0 - 1j, 1e-18j])) == SIEGEL

    def test_same_sign_imaginary_pair_is_poincare(self):
        phi = (1 + math.sqrt(5)) / 2
        assert classify_domain(origin_hull_status([1j, phi * 1j])) == POINCARE


class TestDeltaGap:
    def test_scalar_value(self):
        assert delta_gap_poincare([-1.0]) == pytest.approx(1.0)

    def test_brute_force_cross_check(self):
        lams = np.array([-1.0, -np.pi])
        gap = delta_gap_poincare(lams)
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

    def test_hull_located_once(self, monkeypatch):
        lams = [-1.0 + 5j, -1.0 + 6j]
        expected = delta_gap_poincare(lams)
        calls = []
        real = nonresonant.origin_hull_status

        def counting(points):
            calls.append(points)
            return real(points)

        monkeypatch.setattr(nonresonant, "origin_hull_status", counting)
        assert delta_gap_poincare(lams) == expected
        assert len(calls) == 1

    def test_resonant_rejected(self):
        with pytest.raises(ResonanceFoundError):
            delta_gap_poincare([-1.0, -2.0])

    @staticmethod
    def wide_spectrum(n):
        # real parts from -1 to -19 take the enumeration to order 19
        return -np.linspace(1.0, 19.0, n) + 0.01j

    @staticmethod
    def refuse_enumeration(monkeypatch):
        def unreachable(*args):
            raise AssertionError("multisets enumerated before the count cap")

        monkeypatch.setattr(nonresonant, "multiset_rows", unreachable)

    def test_multiset_count_refused_before_enumerating(self, monkeypatch):
        count = sum(math.comb(10 + m - 1, m) for m in range(2, 20))
        assert 2.0e7 < count <= nonresonant.GAP_MAX_MULTISETS
        monkeypatch.setattr(nonresonant, "GAP_MAX_MULTISETS", count - 1)
        self.refuse_enumeration(monkeypatch)
        with pytest.raises(CapExceededError, match=f"needs {count} multisets > {count - 1}"):
            delta_gap_poincare(self.wide_spectrum(10))

    def test_wide_spectrum_of_twenty_refused_at_once(self, monkeypatch):
        count = sum(math.comb(20 + m - 1, m) for m in range(2, 20))
        assert count > 6.8e10
        self.refuse_enumeration(monkeypatch)
        with pytest.raises(CapExceededError, match=f"needs {count} multisets"):
            delta_gap_poincare(self.wide_spectrum(20))

    def test_count_cap_drops_gap_and_bounds_from_diagonalize(self, tmp_path, monkeypatch):
        monkeypatch.setattr(nonresonant, "GAP_MAX_MULTISETS", 0)
        out = tmp_path / "d.json"
        argv = ["diagonalize", "--fixture", "scalar", "--param", "a=-1", "--param", "b=0.5"]
        assert cli_main([*argv, "--k", "3", "--out", str(out)]) == 0
        dump = json.loads(out.read_text())
        assert "delta" not in dump and "sparsity" not in dump
        bounds = [b["bound"] for family in ("blocks", "inverse_blocks")
                  for b in dump[family].values()]
        assert len(bounds) == 12 and all(b is None for b in bounds)

    def test_count_cap_is_an_input_error_of_certify(self, capsys, monkeypatch):
        monkeypatch.setattr(nonresonant, "GAP_MAX_MULTISETS", 0)
        argv = ["certify", "--fixture", "scalar", "--param", "a=-1", "--param", "b=0.5"]
        assert cli_main([*argv, "--all"]) == 1
        assert "input error: gap enumeration needs 5 multisets > 0" in capsys.readouterr().err


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


class TestOverflowSafeLevelSums:
    """V, V^-1 and the residuals are formed on eigenvalues and F2~ scaled by one power of two."""

    def test_finite_denominators_are_formed_unscaled(self):
        rng = np.random.default_rng(3)
        lams = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for l in (2, 3, 4):
            want = 1.0 / (level_sums(lams, l)[None, :] - lams[:, None])
            assert build_nl(lams, l).tobytes() == want.tobytes()

    @staticmethod
    def transforms(lams, f2t, k):
        v, w = build_v_blocks(lams, f2t, k), build_vinv_blocks(lams, f2t, k)
        return v, w, _blockwise_residuals(lams, f2t, v, w, k)

    @staticmethod
    def assert_bitwise(got, want):
        (v, w, residuals), (v0, w0, residuals0) = got, want
        assert residuals == residuals0
        for blocks, blocks0 in ((v, v0), (w, w0)):
            assert list(blocks) == list(blocks0)
            assert all(blocks[key].tobytes() == blocks0[key].tobytes() for key in blocks0)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_scaled_benchmark_transforms_are_bitwise(self, bench_workloads, seed):
        # V, V^-1 and the residual depend only on F2~ / lambda.  At 2^-1000
        # the roundoff-level entries of F2~ (about 1e-19) turn subnormal and
        # lose bits, so the scaled inputs are compared with their own values
        # scaled back, which are the unscaled ones wherever nothing is lost
        for sys, k in benchmark_diagonalize_systems(bench_workloads, seed):
            lams, f2t = sys.spectrum.dec.eigenvalues, sys.spectrum.f2_tilde
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for e in (-1000, -600, 600, 1000):
                    unit = 2.0**e
                    scaled = (lams * unit, f2t * unit)
                    held = [a / unit for a in scaled]
                    if e != -1000:
                        assert all(map(np.array_equal, held, (lams, f2t)))
                    self.assert_bitwise(
                        self.transforms(*scaled, k), self.transforms(*held, k)
                    )

    def test_subnormal_spectrum_builds(self):
        # lambda and F2~ at 2^-1040 are subnormal: they keep about 34 and
        # 27 bits, and the transforms are those of the quantized inputs
        lams = np.array([-1.0, -0.7])
        f2t = np.array([[0.1, 0.02, 0.03, 0.2], [0.01, 0.2, 0.05, 0.01]])
        k, unit = 4, 2.0**-1040
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = self.transforms(lams * unit, f2t * unit, k)
            self.assert_bitwise(
                tiny, self.transforms(lams * unit / unit, f2t * unit / unit, k)
            )
            v, _w, _residuals = self.transforms(lams, f2t, k)
        for key, block in v.items():
            assert np.allclose(tiny[0][key], block, rtol=1e-6, atol=0)

    def test_resonance_past_the_largest_double_exits_4(self, tmp_path):
        # eigenvalues +-sqrt(2) 1e308 resonate at order 3: c + c - c = c
        c = 1e308
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(system_to_json(
            QuadraticSystem(f0=np.zeros(2), f1=[[c, c], [c, -c]], f2=np.zeros((2, 4)))
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(["diagonalize", "--system", str(sys_path), "--x0", "0.1,0.1",
                             "--out", str(tmp_path / "d.json")])
        assert code == 4

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_gap_of_huge_benchmark_spectra_scales_exactly(self, bench_workloads, seed):
        # the hull test squares coordinates past the largest double at 2^1020
        for sys, _k in benchmark_diagonalize_systems(bench_workloads, seed):
            ev = sys.spectrum.dec.eigenvalues
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert delta_gap_poincare(ev * 2.0**1020) == 2.0**1020 * delta_gap_poincare(ev)

    def test_spectrum_near_the_largest_double_diagonalizes(self, tmp_path):
        sys_path = tmp_path / "sys.json"
        f2 = [[0.01, 0.05, 0.02, 0.1], [0.03, 0.04, 0.06, 0.08]]
        sys_path.write_text(system_to_json(
            QuadraticSystem(f0=np.zeros(2), f1=np.diag([-1e308, -0.7e308]), f2=f2)
        ))
        out = tmp_path / "d.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(["diagonalize", "--system", str(sys_path), "--x0", "0.1,0.1",
                             "--k", "3", "--out", str(out)])
        assert code == 0
        # the gap of diag(-1, -0.7), 0.4 at order 2, scaled back
        assert json.loads(out.read_text())["delta"] == pytest.approx(0.4e308, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_gap_of_tiny_benchmark_spectra_scales_exactly(self, bench_workloads, seed):
        for sys, _k in benchmark_diagonalize_systems(bench_workloads, seed):
            ev = sys.spectrum.dec.eigenvalues
            for e in (-100, -600, -1000):
                assert delta_gap_poincare(ev * 2.0**e) == 2.0**e * delta_gap_poincare(ev)

    @pytest.mark.parametrize("e", [-100, -300, -500, -800, -1000])
    def test_small_spectrum_keeps_its_gap(self, e):
        # the hull test's slacks are absolute 1e-12; the unit lifts them to scale
        lams = np.array([-1.0, -0.7])
        assert delta_gap_poincare(lams * 2.0**e) == 2.0**e * delta_gap_poincare(lams)
        assert delta_gap_poincare(lams * 2.0**e) == pytest.approx(0.4 * 2.0**e, rel=1e-12)

    def test_small_system_diagonalize_reports_gap_and_bounds(self, tmp_path):
        unit = 2.0**-100
        f2 = unit * np.array([[0.01, 0.05, 0.02, 0.1], [0.03, 0.04, 0.06, 0.08]])
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(system_to_json(
            QuadraticSystem(f0=np.zeros(2), f1=unit * np.diag([-1.0, -0.7]), f2=f2)
        ))
        out = tmp_path / "d.json"
        code = cli_main(["diagonalize", "--system", str(sys_path), "--x0", "0.1,0.1",
                         "--k", "3", "--out", str(out)])
        assert code == 0
        dump = json.loads(out.read_text())
        assert dump["delta"] == pytest.approx(0.4 * unit, rel=1e-12)
        bounds = [b["bound"] for family in ("blocks", "inverse_blocks")
                  for b in dump[family].values()]
        assert len(bounds) == 12 and all(b is not None for b in bounds)

    @pytest.mark.parametrize("scale", [5e-11, 1e-13])
    def test_small_spectrum_keeps_its_sign_check(self, scale):
        # a positive real part far below 1e-10 is still positive at this scale
        f2 = 1e-30 * np.ones((2, 4))
        unstable = QuadraticSystem(f0=np.zeros(2), f1=scale * np.diag([1.0, 0.7]), f2=f2)
        cert = certify_poincare(unstable, [0.1, 0.1])
        assert not cert.certified and cert.reason == "some eigenvalue has positive real part"
        stable = QuadraticSystem(f0=np.zeros(2), f1=-scale * np.diag([1.0, 0.7]), f2=f2)
        cert = certify_poincare(stable, [0.1, 0.1])
        assert cert.certified and cert.delta == pytest.approx(0.4 * scale, rel=1e-12)

    def test_residual_of_tiny_spectrum_is_the_unit_one(self):
        # unscaled, residual entries near 1e-317 square to zero in the norm
        lams, f2t = np.array([-1.0, -0.7]), np.array([[0.1, 0.02, 0.03, 0.2], [0.01, 0.2, 0.05, 0.01]])
        k = 4

        def residual(scale):
            l, f = lams * scale, f2t * scale
            v, w = build_v_blocks(l, f, k), build_vinv_blocks(l, f, k)
            return _blockwise_residuals(l, f, v, w, k)[0]

        base = residual(1.0)
        assert base > 0
        assert residual(2.0**-1000) == base

    def test_residual_scale_stays_finite(self):
        lams, f2t = np.array([-1.0, -0.7]), np.array([[0.1, 0, 0.03, 0], [0, 0.2, 0, 0.01]])
        k = 4
        base = _blockwise_residuals(lams, f2t, build_v_blocks(lams, f2t, k),
                                    build_vinv_blocks(lams, f2t, k), k)
        for unit in (2.0**1021, 2.0**1023):  # level-4 sums reach 4 * 2^1023
            big_lams, big_f2t = lams * unit, f2t * unit
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                v = build_v_blocks(big_lams, big_f2t, k)
                w = build_vinv_blocks(big_lams, big_f2t, k)
                residual, inverse = _blockwise_residuals(big_lams, big_f2t, v, w, k)
            assert residual == pytest.approx(base[0], rel=0.01)
            assert inverse <= 1e-15


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

    @pytest.mark.parametrize("n,k", [(1, 10), (2, 7), (3, 6), (4, 4)])
    def test_identity_factors_match_kron_recursion(self, monkeypatch, n, k):
        rng = np.random.default_rng(50 + 10 * n + k)
        lams = -rng.uniform(0.5, 3.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
        f2t = rng.standard_normal((n, n * n)) + 1j * rng.standard_normal((n, n * n))
        builds = (build_v_blocks, build_vinv_blocks)
        family = [build(lams, f2t, k) for build in builds]
        monkeypatch.setattr(nonresonant, "_map_blocks", map_blocks_by_kron)
        for build, blocks in zip(builds, family):
            expected = build(lams, f2t, k)
            assert list(blocks) == list(expected)
            for key, block in expected.items():
                assert np.array_equal(blocks[key], block), (build.__name__, key)


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

    @pytest.mark.parametrize("n,k", [(1, 10), (2, 7), (3, 6), (4, 4)])
    def test_superdiagonal_is_negated_forward_block_exactly(self, n, k):
        # the inverse map's quadratic coefficient is -W_2, and negation
        # commutes exactly with every product and sum of the recursion; the
        # entries outside a Kronecker term's support are +0.0 in both
        rng = np.random.default_rng(60 + 10 * n + k)
        lams = -rng.uniform(0.5, 3.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
        f2t = rng.standard_normal((n, n * n)) + 1j * rng.standard_normal((n, n * n))
        v, w = build_v_blocks(lams, f2t, k), build_vinv_blocks(lams, f2t, k)
        for i in range(1, k):
            assert np.array_equal(w[(i, i + 1)], -v[(i, i + 1)]), i

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

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_carried_context_is_the_recomputed_one(self, bench_workloads, seed):
        for sys, k in benchmark_diagonalize_systems(bench_workloads, seed):
            diag = diagonalize_carleman(sys, k)
            assert diag.sparsity == column_sparsity(diag.f2_tilde)
            assert diag.f2_tilde_norm == np.linalg.norm(diag.f2_tilde, 2)


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
        # one n^i x n^i Gram matrix per off-diagonal V block (i, j), and one
        # per V^-1 block off the superdiagonal, where V^-1 is -V
        assert [a.shape for a in seen] == [
            (3**row["i"],) * 2
            for row in report["rows"]
            if row["i"] < row["j"] and (row["family"] == "v" or row["j"] > row["i"] + 1)
        ]
        diagonal = [row for row in report["rows"] if row["i"] == row["j"]]
        assert [(row["family"], row["i"]) for row in diagonal] == [
            (family, i) for i in range(1, 5) for family in ("v", "vinv")
        ]
        assert all(row["norm"] == row["bound"] == 1.0 for row in diagonal)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_benchmark_norms_equal_fresh_block_norms(self, monkeypatch, bench_workloads, seed):
        for sys, k in benchmark_diagonalize_systems(bench_workloads, seed):
            diag = diagonalize_carleman(sys, k)
            seen = self.gram_inputs(monkeypatch)
            report = norm_bounds_check(diag, delta_gap_poincare(diag.eigenvalues))
            # every superdiagonal V^-1 block reuses V's norm
            assert len(seen) == k * (k - 1) // 2 + (k - 1) * (k - 2) // 2
            for row in report["rows"]:
                if row["i"] < row["j"]:
                    blocks = diag.v_blocks if row["family"] == "v" else diag.vinv_blocks
                    assert row["norm"] == block_norm(blocks[(row["i"], row["j"])]), row
            monkeypatch.undo()

    def test_perturbed_inverse_block_takes_its_own_gram(self, monkeypatch):
        diag = diagonalize_carleman(random_poincare_system(8, n=3), 4)
        w = diag.vinv_blocks[(2, 3)].copy()
        w[4, 7] *= 1.0 + 2.0**-30
        perturbed = dataclasses.replace(diag, vinv_blocks={**diag.vinv_blocks, (2, 3): w})
        seen = self.gram_inputs(monkeypatch)
        norm_bounds_check(diag, None)
        reused = len(seen)
        rows = norm_bounds_check(perturbed, None)["rows"]
        assert len(seen) - reused == reused + 1
        row = next(r for r in rows if (r["family"], r["i"], r["j"]) == ("vinv", 2, 3))
        assert row["norm"] == block_norm(w)

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
    """R_Delta = 8 s ||F2~|| x_max~ / Delta, from the fields of certify_poincare's certificate."""

    @staticmethod
    def _formula(cert):
        return 8 * cert.sparsity * cert.f2_tilde_norm * cert.x_max_tilde / cert.delta

    def test_zero_nonlinearity(self):
        sys = QuadraticSystem(
            f0=np.zeros(2), f1=np.diag([-1.0, -2.5]), f2=np.zeros((2, 4))
        )
        cert = certify_poincare(sys, [0.5, 0.5])
        assert cert.value == 0.0 and cert.certified

    def test_scalar_value(self):
        sys = QuadraticSystem(f0=np.zeros(1), f1=[[-1.0]], f2=[[0.01]])
        cert = certify_poincare(sys, [0.5])
        assert cert.delta == pytest.approx(1.0) and cert.sparsity == 1
        assert cert.f2_tilde_norm == pytest.approx(0.01)
        assert cert.value == self._formula(cert)
        # the trajectory decays from 0.5, so x_max~ is 1.02 * 0.5
        assert cert.value == pytest.approx(0.08 * 0.51)

    def test_threshold(self):
        sys = random_poincare_system(12)
        from carleman_lab.linalg import eig

        dec = eig(sys.f1)
        f2t = dec.inverse_vectors @ sys.f2 @ np.kron(dec.right_vectors, dec.right_vectors)
        delta = delta_gap_poincare(dec.eigenvalues)
        s = column_sparsity(f2t)
        cert = certify_poincare(sys, [0.3, -0.2])
        assert cert.delta == delta and cert.sparsity == s
        assert cert.f2_tilde_norm == pytest.approx(np.linalg.norm(f2t, 2), rel=1e-12)
        assert cert.value == self._formula(cert)
        x_max = cert.x_max_tilde
        assert cert.certified == (8 * s * np.linalg.norm(f2t, 2) * x_max < delta)

    def test_siegel_rejected(self):
        sys = QuadraticSystem(f0=np.zeros(2), f1=np.diag([1j, -1j]), f2=np.zeros((2, 4)))
        cert = certify_poincare(sys, [1.0, 1.0])
        assert not cert.certified and cert.value == np.inf
        assert cert.reason == "spectrum does not lie in the Poincare domain"


class TestErrorBoundFormula:
    @staticmethod
    def _cert(q_norm, f2_tilde_norm, x_max_tilde, value, variant="poincare"):
        return NonresonantCertificate(
            variant=variant,
            value=value,
            certified=value < 1.0,
            x_max_tilde=x_max_tilde,
            q_norm=q_norm,
            f2_tilde_norm=f2_tilde_norm,
        )

    def test_first_block_form(self):
        val = self._cert(1.3, 0.2, 0.8, 0.5).error_bound(1, 5, 2.0)
        assert val == pytest.approx(5 * 2.0 * 1.3 * 0.2 * 0.8**2 * 0.5**4)

    def test_split_variant_carries_sqrt2(self):
        base = self._cert(1.0, 0.1, 0.5, 0.3).error_bound(2, 5, 1.0)
        split = self._cert(1.0, 0.1, 0.5, 0.3, "siegel_split").error_bound(2, 5, 1.0)
        assert split == pytest.approx(base * math.sqrt(2))

    def test_uncertified_rejected(self):
        with pytest.raises(UncertifiedError):
            self._cert(1.0, 0.1, 0.5, 1.2).error_bound(1, 5, 1.0)

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
        assert classify_domain(origin_hull_status([1j, -1j])) == SIEGEL
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
