"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s or -v to see
them); tolerances are pinned here, not configurable.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from carleman_lab import linalg
from carleman_lab.carleman import (
    assemble_dense,
    build_blocks,
    error_profile,
    initial_lift,
    integrate_lift,
    integrate_nonautonomous,
    split_blocks,
)
from carleman_lab.cli import main as cli_main
from carleman_lab.conservative import (
    certify_conservative,
    embed_driving,
    embed_polynomial_conserved,
)
from carleman_lab.fixtures import (
    conservative_ellipse_test,
    conservative_toy,
    damped_oscillator,
    oscillator_network,
    reduced_conservative_rp,
    subset_kinetic_energy,
    time_dep_toy,
    total_energy,
)
from carleman_lab.forests import (
    catalan,
    enumerate_forests,
    forest_count_bound,
    fusion_sum,
)
from carleman_lab.nonresonant import (
    build_v_blocks,
    build_vinv_blocks,
    certify_poincare,
    delta_gap_poincare,
    diagonalize_carleman,
    shift_oscillating_f2,
)
from carleman_lab.stability import optimize_rp, r_mu, r_p
from carleman_lab.system import (
    QuadraticSystem,
    integrate_reference,
    rescale,
)
from forest_oracle import strictly_upper, vinv_blocks_by_forest
from spectrum_helper import spectral_abscissa


def report(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_counterexample_regression():
    start = time.time()
    sys = QuadraticSystem(f0=[0.97], f1=[[-1.0]], f2=[[0.02]])
    assert abs(r_mu(sys, [0.99]) - 0.999598) <= 1e-5
    dense = assemble_dense(build_blocks(sys, 4))
    printed = np.array(
        [
            [-1.0, 0.02, 0.0, 0.0],
            [1.94, -2.0, 0.04, 0.0],
            [0.0, 2.91, -3.0, 0.06],
            [0.0, 0.0, 3.88, -4.0],
        ]
    )
    assert np.max(np.abs(dense - printed)) <= 1e-12
    assert linalg.log_norm(dense) > 0.012
    assert time.time() - start < 1.0
    report(1, "counterexample regression")


def test_criterion_02_transient_growth():
    start = time.time()
    f1 = np.array([[0.25, 1.0], [-1.0, -0.5]])
    assert abs(spectral_abscissa(f1) - (-0.125)) <= 1e-12
    assert np.linalg.norm(linalg.matrix_exp(f1, 1.0) @ np.array([1.0, 1.0])) >= 1.65
    assert time.time() - start < 1.0
    report(2, "transient growth")


def test_criterion_03_combinatorial_identities():
    start = time.time()
    for k in range(1, 9):
        assert fusion_sum(1, k) == catalan(k)
        for j in range(1, k + 1):
            closed = Fraction(j, k + 1) * math.comb(2 * k - j + 1, k - j + 1)
            assert fusion_sum(j, k) == closed
    assert len(enumerate_forests(2, 4)) == 5
    for j in range(1, 9):
        for i in range(1, j + 1):
            assert len(enumerate_forests(i, j)) <= forest_count_bound(i, j)
    assert time.time() - start < 30.0
    report(3, "combinatorial identities")


def _random_certified_poincare_system(seed, n):
    """Driftless diagonalizable system with Poincare spectrum and R_Delta < 1."""
    rng = np.random.default_rng(seed)
    lams = -rng.uniform(0.5, 3.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f1 = q @ np.diag(lams) @ np.linalg.inv(q)
    f2 = rng.standard_normal((n, n * n)) + 1j * rng.standard_normal((n, n * n))
    x0 = 0.2 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    sys = QuadraticSystem(f0=np.zeros(n), f1=f1, f2=0.01 * f2)
    cert = certify_poincare(sys, x0, horizon=5.0)
    # renormalize the quadratic strength so the gap-weighted R-number is 1/2
    scale = 0.5 / cert.value
    sys = QuadraticSystem(f0=np.zeros(n), f1=f1, f2=0.01 * scale * f2)
    cert = certify_poincare(sys, x0, horizon=5.0)
    assert cert.certified and cert.value < 1
    return sys, x0, cert


def test_criterion_04_diagonalization_correctness():
    start = time.time()
    cases = [(seed, 2, 5) for seed in range(10)] + [(seed, 3, 5) for seed in range(10)]
    for seed, n, k in cases:
        sys, _x0, _cert = _random_certified_poincare_system(seed, n)
        diag = diagonalize_carleman(sys, k)
        assert diag.residual <= 1e-9
        assert diag.inverse_residual <= 1e-9
        forest = strictly_upper(vinv_blocks_by_forest(diag.eigenvalues, diag.f2_tilde, k))
        assert sorted(forest) == sorted(diag.vinv_blocks)
        for key, block in diag.vinv_blocks.items():
            scale = max(np.abs(forest[key]).max(), 1.0)
            assert np.abs(block - forest[key]).max() <= 1e-9 * scale
    assert time.time() - start < 120.0
    report(4, "diagonalization correctness")


def test_criterion_05_scalar_exactness():
    a, b = -1.0, 0.6
    lams = np.array([a + 0j])
    f2t = np.array([[b + 0j]])
    v = build_v_blocks(lams, f2t, 10)
    for m in range(1, 10):
        assert abs(v[(m, m + 1)][0, 0] - m * b / a) <= 1e-14
    w = build_vinv_blocks(lams, f2t, 8)
    v8 = build_v_blocks(lams, f2t, 8)
    for j in range(1, 9):
        # the diagonal blocks are implicit identities, with norm 1 = bound
        for i in range(1, j):
            bound = math.comb(j - 1, i - 1) * (4 * abs(b) / abs(a)) ** (j - i)
            assert abs(v8[(i, j)][0, 0]) <= bound
            assert abs(w[(i, j)][0, 0]) <= bound
    report(5, "scalar block exactness and bounds")


STABLE_POINTS = [(1.5, 0.1), (1.0, 0.05), (1.8, 0.12), (1.2, 0.08), (2.0, 0.15)]


def test_criterion_06_stable_family_bounds():
    start = time.time()
    oracle_tol = 1e-12
    slack = 10 * oracle_tol
    for r, n in STABLE_POINTS:
        fx = damped_oscillator(r=r, n=n)
        cert = optimize_rp(fx.system, fx.x0, budget=800)
        assert cert.certified, (r, n)
        resc = rescale(fx.system, cert.gamma)
        x0_resc = cert.gamma * fx.x0
        times = np.array([0.0, 1.0, 2.0, 5.0])
        ref = integrate_reference(resc, x0_resc, times, oracle_tol, oracle_tol)
        errs_at_2 = []
        for k in range(3, 8):
            prof = error_profile(
                resc, x0_resc, k, times, tol=oracle_tol, reference=ref
            )
            for row, t in enumerate(times[1:], start=1):
                assert prof.block_norms[row, 0] <= cert.error_bound(
                    1, k, float(t)
                ) + slack
            errs_at_2.append(prof.block_norms[2, 0])
        clean = [e for e in errs_at_2 if e > slack]
        assert all(x > y for x, y in zip(clean, clean[1:]))
        if len(clean) >= 2:
            ratio = np.exp(np.polyfit(range(len(clean)), np.log(clean), 1)[0])
            assert ratio < 1
    assert time.time() - start < 300.0
    report(6, "stable-family error bounds")


CONSERVATIVE_POINTS = [
    (0.01, 0.01, 0.5, 0.0),
    (0.02, 0.015, 0.4, 0.1),
    (0.05, 0.02, 0.3, 0.0),
    (0.03, 0.05, 0.5, 0.2),
    (0.2, 0.05, 0.3, 0.0),
]


def test_criterion_07_conservative_family_bounds():
    start = time.time()
    for a, b, x1, x2 in CONSERVATIVE_POINTS:
        fx = conservative_toy(a=a, b=b, x1=x1, x2=x2)
        cert = certify_conservative(fx.system, fx.x0, horizon=20.0)
        assert cert.certified, (a, b, x1, x2)
        gamma = cert.gamma
        resc = rescale(fx.system, gamma)
        times = np.array([0.0, 1.0, 2.0, 5.0])
        ref = integrate_reference(resc, gamma * fx.x0, times, 1e-12, 1e-12)
        for k in range(3, 8):
            prof = error_profile(
                resc, gamma * fx.x0, k, times, tol=1e-12, reference=ref
            )
            for j in range(1, k + 1):
                assert prof.block_norms[:, j - 1].max() <= cert.error_bound(
                    j, k, float(times[-1])
                )
    # complementarity of the two criteria at the reference point
    assert certify_conservative(
        conservative_toy(0.2, 0.05, 0.3, 0.0).system,
        np.array([0.3, 0.0]),
        horizon=20.0,
    ).certified
    assert reduced_conservative_rp(0.2, 0.05, 0.3, 0.0) >= 1
    # ellipse test agrees with the reduced criterion away from its boundary
    for x1 in np.linspace(0.1, 6.0, 30):
        for x2 in np.linspace(0.1, 22.0, 30):
            rp = reduced_conservative_rp(0.2, 0.05, x1, x2)
            if abs(rp - 1.0) < 1e-3:
                continue
            assert conservative_ellipse_test(0.2, 0.05, x1, x2) == (rp < 1.0)
    assert time.time() - start < 300.0
    report(7, "conservative-family error bounds")


def test_criterion_08_nonresonant_bounds():
    for seed in range(5):
        sys, x0, cert = _random_certified_poincare_system(seed + 100, 2)
        times = np.array([0.0, 0.5, 1.0, 2.0])
        ref = integrate_reference(sys, x0, times, 1e-12, 1e-12)
        for k in range(3, 8):
            prof = error_profile(sys, x0, k, times, tol=1e-12, reference=ref)
            for row, t in enumerate(times[1:], start=1):
                bound = cert.error_bound(1, k, float(t))
                assert prof.block_norms[row, 0] <= bound + 1e-11
    report(8, "nonresonant error bounds")


def test_criterion_09_embedding_fidelity():
    start = time.time()
    times = np.linspace(0.0, 5.0, 26)
    # driving embedding
    driven = QuadraticSystem(f0=[0.3], f1=[[-1.0]], f2=[[0.1]])
    emb = embed_driving(driven, upsilon=1.5, gamma=0.8)
    ext = integrate_reference(emb.extended, emb.lift_state([0.5]), times, 1e-12, 1e-12)
    direct = integrate_reference(driven, [0.5], times, 1e-12, 1e-12)
    assert np.max(np.abs(ext.states[:, 0] - direct.states[:, 0])) <= 1e-7
    assert np.max(np.abs(np.abs(ext.states[:, 1]) - 0.8 * 1.5)) <= 1e-10
    # Fourier-mode embedding
    fx = time_dep_toy(a=0.05, c1=0.1, omega1=2.0, b1=0.0, x0=0.25)
    emb_traj = integrate_reference(fx.system, fx.x0, times, 1e-12, 1e-12)
    modes = fx.extras["modes"]
    nonaut = integrate_nonautonomous(
        lambda t, y: modes.rhs(t, y), fx.extras["x0_original"], times, 1e-12, 1e-12
    )
    assert np.max(np.abs(emb_traj.states[:, 0] - nonaut.states[:, 0])) <= 1e-7
    moduli = np.abs(emb_traj.states[:, 1])
    assert np.max(np.abs(moduli - moduli[0])) <= 1e-10
    # quadratic-observable lift
    rng = np.random.default_rng(4)
    base = QuadraticSystem(
        f0=np.zeros(2),
        f1=[[0.0, 1.0], [-1.0, -0.4]],
        f2=0.05 * rng.standard_normal((2, 4)),
    )
    lift = embed_polynomial_conserved(base)
    x0 = np.array([0.4, -0.2])
    lifted = integrate_reference(lift.lifted, lift.lift_state(x0), times, 1e-12, 1e-12)
    direct = integrate_reference(base, x0, times, 1e-12, 1e-12)
    assert np.max(np.abs(lifted.states[:, :2] - direct.states)) <= 1e-7
    # oscillating-term shift
    f2 = np.zeros((2, 4))
    f2[0, 3] = 0.05
    f2[1, 0] = 0.04
    osc = QuadraticSystem(f0=np.zeros(2), f1=np.diag([0.5j, -0.5j]), f2=f2)
    omega = 2.0
    shifted = shift_oscillating_f2(osc, omega)
    lams = np.linalg.eigvals(shifted.shifted.f1)
    assert np.all(lams.imag >= 3 * omega / 4 - 1e-10)
    assert np.all(lams.imag <= 5 * omega / 4 + 1e-10)
    assert delta_gap_poincare(lams) >= omega / 4 - 1e-10
    x0 = np.array([0.4, 0.3])
    auto = integrate_reference(shifted.shifted, x0, times, 1e-12, 1e-12)
    direct = integrate_nonautonomous(
        lambda t, y: osc.f1 @ y + np.exp(1j * omega * t) * (osc.f2 @ np.kron(y, y)),
        x0,
        times,
        1e-12,
        1e-12,
    )
    recovered = auto.states * np.exp(-1j * omega * times)[:, None]
    assert np.max(np.abs(recovered - direct.states)) <= 1e-7
    assert time.time() - start < 120.0
    report(9, "embedding fidelity")


def _random_negative_log_norm_system(rng):
    n = int(rng.integers(1, 4))
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f1 = raw - (linalg.log_norm(raw) + rng.uniform(0.5, 2.0)) * np.eye(n)
    f0 = 0.1 * rng.standard_normal(n)
    f2 = rng.standard_normal((n, n * n))
    x0 = rng.standard_normal(n)
    x0 = x0 / np.linalg.norm(x0) * rng.uniform(0.3, 1.0)
    return QuadraticSystem(f0=f0, f1=f1, f2=f2), x0


def test_criterion_10_norm_monotonicity():
    rng = np.random.default_rng(2026)
    times = np.linspace(0.0, 10.0, 41)
    accepted = 0
    while accepted < 50:
        sys, x0 = _random_negative_log_norm_system(rng)
        value = r_mu(sys, x0)
        if not value < 1:
            shrink = rng.uniform(0.1, 0.6) / max(value, 1.0)
            sys = QuadraticSystem(f0=shrink * sys.f0, f1=sys.f1, f2=shrink * sys.f2)
            if not r_mu(sys, x0) < 1:
                continue
        traj = integrate_reference(sys, x0, times, 1e-11, 1e-11)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.all(norms <= norms[0] * (1 + 1e-7))
        accepted += 1
    accepted = 0
    while accepted < 50:
        sys, x0 = _random_negative_log_norm_system(rng)
        try:
            p = linalg.solve_lyapunov(sys.f1)
        except Exception:
            continue
        value = r_p(sys, x0, p)
        if not value < 1:
            shrink = rng.uniform(0.1, 0.6) / max(value, 1.0)
            sys = QuadraticSystem(f0=shrink * sys.f0, f1=sys.f1, f2=shrink * sys.f2)
            if not r_p(sys, x0, p) < 1:
                continue
        traj = integrate_reference(sys, x0, times, 1e-11, 1e-11)
        start_norm = linalg.p_vector_norm(x0, p)
        for state in traj.states:
            assert linalg.p_vector_norm(state, p) <= start_norm * (1 + 1e-7)
        accepted += 1
    report(10, "norm monotonicity under certified R-numbers")


def test_criterion_11_oscillator_network():
    start = time.time()
    fx_lin = oscillator_network(n=4, topology="chain", kappa=1.0, mass=1.0, w=0.0)
    bg, lg = fx_lin.extras["b_g"], fx_lin.extras["l_g"]
    assert np.max(np.abs(bg @ bg.T - lg)) <= 1e-14
    traj = integrate_reference(
        fx_lin.system, fx_lin.x0, np.linspace(0, 10, 21), 1e-12, 1e-12
    )
    energies = [total_energy(s, 4) for s in traj.states]
    assert max(abs(e - energies[0]) for e in energies) <= 1e-9
    # weak modulated nonlinearity: lift pipeline vs direct integration
    fx = oscillator_network(n=4, w=1e-3)
    omega = fx.extras["omega"]
    horizon = 1.0
    shifted = shift_oscillating_f2(fx.system, omega)
    k = 3
    cm = build_blocks(shifted.shifted, k)
    lift = integrate_lift(cm, initial_lift(fx.x0, k), np.array([0.0, horizon]))
    z_lift = shifted.unshift_phase(1, horizon) * split_blocks(
        lift.states[-1], fx.system.n, k
    )[0]
    direct = integrate_nonautonomous(
        lambda t, y: fx.system.f1 @ y
        + np.exp(1j * omega * t) * (fx.system.f2 @ np.kron(y, y)),
        fx.x0,
        np.array([0.0, horizon]),
        1e-12,
        1e-12,
    )
    z_direct = direct.states[-1]
    subset = fx.extras["subset"]
    ratio_lift = subset_kinetic_energy(z_lift, subset) / total_energy(z_lift, 4)
    ratio_direct = subset_kinetic_energy(z_direct, subset) / total_energy(z_direct, 4)
    assert abs(ratio_lift - ratio_direct) <= 1e-4
    assert time.time() - start < 180.0
    report(11, "oscillator network fixture")


CLI_CASES = [
    ["certify", "--fixture", "scalar", "--param", "a=-1", "--param", "b=0.1"],
    ["simulate", "--fixture", "scalar", "--param", "b=0.1", "--k", "4"],
    [
        "scan",
        "--fixture",
        "damped_oscillator",
        "--param",
        "r=0.8:1.6:2",
        "--param",
        "n=0.05:0.15:2",
        "--budget",
        "150",
    ],
    ["diagonalize", "--fixture", "scalar", "--param", "b=0.5", "--k", "4"],
    ["combinatorics", "--max-k", "5"],
]


def test_criterion_12_cli_determinism(tmp_path):
    for case in CLI_CASES:
        first = tmp_path / "first.out"
        second = tmp_path / "second.out"
        code_a = cli_main(case + ["--out", str(first)])
        code_b = cli_main(case + ["--out", str(second)])
        assert code_a == code_b
        assert first.read_bytes() == second.read_bytes()
        first.unlink()
        second.unlink()
    report(12, "CLI determinism")
