#!/usr/bin/env python3
"""Drive a spring network with a modulated nonlinearity through the lift.

Positions and velocities of a chain of masses are packed into a wave
vector whose linear flow is generated by -iH with H Hermitian built from
the signed incidence matrix of the spring graph; kinetic, potential, and
total energy are then plain coordinate norms.  A weak nonlinearity
modulated at a frequency above the phonon band is absorbed by a spectral
shift, after which the lift pipeline (the lift on symmetric tensors, in
multiset coordinates) reproduces the kinetic-energy fraction of a subset
of masses to many digits.

Run:  python3 demos/05_oscillator_network.py
"""

import numpy as np

from carleman_lab.carleman import (
    build_symmetric_lift,
    integrate_lift,
    integrate_nonautonomous,
    symmetric_monomials,
)
from carleman_lab.fixtures import (
    oscillator_network,
    subset_kinetic_energy,
    total_energy,
)
from carleman_lab.nonresonant import certify_oscillating, shift_oscillating_f2
from carleman_lab.system import integrate_reference


def main():
    n = 4
    fx_lin = oscillator_network(n=n, topology="chain", kappa=1.0, mass=1.0, w=0.0)
    bg, lg = fx_lin.extras["b_g"], fx_lin.extras["l_g"]
    print(f"chain of {n} unit masses; incidence factorization error:",
          np.abs(bg @ bg.T - lg).max())
    traj = integrate_reference(fx_lin.system, fx_lin.x0, np.linspace(0, 10, 21))
    energies = [total_energy(s, n) for s in traj.states]
    print(f"linear flow: total energy drift over t<=10: "
          f"{max(abs(e - energies[0]) for e in energies):.2e}")
    print()

    w = 1e-3
    fx = oscillator_network(n=n, w=w)
    omega = fx.extras["omega"]
    print(f"nonlinearity strength {w}, modulation frequency {omega:.3f}")
    cert = certify_oscillating(fx.system, fx.x0, omega=omega, horizon=2.0)
    print(f"frequency-weighted R-number: {cert.value:.4f} (certified: {cert.certified})")

    horizon = 1.0
    shifted = shift_oscillating_f2(fx.system, omega)
    k = 3
    dim = fx.system.n
    lifted = build_symmetric_lift(shifted.shifted, k)
    y0 = symmetric_monomials(fx.x0, dim, k).ravel()
    lift = integrate_lift(lifted, y0, np.array([0.0, horizon]))
    # level 1 of the multiset coordinates is the state itself
    z_lift = shifted.unshift_phase(1, horizon) * lift.states[-1, :dim]
    direct = integrate_nonautonomous(
        lambda t, y: fx.system.f1 @ y
        + np.exp(1j * omega * t) * (fx.system.f2 @ np.kron(y, y)),
        fx.x0,
        np.array([0.0, horizon]),
        1e-12,
        1e-12,
    )
    subset = fx.extras["subset"]
    ratio_lift = subset_kinetic_energy(z_lift, subset) / total_energy(z_lift, n)
    ratio_direct = subset_kinetic_energy(direct.states[-1], subset) / total_energy(
        direct.states[-1], n
    )
    print(f"kinetic fraction of masses {set(subset)} at t={horizon}:")
    print(f"  order-{k} lift pipeline : {ratio_lift:.10f}")
    print(f"  direct integration      : {ratio_direct:.10f}")
    print(f"  difference              : {abs(ratio_lift - ratio_direct):.2e}")


if __name__ == "__main__":
    main()
