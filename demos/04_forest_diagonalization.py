#!/usr/bin/env python3
"""Diagonalize a lift generator explicitly and audit the block norms.

Without drive and without resonances among the eigenvalues, the lift
generator is similar to a diagonal matrix of eigenvalue sums, and the
similarity transform decomposes into blocks indexed by binary forests.
This script builds the transform and its inverse (the Carleman matrix
of the compositional inverse of the normal-form map), checks the first
inverse block against its closed form W_(1,2) = -N_2 o F2~, verifies
the residuals, compares every block norm against its forest-counting
bound, and prints the exact combinatorial identities that make the
inverse-side bound geometric instead of factorial.

Run:  python3 demos/04_forest_diagonalization.py
"""

import numpy as np

from carleman_lab.forests import catalan, count_forests, fusion_sum
from carleman_lab.nonresonant import (
    build_nl,
    delta_gap_poincare,
    diagonalize_carleman,
    norm_bounds_check,
)
from carleman_lab.system import QuadraticSystem


def main():
    rng = np.random.default_rng(42)
    lams = np.array([-1.0 + 0.4j, -2.3 - 0.7j])
    q = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    f1 = q @ np.diag(lams) @ np.linalg.inv(q)
    f2 = 0.04 * (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
    sys = QuadraticSystem(f0=np.zeros(2), f1=f1, f2=f2)

    k = 5
    diag = diagonalize_carleman(sys, k)
    print(f"order-{k} lift of a random 2-dim system, eigenvalues {np.round(lams, 3)}")
    print(f"  similarity residual      : {diag.residual:.2e}")
    print(f"  inverse product residual : {diag.inverse_residual:.2e}")
    closed = -build_nl(diag.eigenvalues, 2) * diag.f2_tilde
    worst = np.abs(diag.vinv_blocks[(1, 2)] - closed).max()
    print(f"  W_(1,2) vs closed form -N_2 o F2~, worst entry gap: {worst:.2e}")
    print()

    delta = delta_gap_poincare(diag.eigenvalues)
    report = norm_bounds_check(diag, delta)
    print(f"no-resonance gap: {delta:.4f}; block norms against their bounds:")
    for row in report["rows"]:
        if row["family"] == "vinv" and row["i"] == 1:
            print(
                f"  inverse block (1,{row['j']}):"
                f"  norm {row['norm']:.3e}  bound {row['bound']:.3e}"
            )
    print(f"  all {len(report['rows'])} blocks within bounds: {report['all_ok']}")
    print()

    print("exact identities behind the counting (all rational arithmetic):")
    for k_id in range(1, 7):
        assert fusion_sum(1, k_id) == catalan(k_id)
    print("  weighted fusion sums match Catalan numbers for k <= 6")
    print(f"  forests with 2 trees / 4 leaves: {count_forests(2, 4)} (five shapes)")


if __name__ == "__main__":
    main()
