"""The one per-block error bound, ``cert.error_bound(j, k, t)``, of every certificate type.

Each certificate family bounds the truncation error of the lift's block
j at time t: the stable and conservative bounds are for the system the
certificate rescales by gamma, the non-resonant ones for the system as
given.  The refusals are checked on hand-built certificates, and the
bounds against measured errors on seeded random draws of the
benchmark's system generators at n = 2, 3 and 4.
"""

import dataclasses

import numpy as np
import pytest

from carleman_lab.carleman import error_profile
from carleman_lab.conservative import ConservativeCertificate
from carleman_lab.errors import UncertifiedError
from carleman_lab.nonresonant import NonresonantCertificate, certify_poincare
from carleman_lab.stability import StabilityCertificate, optimize_rp
from carleman_lab.system import QuadraticSystem, rescale

CERTIFIED = {
    "stable": StabilityCertificate(
        criterion="R_P", value=0.5, alpha=-1.0, mu=-1.0, certified=True,
        xi=-1.0, p_inv_norm=1.0, f2_p_rescaled=0.1, x0_p_rescaled=0.5,
    ),
    "conservative": ConservativeCertificate(
        value=0.5, delta=1.0, x_max_tilde=0.5, gamma0=1.0, p=1.0, certified=True,
    ),
    "nonresonant": NonresonantCertificate(
        variant="poincare", value=0.5, certified=True, x_max_tilde=0.5,
        q_norm=1.0, f2_tilde_norm=0.1,
    ),
}
REFUSALS = {
    "stable": "certificate is not certified",
    "conservative": "R-number >= 1",
    "nonresonant": "R-number 2.0 >= 1",
}


@pytest.mark.parametrize("family", sorted(CERTIFIED))
class TestRefusals:
    def test_certified_bound_is_a_positive_float(self, family):
        bound = CERTIFIED[family].error_bound(2, 4, 1.0)
        assert isinstance(bound, float) and bound > 0

    @pytest.mark.parametrize("j, t", [(0, 1.0), (5, 1.0), (1, -1e-300)])
    def test_block_or_time_out_of_range(self, family, j, t):
        with pytest.raises(ValueError):
            CERTIFIED[family].error_bound(j, 4, t)

    def test_uncertified(self, family):
        cert = dataclasses.replace(
            CERTIFIED[family], value=2.0, certified=False, reason="R-number >= 1"
        )
        with pytest.raises(UncertifiedError, match=REFUSALS[family]):
            cert.error_bound(1, 4, 1.0)


DRAWS = [(n, seed) for n in (2, 3, 4) for seed in range(4)]
TIMES = np.linspace(0.0, 2.0, 9)


def _draws(workloads, n, seed):
    """The stable driven system and then the Poincare system of one stream, with their x0."""
    rng = np.random.default_rng([seed, n])
    out = []
    for draw in (workloads.stable_driven_system, workloads.poincare_system):
        f0, f1, f2, x0 = draw(rng, n)
        out.append((QuadraticSystem(f0=f0, f1=f1, f2=f2), x0))
    return out


def _assert_within_bound(cert, sys, x0, n):
    for k in (2, 4, 6) if n < 4 else (2, 4):
        prof = error_profile(sys, x0, k, TIMES, tol=1e-12)
        for row, t in enumerate(TIMES):
            for j in range(1, k + 1):
                bound = cert.error_bound(j, k, float(t))
                assert prof.block_norms[row, j - 1] <= bound, (k, j, t)


@pytest.mark.parametrize("n, seed", DRAWS)
def test_stable_draws_within_bound(bench_workloads, n, seed):
    (sys, x0), _ = _draws(bench_workloads, n, seed)
    cert = optimize_rp(sys, x0)
    assert cert.certified
    _assert_within_bound(cert, rescale(sys, cert.gamma), cert.gamma * x0, n)


def test_poincare_draws_within_bound(bench_workloads):
    certified = 0
    for n, seed in DRAWS:
        _, (sys, x0) = _draws(bench_workloads, n, seed)
        cert = certify_poincare(sys, x0, horizon=2.0)
        if cert.certified:
            certified += 1
            _assert_within_bound(cert, sys, x0, n)
    assert certified > 0
