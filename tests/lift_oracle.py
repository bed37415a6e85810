"""Full-coordinate lift reference for the tests.

:func:`full_lift` evolves the Kronecker blocks of :func:`build_blocks` from
the tensor powers x0^(j), the layout the multiset lift of ``error_profile``
and ``simulate --dump-states`` expands to.  :func:`complex_system` draws
the random complex systems both are checked on.
"""

from __future__ import annotations

import numpy as np

from carleman_lab.carleman import build_blocks, initial_lift, integrate_lift
from carleman_lab.system import QuadraticSystem


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
