"""Per-multiset loop reference for the no-resonance gap, for the tests.

:func:`nonresonant_gaps_by_loop` is the enumeration that
:func:`carleman_lab.nonresonant._nonresonant_gap` replaced: a Python loop
over ``combinations_with_replacement`` that forms one gap vector per
multiset and raises at the first resonance.  :func:`gap_by_loop` reduces
it to the gap the production function returns.  Both take the
eigenvalues as ``delta_gap_poincare`` hands them on, already scaled.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

from carleman_lab.errors import ResonanceFoundError
from carleman_lab.nonresonant import RESONANCE_RTOL, _scale


def nonresonant_gaps_by_loop(ev: np.ndarray, top: int):
    """(order, gaps) for every multiset of 2..top eigenvalue indices.

    ``gaps[i]`` is |lambda_i - sum of the multiset's eigenvalues|; raises
    ResonanceFoundError at the first resonance.
    """
    tol = RESONANCE_RTOL * max(_scale(ev), 1e-300)
    for total in range(2, top + 1):
        for combo in combinations_with_replacement(range(ev.size), total):
            gaps = np.abs(ev - ev[list(combo)].sum())
            if np.any(gaps <= tol):
                i = int(np.argmin(gaps))
                raise ResonanceFoundError(f"resonance at eigenvalue index {i}")
            yield total, gaps


def gap_by_loop(ev: np.ndarray, top: int) -> float:
    """Smallest gap / (order - 1) over the loop's multisets."""
    return min(
        (float(gaps.min()) / (total - 1) for total, gaps in nonresonant_gaps_by_loop(ev, top)),
        default=np.inf,
    )
