"""Binary-tree and binary-forest combinatorics.

Rooted binary trees (every internal node has exactly two children) index
the terms of the Carleman diagonalizing blocks; ordered lists of them
("forests") with i trees and j total leaves index the (i, j) blocks.
The same trees appear as fusion paths when bounding lift errors for
gap-certified systems, which is where the Catalan convolution identities
checked here come from.  The blocks themselves are built without
enumerating trees (see :mod:`carleman_lab.nonresonant`); this module
backs the ``combinatorics`` subcommand.

Trees are nested tuples: ``()`` is the single-leaf tree and
``(left, right)`` an internal node.  Everything is exact: enumeration is
duplicate-free and the fusion sums use rational arithmetic.  The fusion
sums come from a dynamic program over excitation patterns, not from
walking the k!/(j-1)! fusion paths; the path enumerator is kept as a test
oracle.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import CapExceededError

LEAF = ()

FOREST_CAP = 12
FUSION_CAP = 10
CLOSED_FORM_CAP = 30


def leaf_count(tree) -> int:
    if tree == LEAF:
        return 1
    return leaf_count(tree[0]) + leaf_count(tree[1])


@lru_cache(maxsize=None)
def enumerate_trees(m: int) -> tuple:
    """All binary-tree shapes with m leaves (Catalan(m-1) of them)."""
    if m < 1:
        raise ValueError("a tree has at least one leaf")
    if m > FOREST_CAP:
        raise CapExceededError(f"tree enumeration capped at {FOREST_CAP} leaves")
    if m == 1:
        return (LEAF,)
    out = []
    for a in range(1, m):
        for left in enumerate_trees(a):
            for right in enumerate_trees(m - a):
                out.append((left, right))
    return tuple(out)


def compositions(total: int, parts: int):
    """Ordered compositions of ``total`` into ``parts`` positive integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_forests(i: int, j: int) -> list:
    """All ordered forests of i binary trees with j total leaves."""
    if not 1 <= i <= j:
        raise ValueError("need 1 <= i <= j")
    if j > FOREST_CAP:
        raise CapExceededError(f"forest enumeration capped at {FOREST_CAP} leaves")
    out = []
    for comp in compositions(j, i):
        pools = [enumerate_trees(m) for m in comp]
        out.extend(itertools.product(*pools))
    return out


def count_forests(i: int, j: int) -> int:
    """|T^i_j| computed from the leaf-partition Catalan product."""
    if not 1 <= i <= j:
        raise ValueError("need 1 <= i <= j")
    total = 0
    for comp in compositions(j, i):
        prod = 1
        for m in comp:
            prod *= catalan(m - 1)
        total += prod
    return total


def catalan(k: int) -> int:
    if not 0 <= k <= CLOSED_FORM_CAP:
        raise CapExceededError(f"catalan(k) supported for 0 <= k <= {CLOSED_FORM_CAP}")
    return comb(2 * k, k) // (k + 1)


def catalan_convolution(j: int, k: int) -> int:
    """j-fold convolution of the Catalan sequence at k: (j/(k+j)) C(2k+j-1, k)."""
    if j < 1 or k < 0 or k + j > 2 * CLOSED_FORM_CAP:
        raise CapExceededError("catalan convolution arguments out of range")
    value = Fraction(j, k + j) * comb(2 * k + j - 1, k)
    assert value.denominator == 1
    return int(value)


def fusion_sums(k: int) -> tuple[Fraction, ...]:
    """Excitation-weighted fusion counts for every j = 1..k, exactly; entry j-1 is j's.

    Sums, over every fusion path from k+1 unexcited subsystems down to j,
    the product of inverse excitation counts; equals
    catalan_convolution(j, k-j+1).  A step fuses neighbors l and l+1 into
    one excited subsystem and divides by the new number of excited
    subsystems, so a step's weight depends on the path only through the
    current excitation flags.  The sums are therefore one dynamic program
    over flag tuples (at most 2^(k+1) states) in place of the k!/(j-1)!
    paths: the total weight after the fusions down to j subsystems is j's
    sum.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if k > FUSION_CAP:
        raise CapExceededError(f"fusion sums capped at k = {FUSION_CAP}")
    weights = {(False,) * (k + 1): Fraction(1)}
    totals = []
    for i in range(k, 0, -1):
        fused_weights: dict[tuple, Fraction] = {}
        for flags, weight in weights.items():
            for l in range(i):
                fused = flags[:l] + (True,) + flags[l + 2 :]
                fused_weights[fused] = fused_weights.get(fused, 0) + weight / sum(fused)
        weights = fused_weights
        totals.append(sum(weights.values(), Fraction(0)))
    return tuple(reversed(totals))


def fusion_sum(j: int, k: int) -> Fraction:
    """The fusion count for one j, read from :func:`fusion_sums`."""
    if not 1 <= j <= k:
        raise ValueError("need 1 <= j <= k")
    return fusion_sums(k)[j - 1]


def forest_count_bound(i: int, j: int) -> int:
    """The coarse bound 4^(j-i) C(j-1, i-1) on |T^i_j|."""
    return 4 ** (j - i) * comb(j - 1, i - 1)
