from fractions import Fraction

import pytest

from carleman_lab.errors import CapExceededError
from carleman_lab.forests import (
    FUSION_CAP,
    LEAF,
    catalan,
    catalan_convolution,
    count_forests,
    enumerate_forests,
    enumerate_trees,
    forest_count_bound,
    fusion_sum,
    fusion_sums,
    leaf_count,
)
from forest_oracle import TreeStructure, fusion_paths, fusion_sum_by_paths

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


class TestEnumeration:
    def test_catalan_values(self):
        for k, value in enumerate(CATALAN):
            assert catalan(k) == value

    def test_tree_counts_are_catalan(self):
        for m in range(1, 9):
            trees = enumerate_trees(m)
            assert len(trees) == catalan(m - 1)
            assert len(set(trees)) == len(trees)
            assert all(leaf_count(t) == m for t in trees)

    def test_two_trees_four_leaves(self):
        assert len(enumerate_forests(2, 4)) == 5

    def test_trivial_forest(self):
        assert enumerate_forests(1, 1) == [(LEAF,)]

    def test_single_tree_four_leaves(self):
        assert len(enumerate_forests(1, 4)) == catalan(3) == 5

    def test_counts_match_closed_form_and_bound(self):
        for j in range(1, 11):
            for i in range(1, j + 1):
                closed = count_forests(i, j)
                assert closed <= forest_count_bound(i, j)
                if j <= 8:
                    assert len(enumerate_forests(i, j)) == closed

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_forests(1, 13)


class TestFusionSums:
    def test_path_count(self):
        import math

        for k in range(1, 7):
            for j in range(1, k + 1):
                paths = list(fusion_paths(j, k))
                assert len(paths) == math.factorial(k) // math.factorial(j - 1)

    def test_first_block_sums_are_catalan(self):
        for k in range(1, 9):
            assert fusion_sum(1, k) == catalan(k)

    def test_worked_example(self):
        assert fusion_sum(1, 3) == 5

    def test_top_block_value(self):
        # one fusion step from k+1 subsystems, k equally weighted choices
        for k in range(1, 9):
            assert fusion_sum(k, k) == k

    def test_dp_matches_path_oracle(self):
        for k in range(1, 8):
            expected = tuple(fusion_sum_by_paths(j, k) for j in range(1, k + 1))
            assert fusion_sums(k) == expected, k
            for j in range(1, k + 1):
                assert fusion_sum(j, k) == expected[j - 1], (j, k)

    def test_dp_matches_convolution_up_to_cap(self):
        # k = FUSION_CAP is 3.6 million paths for the oracle at j = 1
        for k in range(1, FUSION_CAP + 1):
            for j in range(1, k + 1):
                assert fusion_sum(j, k) == catalan_convolution(j, k - j + 1), (j, k)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            fusion_sum(1, FUSION_CAP + 1)
        with pytest.raises(CapExceededError):
            fusion_sums(FUSION_CAP + 1)

    def test_closed_form_all_orders(self):
        import math

        for k in range(1, 9):
            for j in range(1, k + 1):
                closed = Fraction(j, k + 1) * math.comb(2 * k - j + 1, k - j + 1)
                assert fusion_sum(j, k) == closed
                assert fusion_sum(j, k) == catalan_convolution(j, k - j + 1)

    def test_convolution_matches_direct_convolution(self):
        for j in range(1, 5):
            for k in range(0, 7):
                direct = sum(
                    _catalan_product(parts)
                    for parts in _compositions_nonneg(k, j)
                )
                assert catalan_convolution(j, k) == direct


def _compositions_nonneg(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions_nonneg(total - first, parts - 1):
            yield (first,) + rest


def _catalan_product(parts):
    out = 1
    for p in parts:
        out *= catalan(p)
    return out


class TestTopologicalOrderIdentity:
    def test_orders_respect_ancestry(self):
        for tree in enumerate_trees(5):
            ts = TreeStructure(tree)
            for order in ts.topological_orders():
                seen = set()
                for v in order:
                    # children that are internal must not have been placed
                    for c in ts.children[v]:
                        assert c not in seen
                    seen.add(v)

    def test_weighted_order_sum_is_one(self):
        # excitation-weighted sum over topological orders telescopes to 1,
        # in exact arithmetic, for every tree with at most 6 leaves
        for m in range(2, 7):
            for tree in enumerate_trees(m):
                ts = TreeStructure(tree)
                internal = set(ts.children)
                total = Fraction(0)
                for frontiers in ts.order_frontiers():
                    prod = Fraction(1)
                    for frontier in frontiers[:-1]:
                        excited = sum(1 for v in frontier if v in internal)
                        prod /= excited
                    total += prod
                assert total == 1

    def test_total_order_count_matches_fusion_paths(self):
        # each fusion path to one subsystem corresponds to (tree, order)
        import math

        for m in range(2, 7):
            orders = sum(
                len(TreeStructure(t).topological_orders()) for t in enumerate_trees(m)
            )
            assert orders == math.factorial(m - 1)
