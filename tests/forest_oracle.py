"""Slow reference constructions of the diagonalizing blocks and fusion sums, for the tests.

Two oracles for :func:`carleman_lab.nonresonant.build_v_blocks` and
:func:`carleman_lab.nonresonant.build_vinv_blocks`, both exponential in k:

* the composition sum: the first block row W_m by root splits, then block
  (i, j) as the sum over the C(j-1, i-1) compositions of j into i parts
  of the Kronecker chains W_{m1} (x) ... (x) W_{mi};
* the per-tree forest sum for V^{-1}: signed weights of every tree shape
  summed over node labelings and topological orders, independent of V.

:class:`TreeStructure` is the indexing view of one tree shape that the
forest sum walks.  :func:`fusion_sum_by_paths` is the path-enumeration
oracle for :func:`carleman_lab.forests.fusion_sum`: it walks all
k!/(j-1)! fusion paths.  :func:`blockwise_residuals_full` is the residual
check of :func:`carleman_lab.nonresonant.diagonalize_carleman` with every
product by a diagonal block taken in full.

The oracles return full upper families, diagonal blocks included, while
production stores only the strictly upper blocks: :func:`strictly_upper`
drops an oracle's diagonal after checking it is exactly the identity,
and :func:`with_identities` puts the identity diagonal back.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from carleman_lab.forests import LEAF, compositions, enumerate_trees
from carleman_lab.linalg import as_cvector, kron_chain
from carleman_lab.nonresonant import _shift_apply, build_nl, level_sums


class TreeStructure:
    """Indexing view of one tree shape: nodes, leaves, topological orders.

    Nodes are integers in deposit order (root first, pre-order);
    ``leaves`` lists leaf nodes left to right.  ``order_frontiers``
    precomputes, for every topological order of the internal nodes, the
    frontier C(S) of each prefix S (children of S not in S); these are the
    label sets whose eigenvalue sums appear in the inverse-block weights.
    """

    def __init__(self, tree):
        self.tree = tree
        self.children: dict[int, tuple[int, int]] = {}
        self.leaves: list[int] = []
        counter = itertools.count()

        # pre-order with ids assigned before descending keeps the root at 0
        def build_preorder(t) -> int:
            node = next(counter)
            if t == LEAF:
                self.leaves.append(node)
                return node
            self.children[node] = (None, None)  # placeholder
            left = build_preorder(t[0])
            right = build_preorder(t[1])
            self.children[node] = (left, right)
            return node

        build_preorder(tree)
        self.n_nodes = len(self.leaves) + len(self.children)
        self.root = 0
        self.internal = sorted(self.children)
        self.leaf_descendants: dict[int, list[int]] = {}
        for v in self.internal:
            self.leaf_descendants[v] = self._collect_leaves(v)

    def _collect_leaves(self, v: int) -> list[int]:
        if v not in self.children:
            return [v]
        left, right = self.children[v]
        return self._collect_leaves(left) + self._collect_leaves(right)

    def topological_orders(self) -> list[tuple[int, ...]]:
        """All linear orders of internal nodes respecting ancestry."""
        children = self.children
        internal = set(self.internal)

        def extend(placed: tuple, available: set) -> list:
            if not available:
                return [placed]
            out = []
            for v in sorted(available):
                nxt = set(available)
                nxt.remove(v)
                for c in children[v]:
                    if c in internal:
                        nxt.add(c)
                out.extend(extend(placed + (v,), nxt))
            return out

        if not internal:
            return [()]
        return extend((), {self.root})

    def order_frontiers(self) -> list[list[tuple[int, ...]]]:
        """For each topological order, the frontier node tuple of each prefix."""
        out = []
        for order in self.topological_orders():
            frontiers = []
            placed: set[int] = set()
            frontier: set[int] = set()
            for v in order:
                placed.add(v)
                frontier.discard(v)
                frontier.update(self.children[v])
                frontiers.append(tuple(sorted(frontier)))
            out.append(frontiers)
        return out


def tree_sums(lams, f2_tilde, max_leaves: int) -> dict[int, np.ndarray]:
    """W_m = sum of forward weights over all trees with m leaves.

    Recursion over the root split; every term is the Hadamard product of
    the level-m reciprocal matrix with the quadratic map applied to a
    pair of smaller sums, which is exactly the per-tree construction
    summed over shapes.
    """
    n = lams.size
    w = {1: np.eye(n, dtype=complex)}
    for m in range(2, max_leaves + 1):
        nl = build_nl(lams, m)
        acc = np.zeros((n, n**m), dtype=complex)
        for a in range(1, m):
            acc += nl * (f2_tilde @ np.kron(w[a], w[m - a]))
        w[m] = acc
    return w


def forest_blocks(sums: dict, k: int) -> dict:
    """Block (i, j) = sum over compositions of j into i parts of the Kronecker chains."""
    blocks: dict = {}
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            acc = None
            for comp in compositions(j, i):
                term = kron_chain([sums[m] for m in comp])
                acc = term if acc is None else acc + term
            blocks[(i, j)] = acc
    return blocks


def v_blocks_by_composition(lams, f2_tilde, k: int) -> dict:
    """Composition-sum oracle for ``build_v_blocks``."""
    ev = as_cvector(lams)
    f2t = np.asarray(f2_tilde, dtype=complex)
    return forest_blocks(tree_sums(ev, f2t, k), k)


def vinv_blocks_by_composition(lams, f2_tilde, k: int) -> dict:
    """Composition-sum oracle for ``build_vinv_blocks``.

    The first row G_1 = I, G_j = -sum_{m<j} G_m V_(m,j) of the
    compositional inverse, from the oracle V, then the composition sum.

    The first-row sum cancels, and each G_m carries the rounding of the
    ones before it, so block (1, j) loses relative accuracy as j grows.
    On scalar systems the terms add up to 2^(j-1) - 1 times |G_j| (511 at
    j = 10).  Against a 60-digit evaluation over 200 random scalar systems
    (j <= 10), the relative error of block (1, j) was at most 0.26 3^j u,
    with u = 2^-53 (worst 1.4e-12, at j = 10).  Comparisons with this
    oracle at large j are therefore limited by its own error, not by the
    production recursion's.
    """
    v = v_blocks_by_composition(lams, f2_tilde, k)
    g = {1: v[(1, 1)]}
    for j in range(2, k + 1):
        g[j] = -sum(g[m] @ v[(m, j)] for m in range(1, j))
    return forest_blocks(g, k)


def g_tree_operator(tree, lams: np.ndarray, f2_tilde: np.ndarray) -> np.ndarray:
    """Inverse-transform weight of a single tree shape.

    Sums, over all node labelings, the product of quadratic-map entries
    at the internal nodes times the topological-order weight, whose
    factors are reciprocal frontier eigenvalue sums against the root.
    """
    n = lams.size
    if tree == LEAF:
        return np.eye(n, dtype=complex)
    ts = TreeStructure(tree)
    nodes = ts.n_nodes
    m = len(ts.leaves)
    grid_size = n**nodes
    idx = np.arange(grid_size)
    labels = np.empty((grid_size, nodes), dtype=np.int64)
    for pos in range(nodes):
        labels[:, pos] = (idx // n ** (nodes - 1 - pos)) % n
    alpha = np.ones(grid_size, dtype=complex)
    for v in ts.internal:
        c1, c2 = ts.children[v]
        alpha *= f2_tilde[labels[:, v], labels[:, c1] * n + labels[:, c2]]
    live = np.nonzero(alpha != 0)[0]
    out = np.zeros((n, n**m), dtype=complex)
    if live.size == 0:
        return out
    labels = labels[live]
    alpha = alpha[live]
    lam_nodes = lams[labels]  # (live, nodes)
    root_lam = lam_nodes[:, ts.root]
    gamma = np.zeros(live.size, dtype=complex)
    for frontiers in ts.order_frontiers():
        term = np.ones(live.size, dtype=complex)
        for frontier in frontiers:
            den = lam_nodes[:, list(frontier)].sum(axis=1) - root_lam
            term = term / den
        gamma += term
    cols = np.zeros(live.size, dtype=np.int64)
    for leaf in ts.leaves:
        cols = cols * n + labels[:, leaf]
    np.add.at(out, (labels[:, ts.root], cols), alpha * gamma)
    return out


def g_sums(lams, f2_tilde, max_leaves: int) -> dict[int, np.ndarray]:
    n = lams.size
    g = {1: np.eye(n, dtype=complex)}
    for m in range(2, max_leaves + 1):
        acc = np.zeros((n, n**m), dtype=complex)
        for tree in enumerate_trees(m):
            acc += g_tree_operator(tree, lams, f2_tilde)
        g[m] = acc
    return g


def vinv_blocks_by_forest(lams, f2_tilde, k: int) -> dict:
    """Per-tree forest oracle for ``build_vinv_blocks``, independent of V.

    Sums signed per-tree weights over node labelings and topological
    orders; exponential in k.
    """
    ev = as_cvector(lams)
    f2t = np.asarray(f2_tilde, dtype=complex)
    # resonance screening happens in the forward construction; run it
    # here too so the forest route fails identically on resonant input
    for m in range(2, k + 1):
        build_nl(ev, m)
    blocks = forest_blocks(g_sums(ev, f2t, k), k)
    for (i, j), b in blocks.items():
        if (j - i) % 2:
            b *= -1.0
    return blocks


def fusion_paths(j: int, k: int):
    """Yield fusion paths from k+1 unexcited subsystems down to j subsystems.

    A path is the tuple of fusion positions (l_k, ..., l_j); step i fuses
    neighbors l_i and l_i+1 of the current i+1 subsystems into one
    excited subsystem.  There are k!/(j-1)! paths.
    """
    if not 1 <= j <= k:
        raise ValueError("need 1 <= j <= k")
    ranges = [range(i) for i in range(k, j - 1, -1)]
    yield from itertools.product(*ranges)


def fusion_sum_by_paths(j: int, k: int) -> Fraction:
    """Path-enumeration oracle for ``fusion_sum``, exact.

    Sums the product of inverse excitation counts over every fusion path.
    """
    total = Fraction(0)
    for path in fusion_paths(j, k):
        flags = [False] * (k + 1)
        weight = Fraction(1)
        for l in path:
            flags[l : l + 2] = [True]
            weight /= sum(flags)
        total += weight
    return total


def strictly_upper(blocks: dict) -> dict:
    """The blocks (i, j), i < j, of a full family, after checking its diagonal is exactly I."""
    for (i, j), block in blocks.items():
        if i == j:
            assert np.array_equal(block, np.eye(len(block))), (i, j)
    return {key: block for key, block in blocks.items() if key[0] < key[1]}


def with_identities(blocks: dict, n: int, k: int) -> dict:
    """A strictly upper block family up to order k with its identity diagonal put back."""
    full = {**blocks, **{(j, j): np.eye(n**j, dtype=complex) for j in range(1, k + 1)}}
    return dict(sorted(full.items()))


def blockwise_residuals_full(lams, f2t, v: dict, w: dict) -> tuple[float, float]:
    """Oracle for ``nonresonant._blockwise_residuals``: every product formed.

    ``v`` and ``w`` are full upper families (:func:`with_identities`);
    R_(i,j) = D_i V_(i,j) - V_(i,j) D_j + A~_(i,i+1) V_(i+1,j) and
    E_(i,j) = sum_{m=i..j} V_(i,m) W_(m,j) - delta_ij I for every upper
    block, including the products with the diagonal blocks.
    """
    n, k = len(lams), max(j for _, j in v)
    d = {j: level_sums(lams, j) for j in range(1, k + 1)}
    scale = max(max(np.abs(dj).max() for dj in d.values()), np.abs(f2t).max(), 1e-300)
    similarity, inverse = [], []
    for (i, j), vij in v.items():
        r = d[i][:, None] * vij - vij * d[j][None, :]
        if i < j:
            r += _shift_apply(f2t, v[(i + 1, j)], n, i)
        e = sum(v[(i, m)] @ w[(m, j)] for m in range(i, j + 1))
        if i == j:
            e[np.diag_indices_from(e)] -= 1.0
        similarity.append(np.linalg.norm(r))
        inverse.append(np.linalg.norm(e))
    return float(np.linalg.norm(similarity) / scale), float(np.linalg.norm(inverse))
