"""Cache-friendly heap-order (Eytzinger) layout and its fixed-depth descent.

The sorted knots, right-padded with copies of X_N, are rearranged into the
breadth-first order of a complete binary tree of 2**L - 1 slots, where L is
the smallest depth whose full tree holds all N+1 knots.  Each level of the
tree is one strided slice of the knots, so construction is one slice copy
per level and allocates only the tree.  A descent then touches one slot
per level -- exactly L comparisons for every query, with no data-dependent
exit.

Index recovery: starting from k = 1 and updating k <- 2k + [z >= node],
the final k lies in [2**L, 2**(L+1) - 1] and k - 2**L equals the number of
tree elements <= z.  Padding slots hold X_N > z, so that count equals the
count over the base partition, and the sought interval index is the count
minus one.  The in-order invariant below is what makes this rank argument
valid, and the whole kernel is additionally validated against the
linear-scan oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import SortedPartition


@dataclass(frozen=True)
class EytzingerLayout:
    """Knots in heap order: slot k's children sit at 2k+1 and 2k+2 (0-based).

    In-order traversal of ``tree`` yields the base partition followed by
    2**L - 1 - (N+1) copies of X_N.
    """

    tree: np.ndarray
    L: int
    source: SortedPartition


def tree_depth(n: int) -> int:
    """Smallest L with 2**L - 1 >= n + 1 knots."""
    return (n + 1).bit_length()


def build_layout(p: SortedPartition) -> EytzingerLayout:
    """Construct the padded heap-order layout, one strided copy per level.

    Level l holds slots 2**l - 1 .. 2**(l+1) - 2, and its slot at offset u
    has in-order rank u * 2**(L-l) + 2**(L-l-1) - 1.  A level is therefore
    the strided slice ``X[2**(L-l-1) - 1 :: 2**(L-l)]`` of the knots,
    followed by copies of X_N for the ranks past N.  The only allocation
    is the tree itself.
    """
    xs = p.values
    depth = tree_depth(p.n_intervals)
    tree = np.empty((1 << depth) - 1, dtype=xs.dtype)
    for level in range(depth):
        stride = 1 << (depth - level)
        row = tree[(1 << level) - 1 : (1 << (level + 1)) - 1]
        knots = xs[(stride >> 1) - 1 :: stride]
        row[: len(knots)] = knots
        row[len(knots) :] = xs[-1]
    tree.setflags(write=False)
    return EytzingerLayout(tree=tree, L=depth, source=p)


def in_order(lay: EytzingerLayout) -> np.ndarray:
    """Flatten the tree back to sorted order (padding included)."""
    out = np.empty(len(lay.tree), dtype=lay.tree.dtype)
    pos = 0

    def visit(slot: int):
        nonlocal pos
        if slot >= len(lay.tree):
            return
        visit(2 * slot + 1)
        out[pos] = lay.tree[slot]
        pos += 1
        visit(2 * slot + 2)

    visit(0)
    return out


def eytzinger_seq(tree, depth: int, z) -> int:
    """Fixed-depth descent; ``tree`` is any 0-based indexable sequence."""
    k = 1
    for _ in range(depth):
        k = 2 * k + (1 if z >= tree[k - 1] else 0)
    return k - (1 << depth) - 1
