"""Cache-friendly heap-order (Eytzinger) layout and its fixed-depth descent.

The sorted knots, right-padded with copies of X_N, form the in-order
sequence of a complete binary tree of depth L, the smallest depth whose
2**L - 1 slots hold all N+1 knots.  Only the top ``top`` levels of that
tree are stored, in breadth-first order: the last log2(64 / itemsize)
levels of a descent read knots that lie within one 64-byte line of the
sorted knots, so they are read from the knots in place.  Each stored
level is one strided slice of the knots, so construction is one slice
copy per level and allocates only those 2**top - 1 slots.  A descent
touches one slot or knot per level -- exactly L comparisons for every
query, with no data-dependent exit.

Index recovery: the first ``top`` levels start from offset u = 0 and
update u <- 2u + [z >= node], so afterwards u counts the stored slots
<= z.  Shifted left by L - top, u becomes the in-order rank w of the
leftmost leaf under the node reached, and each remaining level, with
half = 2**(L-l-1), sets w <- w + half when z >= X[min(w + half - 1, N)].
The final w is the number of padded knots <= z.  A rank past N reads
X_N > z, as a padding slot did, so that count equals the count over the
base partition, and the sought interval index is the count minus one.
In i = w - 1, the remaining levels are bitset3's clamped schedule
2**(L-top-1) .. 1 over the knots, which is how :mod:`fastsearch.batch`
builds both of the kernel's forms.  The whole kernel is additionally
validated against the linear-scan oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import SortedPartition

#: Bytes per cache line.  The descent's last log2(_LINE / itemsize) steps
#: stay within one line of the sorted knots.
_LINE = 64


@dataclass(frozen=True)
class EytzingerLayout:
    """The top levels of the heap-order tree over a partition's knots.

    Slot k's children sit at 2k+1 and 2k+2 (0-based).  ``tree`` holds the
    first 2**top - 1 slots of the depth-L tree whose in-order traversal is
    the base partition followed by copies of X_N; the L - top levels below
    are read from the partition's ``values``.
    """

    tree: np.ndarray
    L: int

    @property
    def top(self) -> int:
        """Number of tree levels stored in ``tree``."""
        return len(self.tree).bit_length()


def tree_depth(n: int) -> int:
    """Smallest L with 2**L - 1 >= n + 1 knots."""
    return (n + 1).bit_length()


def build_layout(p: SortedPartition) -> EytzingerLayout:
    """Construct the top levels of the padded heap-order tree, one strided
    copy per level.

    Level l holds slots 2**l - 1 .. 2**(l+1) - 2, and its slot at offset u
    has in-order rank u * 2**(L-l) + 2**(L-l-1) - 1.  A level is therefore
    the strided slice ``X[2**(L-l-1) - 1 :: 2**(L-l)]`` of the knots,
    followed by copies of X_N for the ranks past N.  Levels 0 .. top - 1
    are stored, bit for bit as in the full tree; the only allocation is
    those 2**top - 1 slots.
    """
    xs = p.values
    depth = tree_depth(p.n_intervals)
    top = max(depth - (_LINE // xs.itemsize).bit_length() + 1, 0)
    tree = np.empty((1 << top) - 1, dtype=xs.dtype)
    for level in range(top):
        stride = 1 << (depth - level)
        row = tree[(1 << level) - 1 : (1 << (level + 1)) - 1]
        knots = xs[(stride >> 1) - 1 :: stride]
        row[: len(knots)] = knots
        row[len(knots) :] = xs[-1]
    tree.setflags(write=False)
    return EytzingerLayout(tree=tree, L=depth)
