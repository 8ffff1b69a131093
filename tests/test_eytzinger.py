import numpy as np
import pytest

from fastsearch.batch import prepare, run_batch
from fastsearch.eytzinger import build_layout, tree_depth
from fastsearch.partition import (
    gen_uniform_gap_partition,
    linear_scan_oracle,
    linear_scan_oracle_batch,
    validate_partition,
)

from helpers import CountingList, boundary_probes
from reference import eytzinger_seq

#: Levels read from the knots below the stored tree: log2(64 / itemsize).
KNOT_LEVELS = {"single": 4, "double": 3}


def in_order(tree: np.ndarray) -> np.ndarray:
    """Flatten a heap-order tree back to sorted order (padding included)."""
    out = np.empty(len(tree), dtype=tree.dtype)
    pos = 0

    def visit(slot: int):
        nonlocal pos
        if slot >= len(tree):
            return
        visit(2 * slot + 1)
        out[pos] = tree[slot]
        pos += 1
        visit(2 * slot + 2)

    visit(0)
    return out


def padded_knots(p, depth):
    """The knots right-padded with copies of X_N to 2**depth - 1 ranks."""
    padded = np.full((1 << depth) - 1, p.values[-1], dtype=p.values.dtype)
    padded[: p.n_intervals + 1] = p.values
    return padded


class TestLayout:
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_stored_levels_stop_one_line_above_the_leaves(self, precision):
        for n in [1, 2, 6, 7, 14, 15, 30, 31, 62, 63, 255, 256, 4095]:
            p = gen_uniform_gap_partition(n + 1, 1, 5, seed=n, precision=precision)
            lay = build_layout(p)
            top = max(lay.L - KNOT_LEVELS[precision], 0)
            assert lay.top == top, n
            assert len(lay.tree) == 2**top - 1, n

    def test_no_padding_when_tree_is_full(self):
        # 63 knots fill a depth-6 tree; its 3 stored levels hold every 8th.
        p = gen_uniform_gap_partition(63, 1, 5, seed=63)
        lay = build_layout(p)
        assert (lay.L, lay.top) == (6, 3)
        assert len(lay.tree) == 7
        assert np.array_equal(in_order(lay.tree), p.values[7::8])

    def test_small_partitions_store_no_tree(self):
        p = validate_partition([0.0, 1.0, 2.0])
        lay = build_layout(p)
        assert (lay.L, lay.top) == (2, 0)
        assert len(lay.tree) == 0

    def test_root_is_middle_of_full_tree(self):
        p = gen_uniform_gap_partition(15, 1, 5, seed=15)
        lay = build_layout(p)
        assert (lay.L, lay.top) == (4, 1)
        assert lay.tree[0] == np.sort(p.values)[7]  # 8th smallest

    def test_padding_copies_of_last_knot(self):
        # 65 knots: depth 7, 4 stored levels over ranks 7, 15, .., 119, of
        # which the 7 ranks 71 .. 119 lie past N = 64.
        p = gen_uniform_gap_partition(65, 1, 5, seed=9)
        lay = build_layout(p)
        assert (lay.L, lay.top) == (7, 4)
        assert len(lay.tree) == 15
        assert np.count_nonzero(lay.tree == p.values[-1]) == 7

    @pytest.mark.parametrize("size", list(range(2, 40)) + [64, 100, 257, 1000])
    def test_in_order_reconstruction(self, size):
        """Flattening the stored levels in order gives the padded knots at
        stride 2**(L - top), bit-exact, in both precisions."""
        for precision in ("single", "double"):
            p = gen_uniform_gap_partition(size, 1, 5, seed=size, precision=precision)
            lay = build_layout(p)
            stride = 1 << (lay.L - lay.top)
            want = padded_knots(p, lay.L)[stride - 1 :: stride]
            assert in_order(lay.tree).tobytes() == want.tobytes(), precision

    def test_every_base_element_present_once(self):
        """Every knot at a stored rank, X_N aside, sits in one slot."""
        p = gen_uniform_gap_partition(100, 1, 5, seed=2)
        lay = build_layout(p)
        stride = 1 << (lay.L - lay.top)
        for v in p.values[stride - 1 : -1 : stride]:
            assert np.count_nonzero(lay.tree == v) == 1

    def test_depth_formula(self):
        # smallest L with 2**L - 1 >= n + 1 knots
        for n, depth in [(1, 2), (2, 2), (3, 3), (6, 3), (7, 4), (14, 4), (15, 5)]:
            assert tree_depth(n) == depth
            assert 2 ** depth - 1 >= n + 1
            assert depth == 1 or 2 ** (depth - 1) - 1 < n + 1


def rank_order_tree(p):
    """The full heap-order tree gathered slot by slot through each slot's
    in-order rank, kept as an independent reference for build_layout.

    1-based slot q at level l = floor(log2 q) has in-order rank
    (q - 2**l) * 2**(L - l) + 2**(L - l - 1) - 1 in the padded knots.
    """
    depth = tree_depth(p.n_intervals)
    padded = padded_knots(p, depth)
    slots = np.arange(1, len(padded) + 1, dtype=np.int64)
    levels = np.frexp(slots.astype(np.float64))[1] - 1
    stride = np.int64(1) << (depth - levels)
    rank = (slots - (np.int64(1) << levels)) * stride + (stride >> 1) - 1
    return padded[rank]


EDGE_SIZES = sorted(
    set(range(1, 71))
    | {n for k in range(1, 13) for n in range((1 << k) - 2, (1 << k) + 2) if n >= 1}
)


class TestLevelCopies:
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_matches_rank_order_bit_for_bit(self, precision):
        """N = 1..70 and every N from 2**k - 2 to 2**k + 1 for k <= 12,
        where the tree gains a level or fills up exactly: the stored slots
        are the full tree's first 2**top - 1, bit for bit."""
        for n in EDGE_SIZES:
            p = gen_uniform_gap_partition(n + 1, 1, 5, seed=n, precision=precision)
            lay = build_layout(p)
            want = rank_order_tree(p)[: 2**lay.top - 1]
            assert lay.tree.dtype == want.dtype, n
            assert lay.tree.tobytes() == want.tobytes(), n

    def test_tree_is_read_only(self):
        lay = build_layout(gen_uniform_gap_partition(100, 1, 5, seed=5))
        assert not lay.tree.flags.writeable
        with pytest.raises(ValueError):
            lay.tree[0] = 0.0

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_tree_is_a_quarter_of_the_knots(self, precision):
        """The full padded tree took 2**17 - 1 slots at N = 2**16, twice
        the knots' bytes; its stored top is at most a quarter of them."""
        n = 1 << 16
        p = gen_uniform_gap_partition(n + 1, 1, 5, seed=87, precision=precision)
        tree = prepare("eytzinger", p).structure.tree
        assert tree.nbytes <= (n + 1) * p.values.itemsize / 4, tree.nbytes


class TestSearch:
    def test_examples(self):
        p = validate_partition([0.0, 1.0, 2.0])
        lay = build_layout(p)
        assert eytzinger_seq(lay.tree, p.values, lay.L, 1.5) == 1
        assert eytzinger_seq(lay.tree, p.values, lay.L, 0.0) == 0

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_exhaustive_oracle_sweep(self, precision):
        for size in list(range(2, 34)) + [64, 65, 127, 128, 129, 300]:
            p = gen_uniform_gap_partition(size, 1, 5, seed=size, precision=precision)
            lay = build_layout(p)
            for z in boundary_probes(p):
                got = eytzinger_seq(lay.tree, p.values, lay.L, z)
                assert got == linear_scan_oracle(p, z), (size, z)

    @pytest.mark.parametrize("size", [2, 3, 9, 16, 33, 255, 1000])
    def test_exactly_L_comparisons(self, size):
        """Tree reads plus knot reads total L, every knot read in range."""
        p = gen_uniform_gap_partition(size, 1, 5, seed=size)
        lay = build_layout(p)
        for z in [p.values[0], p.values[size // 2], np.nextafter(p.values[-1], -np.inf)]:
            tree, knots = CountingList(lay.tree), CountingList(p.values)
            eytzinger_seq(tree, knots, lay.L, float(z))
            assert tree.reads == lay.top
            assert tree.reads + knots.reads == lay.L

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_lanes_and_scalar_match_oracle_at_every_edge_size(self, precision):
        """Trees with 0, 1 and 2 stored levels, and N + 1 at 2**k - 1, 2**k
        and 2**k + 1, through the lanes (d = 8) and the scalar (d = 1)."""
        for n in EDGE_SIZES:
            p = gen_uniform_gap_partition(n + 1, 1, 5, seed=n, precision=precision)
            prep = prepare("eytzinger", p)
            z = boundary_probes(p)
            want = linear_scan_oracle_batch(p, z)
            assert np.array_equal(run_batch(prep, z, d=8), want), n
            assert np.array_equal(run_batch(prep, z, d=1), want), n
