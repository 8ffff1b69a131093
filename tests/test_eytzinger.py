import numpy as np
import pytest

from fastsearch.eytzinger import (
    build_layout,
    eytzinger_seq,
    in_order,
    tree_depth,
)
from fastsearch.partition import (
    gen_uniform_gap_partition,
    linear_scan_oracle,
    validate_partition,
)

from helpers import CountingList, boundary_probes


class TestLayout:
    def test_no_padding_when_tree_is_full(self):
        p = validate_partition([0.0, 1.0, 2.0])
        lay = build_layout(p)
        assert lay.L == 2
        assert len(lay.tree) == 3
        assert in_order(lay).tolist() == [0.0, 1.0, 2.0]

    def test_root_is_middle_of_full_tree(self):
        p = gen_uniform_gap_partition(15, 1, 5, seed=15)
        lay = build_layout(p)
        assert lay.L == 4
        assert lay.tree[0] == np.sort(p.values)[7]  # 8th smallest

    def test_padding_copies_of_last_knot(self):
        p = gen_uniform_gap_partition(9, 1, 5, seed=9)
        lay = build_layout(p)
        assert lay.L == 4
        assert len(lay.tree) == 15
        assert np.count_nonzero(lay.tree == p.values[-1]) == 1 + 6

    @pytest.mark.parametrize("size", list(range(2, 40)) + [64, 100, 257])
    def test_in_order_reconstruction(self, size):
        """Flattening in-order gives the base knots then padding, bit-exact."""
        p = gen_uniform_gap_partition(size, 1, 5, seed=size)
        lay = build_layout(p)
        flat = in_order(lay)
        assert np.array_equal(flat[:size], p.values)
        assert np.all(flat[size:] == p.values[-1])

    def test_every_base_element_present_once(self):
        p = gen_uniform_gap_partition(11, 1, 5, seed=2)
        lay = build_layout(p)
        for v in p.values[:-1]:
            assert np.count_nonzero(lay.tree == v) == 1

    def test_depth_formula(self):
        # smallest L with 2**L - 1 >= n + 1 knots
        for n, depth in [(1, 2), (2, 2), (3, 3), (6, 3), (7, 4), (14, 4), (15, 5)]:
            assert tree_depth(n) == depth
            assert 2 ** depth - 1 >= n + 1
            assert depth == 1 or 2 ** (depth - 1) - 1 < n + 1


def rank_order_tree(p):
    """The heap-order tree gathered slot by slot through each slot's
    in-order rank, kept as an independent reference for build_layout.

    1-based slot q at level l = floor(log2 q) has in-order rank
    (q - 2**l) * 2**(L - l) + 2**(L - l - 1) - 1 in the padded knots.
    """
    depth = tree_depth(p.n_intervals)
    size = (1 << depth) - 1
    padded = np.full(size, p.values[-1], dtype=p.values.dtype)
    padded[: p.n_intervals + 1] = p.values
    slots = np.arange(1, size + 1, dtype=np.int64)
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
        where the tree gains a level or fills up exactly."""
        for n in EDGE_SIZES:
            p = gen_uniform_gap_partition(n + 1, 1, 5, seed=n, precision=precision)
            tree = build_layout(p).tree
            want = rank_order_tree(p)
            assert tree.dtype == want.dtype, n
            assert tree.tobytes() == want.tobytes(), n

    def test_tree_is_read_only(self):
        lay = build_layout(gen_uniform_gap_partition(100, 1, 5, seed=5))
        assert not lay.tree.flags.writeable
        with pytest.raises(ValueError):
            lay.tree[0] = 0.0


class TestSearch:
    def test_examples(self):
        p = validate_partition([0.0, 1.0, 2.0])
        lay = build_layout(p)
        assert eytzinger_seq(lay.tree, lay.L, 1.5) == 1
        assert eytzinger_seq(lay.tree, lay.L, 0.0) == 0

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_exhaustive_oracle_sweep(self, precision):
        for size in range(2, 34):
            p = gen_uniform_gap_partition(size, 1, 5, seed=size, precision=precision)
            lay = build_layout(p)
            for z in boundary_probes(p):
                assert eytzinger_seq(lay.tree, lay.L, z) == linear_scan_oracle(p, z), (size, z)

    @pytest.mark.parametrize("size", [2, 3, 9, 16, 33, 255])
    def test_exactly_L_comparisons(self, size):
        p = gen_uniform_gap_partition(size, 1, 5, seed=size)
        lay = build_layout(p)
        for z in [p.values[0], p.values[size // 2], np.nextafter(p.values[-1], -np.inf)]:
            guard = CountingList(lay.tree)
            eytzinger_seq(guard, lay.L, float(z))
            assert guard.reads == lay.L
