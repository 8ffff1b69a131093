import numpy as np
import pytest

from fastsearch.binsearch import bit_schedule, classic_seq, offset_schedule
from fastsearch.partition import (
    gen_uniform_gap_partition,
    linear_scan_oracle,
    validate_partition,
)

from helpers import CountingList, boundary_probes, random_queries
from reference import (
    bitset1_seq,
    bitset2_seq,
    bitset3_seq,
    offset_constants,
    offset_seq,
    pad_right_pow2,
    probe_constant,
)


def all_searchers(p):
    """Name -> callable(z) for the five comparison-based reference loops."""
    xs, n = p.values, p.n_intervals
    padded = pad_right_pow2(p)
    probe = probe_constant(n)
    f, s, j = offset_constants(n)
    return {
        "classic": lambda z: classic_seq(xs, n, z),
        "bitset1": lambda z: bitset1_seq(xs, n, probe, z),
        "bitset2": lambda z: bitset2_seq(padded, probe, z),
        "bitset3": lambda z: bitset3_seq(xs, n, probe, z),
        "offset": lambda z: offset_seq(xs, f, s, j, z),
    }


class TestExamples:
    def test_classic(self):
        search = all_searchers(validate_partition([0, 1, 2, 3]))["classic"]
        assert search(2.9) == 2
        assert search(0.0) == 0

    def test_bitset1(self):
        assert all_searchers(validate_partition([0, 1, 2, 3]))["bitset1"](1.5) == 1
        p9 = gen_uniform_gap_partition(9, 1, 5, seed=9)
        z = np.nextafter(p9.values[-1], -np.inf)
        assert all_searchers(p9)["bitset1"](z) == 7

    def test_bitset2(self):
        assert all_searchers(validate_partition([0, 1, 2, 3]))["bitset2"](2.5) == 2
        p9 = gen_uniform_gap_partition(9, 1, 5, seed=9)
        z = np.nextafter(p9.values[-1], -np.inf)
        assert all_searchers(p9)["bitset2"](z) == 7

    def test_bitset3(self):
        assert all_searchers(validate_partition([0, 1, 2, 3]))["bitset3"](1.0) == 1
        p9 = gen_uniform_gap_partition(9, 1, 5, seed=9)
        assert all_searchers(p9)["bitset3"](p9.values[0]) == 0

    def test_offset(self):
        assert all_searchers(validate_partition([0, 1, 2, 3]))["offset"](2.2) == 2
        assert all_searchers(validate_partition([0.0, 1.0]))["offset"](0.5) == 0


class TestOffsetConstants:
    @pytest.mark.parametrize("n,f,s,j", [(7, 4, 4, 3), (1, 1, 1, 1), (14, 7, 8, 3)])
    def test_values(self, n, f, s, j):
        assert offset_constants(n) == (f, s, j)

    def test_invariants(self):
        for n in range(1, 200):
            f, s, j = offset_constants(n)
            assert f >= 1 and s >= 1
            assert f + s == n + 1
            assert 2**j <= n + 1 < 2 ** (j + 1)


class TestSchedules:
    """The library's probe schedules, for every N from 1 to 4096."""

    def test_bit_schedule_is_powers_of_two(self):
        for n in range(1, 4097):
            top = n.bit_length() - 1  # floor(log2 N)
            assert bit_schedule(n) == [2**e for e in range(top, -1, -1)], n
            assert bit_schedule(n)[0] == probe_constant(n)

    def test_offset_schedule_sums_to_n(self):
        """The paper's F and J halvings, less the step of 0 they end in
        when N + 1 is a power of two: that probe reads X_i and cannot
        move i."""
        for n in range(1, 4097):
            steps = offset_schedule(n)
            assert sum(steps) == n, n
            assert 0 not in steps, n
            f, s, j = offset_constants(n)
            spare = int((n + 1) & n == 0)  # N + 1 is a power of two
            assert steps[0] == f and len(steps) == j + 1 - spare, n

    @pytest.mark.parametrize("schedule", [bit_schedule, offset_schedule])
    def test_needs_an_interval(self, schedule):
        with pytest.raises(ValueError, match="at least one interval"):
            schedule(0)


class TestOracleEquivalence:
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_exhaustive_small_sizes(self, precision):
        """All five kernels equal the oracle on every boundary-heavy probe."""
        for size in range(2, 65):
            p = gen_uniform_gap_partition(size, 1, 5, seed=size, precision=precision)
            searchers = all_searchers(p)
            for z in boundary_probes(p):
                want = linear_scan_oracle(p, z)
                for name, search in searchers.items():
                    assert search(z) == want, (name, size, z)

    @pytest.mark.parametrize("size", [15, 255, 4095])
    def test_randomized_larger_sizes(self, size):
        p = gen_uniform_gap_partition(size, 1, 5, seed=size)
        z = random_queries(p, 10_000, seed=size + 1)
        xs = p.values.tolist()
        n = p.n_intervals
        padded = pad_right_pow2(p).tolist()
        probe = probe_constant(n)
        f, s, j = offset_constants(n)
        # classic doubles as the reference here; it is itself oracle-checked above
        want = [classic_seq(xs, n, v) for v in z.tolist()]
        assert [bitset1_seq(xs, n, probe, v) for v in z.tolist()] == want
        assert [bitset2_seq(padded, probe, v) for v in z.tolist()] == want
        assert [bitset3_seq(xs, n, probe, v) for v in z.tolist()] == want
        assert [offset_seq(xs, f, s, j, v) for v in z.tolist()] == want


class TestIterationCounts:
    """Probe counts are a pure function of N for the branch-free kernels."""

    @pytest.mark.parametrize("size", [2, 3, 9, 15, 16, 17, 255])
    def test_bitset_fixed_reads(self, size):
        p = gen_uniform_gap_partition(size, 1, 5, seed=size)
        n = p.n_intervals
        probe = probe_constant(n)
        expected = n.bit_length()  # floor(log2 N) + 1
        for z in [p.values[0], np.nextafter(p.values[-1], -np.inf), p.values[size // 2]]:
            guard = CountingList(p.values)
            bitset1_seq(guard, n, probe, float(z))
            assert guard.reads <= expected  # guard may short-circuit the load
            padded = CountingList(pad_right_pow2(p))
            bitset2_seq(padded, probe, float(z))
            assert padded.reads == expected
            guard3 = CountingList(p.values)
            bitset3_seq(guard3, n, probe, float(z))
            assert guard3.reads == expected

    @pytest.mark.parametrize("size", [2, 3, 9, 15, 16, 17, 255])
    def test_offset_fixed_reads(self, size):
        p = gen_uniform_gap_partition(size, 1, 5, seed=size)
        f, s, j = offset_constants(p.n_intervals)
        counts = set()
        for z in [p.values[0], np.nextafter(p.values[-1], -np.inf), p.values[size // 2]]:
            guard = CountingList(p.values)
            offset_seq(guard, f, s, j, float(z))
            counts.add(guard.reads)
        assert counts == {j + 1}


class TestProbeBounds:
    """bitset2 stays inside the padded array; bitset3 inside the base array.

    CountingList raises on any index outside [0, len), including negatives,
    so simply completing the sweep proves the bound.
    """

    @pytest.mark.parametrize("size", [2, 5, 9, 15, 33, 64])
    def test_no_out_of_range_probes(self, size):
        p = gen_uniform_gap_partition(size, 1, 5, seed=size)
        n = p.n_intervals
        probe = probe_constant(n)
        padded = pad_right_pow2(p)
        for z in boundary_probes(p):
            bitset2_seq(CountingList(padded), probe, float(z))
            bitset3_seq(CountingList(p.values), n, probe, float(z))
