import re
import tracemalloc

import numpy as np
import pytest

from fastsearch.direct import build, direct_search
from fastsearch.errors import (
    NonFinite,
    NotStrictlyIncreasing,
    OutOfDomain,
    PartitionError,
    TooShort,
)
from fastsearch.partition import (
    gen_queries,
    gen_uniform_gap_partition,
    linear_scan_oracle,
    linear_scan_oracle_batch,
    validate_partition,
)

from helpers import NON_REAL_BATCHES, boundary_probes
from reference import pad_right_pow2, probe_constant


class TestValidate:
    def test_accepts_sorted(self):
        p = validate_partition([0, 1, 2, 3])
        assert p.n_intervals == 3
        assert p.precision == "double"

    def test_duplicate_rejected(self):
        with pytest.raises(NotStrictlyIncreasing) as exc:
            validate_partition([0, 1, 1, 3])
        assert exc.value.position == 2

    def test_decreasing_rejected(self):
        with pytest.raises(NotStrictlyIncreasing) as exc:
            validate_partition([0, 2, 1, 3])
        assert exc.value.position == 2

    def test_nan_rejected(self):
        with pytest.raises(NonFinite) as exc:
            validate_partition([0, np.nan])
        assert exc.value.position == 1

    def test_inf_rejected(self):
        with pytest.raises(NonFinite) as exc:
            validate_partition([0, 1, np.inf])
        assert exc.value.position == 2

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize(
        "raw, error, position",
        [
            ([0.0, 2.0, 1.0, 3.0, np.nan, 5.0], NonFinite, 4),
            ([0.0, 1.0, 1.0, np.nan], NonFinite, 3),
            ([3.0, 2.0, np.nan], NonFinite, 2),
            ([-np.inf, 0.0, 1.0, 2.0], NonFinite, 0),
            ([0.0, 1.0, 2.0, np.inf], NonFinite, 3),
            ([-np.inf, 0.0, np.inf], NonFinite, 0),
            ([0.0, 1.0, np.inf, 5.0], NonFinite, 2),
            ([0.0, -np.inf, 1.0, 2.0], NonFinite, 1),
            ([0.0, 1.0, np.inf, np.inf], NonFinite, 2),
            ([np.nan, 0.0, 1.0], NonFinite, 0),
            ([0.0, 2.0, 1.0, 3.0], NotStrictlyIncreasing, 2),
        ],
        ids=[
            "nan-after-descent", "nan-after-duplicate", "nan-after-descent-at-start",
            "neg-inf-at-x0", "pos-inf-at-xn", "both-ends-inf", "pos-inf-interior",
            "neg-inf-interior", "inf-pair-at-end", "nan-at-x0", "descent",
        ],
    )
    def test_error_class_and_position(self, raw, error, position, precision):
        """Order is checked first, finiteness only when order fails, yet the
        errors are those of a finiteness pass ahead of the order pass:
        NonFinite at the first NaN or infinity, even after an earlier
        non-increasing pair, and an infinity at either end, whose
        neighbours compare in order.  Comparing a NaN warns of nothing
        under the suite's ``-W error``."""
        for dtype in (None, np.float64, np.float32):
            values = list(raw) if dtype is None else np.array(raw, dtype=dtype)
            with pytest.raises(error) as exc:
                validate_partition(values, precision)
            assert exc.value.position == position

    @pytest.mark.parametrize(
        "raw, position",
        [([0, 10**400], 1), ([0, -(10**400)], 1), ([-(10**400), 0, 10**400], 0)],
    )
    def test_int_past_float_range_is_non_finite(self, raw, position):
        """A Python int too large for a float is reported where it sits, as
        an infinity would be, not as a bare OverflowError."""
        with pytest.raises(NonFinite) as exc:
            validate_partition(raw)
        assert exc.value.position == position

    @pytest.mark.parametrize("big", [1e39, -1e39], ids=["positive", "negative"])
    @pytest.mark.parametrize("container", [list, np.array], ids=["list", "float64-array"])
    def test_double_past_single_range_is_non_finite(self, big, container):
        """A finite double past float32's range is an infinity in single
        precision: NonFinite at its position, raised under ``-W error``
        instead of the cast's overflow warning."""
        with pytest.raises(NonFinite) as exc:
            validate_partition(container([0.0, big]), precision="single")
        assert exc.value.position == 1

    def test_too_short(self):
        with pytest.raises(TooShort):
            validate_partition([1.0])

    def test_column_names_its_shape(self):
        column = np.arange(1000.0).reshape(1000, 1)
        with pytest.raises(PartitionError, match=r"shape \(1000, 1\)") as exc:
            validate_partition(column)
        assert not isinstance(exc.value, TooShort)

    @pytest.mark.parametrize(
        "raw, dtype",
        [
            (["0", "1.5", "3"], "<U3"),
            ([0, 1 + 5j, 3], "complex128"),
            (np.array([0, 1 + 5j, 3]), "complex128"),
            (np.array([0.0, None, 3.0], dtype=object), "object"),
        ],
        ids=["str-list", "complex-list", "complex-array", "object-None"],
    )
    def test_non_real_input_names_its_dtype(self, raw, dtype):
        """Strings are not parsed and complex values are not truncated to
        their real part: each raises PartitionError naming its dtype."""
        with pytest.raises(PartitionError, match=f"dtype {dtype}") as exc:
            validate_partition(raw)
        assert not isinstance(exc.value, (NonFinite, TooShort))

    def test_float_array_copied_once(self):
        """Validation copies a float array once and keeps no second
        knot-sized buffer: its peak stays under 1.5 times the knots."""
        raw = np.arange(1 << 18, dtype=np.float64)
        tracemalloc.start()
        try:
            p = validate_partition(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not np.shares_memory(p.values, raw)
        assert peak < 1.5 * raw.nbytes, peak

    def test_precision_inferred_from_dtype(self):
        p = validate_partition(np.array([0, 1], dtype=np.float32))
        assert p.precision == "single"
        assert p.values.dtype == np.float32

    def test_values_frozen(self):
        p = validate_partition([0.0, 1.0])
        with pytest.raises(ValueError):
            p.values[0] = 5.0

    def test_input_not_aliased(self):
        raw = np.array([0.0, 1.0, 2.0])
        validate_partition(raw)
        raw[0] = -1.0  # must not raise: caller's array stays writable


class TestGenerators:
    def test_gap_range(self):
        p = gen_uniform_gap_partition(16, 1, 5, seed=42)
        gaps = np.diff(p.values)
        assert len(gaps) == 15
        assert np.all((gaps >= 1) & (gaps <= 5))

    def test_degenerate_uniform(self):
        p = gen_uniform_gap_partition(2, 1, 1, seed=0)
        assert p.values[0] == 0.0
        assert p.values[1] == 1.0

    def test_mean_gap_matches_uniform_expectation(self):
        p = gen_uniform_gap_partition(4096, 1, 5, seed=7)
        mean = np.diff(p.values).mean()
        assert abs(mean - 3.0) / 3.0 < 0.05

    def test_reproducible(self):
        a = gen_uniform_gap_partition(512, 1, 5, seed=99)
        b = gen_uniform_gap_partition(512, 1, 5, seed=99)
        assert np.array_equal(a.values, b.values)
        c = gen_uniform_gap_partition(512, 1, 5, seed=100)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("gaps", [(1, np.inf), (np.inf, np.inf)], ids=["hi", "both"])
    def test_infinite_gap_rejected(self, gaps):
        """numpy's ``uniform`` raised OverflowError for an infinite gap."""
        with pytest.raises(ValueError, match=re.escape("need 0 < gap_lo <= gap_hi < inf")):
            gen_uniform_gap_partition(15, *gaps, seed=1)

    @pytest.mark.parametrize(
        "gaps, precision",
        [((1e300, 1e300), "single"), ((1e307, 1e308), "double")],
        ids=["single", "double"],
    )
    def test_overflowing_knots_non_finite_without_warning(self, gaps, precision):
        """The cast to float32, or the sum of the gaps, overflowed with a
        RuntimeWarning, which the warning filter turned into the error."""
        with pytest.raises(NonFinite):
            gen_uniform_gap_partition(15, *gaps, seed=1, precision=precision)

    def test_single_precision_cast(self):
        p64 = gen_uniform_gap_partition(64, 1, 5, seed=3, precision="double")
        p32 = gen_uniform_gap_partition(64, 1, 5, seed=3, precision="single")
        assert p32.values.dtype == np.float32
        assert np.allclose(p32.values, p64.values, rtol=1e-6)

    def test_queries_in_domain(self):
        p = validate_partition([0.0, 1.0])
        q = gen_queries(p, 1000, seed=5)
        assert np.all((q >= 0.0) & (q < 1.0))

    def test_queries_read_only_array(self):
        """gen_queries returns a read-only ndarray in the partition's dtype."""
        for precision in ("single", "double"):
            p = gen_uniform_gap_partition(64, 1, 5, seed=5, precision=precision)
            q = gen_queries(p, 333, seed=6)
            assert isinstance(q, np.ndarray) and q.shape == (333,)
            assert q.dtype == p.values.dtype
            assert not q.flags.writeable

    def test_zero_queries_rejected(self):
        p = validate_partition([0.0, 1.0])
        with pytest.raises(ValueError):
            gen_queries(p, 0, seed=5)

    def test_queries_reproducible(self):
        p = gen_uniform_gap_partition(32, 1, 5, seed=1)
        a = gen_queries(p, 256, seed=8)
        b = gen_queries(p, 256, seed=8)
        assert np.array_equal(a, b)

    def test_query_histogram_flat(self):
        """Counts over equal sub-ranges stay within 3 sigma of multinomial."""
        p = validate_partition([0.0, 1.0])
        q = gen_queries(p, 10 ** 6, seed=2024)
        bins = 20
        counts, _ = np.histogram(q, bins=bins, range=(0.0, 1.0))
        expected = len(q) / bins
        sigma = np.sqrt(len(q) * (1 / bins) * (1 - 1 / bins))
        assert np.all(np.abs(counts - expected) <= 3 * sigma)


class TestPadding:
    @pytest.mark.parametrize(
        "size,padded_size",
        [(15, 16), (4, 4), (9, 16), (2, 2), (3, 4), (64, 64), (65, 128)],
    )
    def test_padded_length(self, size, padded_size):
        p = gen_uniform_gap_partition(size, 1, 5, seed=size)
        assert len(pad_right_pow2(p)) == padded_size

    def test_prefix_bit_exact_and_padding_value(self):
        p = gen_uniform_gap_partition(9, 1, 5, seed=11)
        padded = pad_right_pow2(p)
        assert np.array_equal(padded[:9], p.values)
        assert np.all(padded[9:] == p.values[-1])
        assert np.all(np.diff(padded) >= 0)
        assert not padded.flags.writeable

    def test_probe_constant(self):
        p = gen_uniform_gap_partition(15, 1, 5, seed=4)
        # 14 intervals: 4 bits address index N, and the leading probe is 8.
        assert len(pad_right_pow2(p)) == 1 << 4
        assert probe_constant(p.n_intervals) == 8


class TestOracle:
    def test_mid_interval(self):
        p = validate_partition([0, 1, 2, 3])
        assert linear_scan_oracle(p, 1.5) == 1

    def test_exact_knot_maps_to_own_index(self):
        p = validate_partition([0, 1, 2, 3])
        assert linear_scan_oracle(p, 1.0) == 1

    def test_left_endpoint(self):
        p = validate_partition([0, 1, 2, 3])
        assert linear_scan_oracle(p, 0.0) == 0

    def test_out_of_domain(self):
        p = validate_partition([0, 1, 2, 3])
        with pytest.raises(OutOfDomain):
            linear_scan_oracle(p, 3.0)
        with pytest.raises(OutOfDomain):
            linear_scan_oracle(p, -0.1)

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_interval_membership_exhaustive(self, precision):
        """oracle(z) = i iff X_i <= z < X_{i+1}, over boundary-heavy probes."""
        for size in (2, 3, 5, 9, 17, 33):
            p = gen_uniform_gap_partition(size, 1, 5, seed=size, precision=precision)
            for z in boundary_probes(p):
                i = linear_scan_oracle(p, z)
                assert p.values[i] <= z
                assert z < p.values[i + 1]

    def test_batch_matches_scalar(self):
        p = gen_uniform_gap_partition(100, 1, 5, seed=17)
        rng = np.random.default_rng(6)
        z = rng.uniform(0, float(p.values[-1]), size=500)
        z = z[z < p.values[-1]]
        batch = linear_scan_oracle_batch(p, z)
        scalar = [linear_scan_oracle(p, v) for v in z]
        assert batch.tolist() == scalar

    def test_batch_rejects_out_of_domain_with_position(self):
        p = validate_partition([0, 1, 2, 3])
        with pytest.raises(OutOfDomain) as exc:
            linear_scan_oracle_batch(p, np.array([0.5, 1.5, 3.0, 0.2]))
        assert exc.value.position == 2


def scalar_search(name, p):
    """One of the two checked scalar searches over ``p``, as z -> answer."""
    if name == "direct_search":
        idx, _ = build(p)
        return lambda z: direct_search(idx, p, z)
    return lambda z: linear_scan_oracle(p, z)


class TestQueryTypes:
    """The checked scalar searches and the batch oracle take real numbers
    only, as ``run_batch`` does, and put an int past the float range
    outside the domain."""

    @pytest.mark.parametrize(
        "z",
        [5 + 1j, np.complex64(3 + 1j), "1.5", np.datetime64("2000-01-01"), None, np.array([1.5])],
        ids=["complex", "complex64", "str", "datetime64", "None", "array"],
    )
    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("name", ["linear_scan_oracle", "direct_search"])
    def test_non_real_query_names_type(self, name, precision, z):
        """numpy orders a complex value by its real part, so the oracle
        answered 5 + 1j with the interval that holds 5."""
        p = gen_uniform_gap_partition(257, 1, 5, seed=3, precision=precision)
        search = scalar_search(name, p)
        with pytest.raises(ValueError, match=f"got {type(z).__name__}$") as exc:
            search(z)
        assert not isinstance(exc.value, OutOfDomain)

    @pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["positive", "negative"])
    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("name", ["linear_scan_oracle", "direct_search"])
    def test_int_past_float_range_out_of_domain(self, name, precision, big):
        p = gen_uniform_gap_partition(257, 1, 5, seed=3, precision=precision)
        with pytest.raises(OutOfDomain):
            scalar_search(name, p)(big)

    @pytest.mark.parametrize("queries", NON_REAL_BATCHES.values(), ids=NON_REAL_BATCHES)
    def test_batch_non_real_queries_name_dtype(self, queries):
        p = gen_uniform_gap_partition(255, 1, 5, seed=2010)
        dtype = np.asarray(queries).dtype
        with pytest.raises(ValueError, match=re.escape(f"dtype {dtype}")) as exc:
            linear_scan_oracle_batch(p, queries)
        assert not isinstance(exc.value, OutOfDomain)

    @pytest.mark.parametrize("queries", [np.float64(1.5), np.full((2, 2), 1.5)], ids=["0d", "2d"])
    def test_batch_not_1d_rejected(self, queries):
        p = gen_uniform_gap_partition(255, 1, 5, seed=2010)
        shape = np.shape(queries)
        with pytest.raises(ValueError, match=re.escape(f"queries must be 1-D, got shape {shape}")):
            linear_scan_oracle_batch(p, queries)

    @pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["positive", "negative"])
    def test_batch_int_past_float_range_out_of_domain(self, big):
        p = gen_uniform_gap_partition(255, 1, 5, seed=2012)
        for queries, position in (([big], 0), ([1.5, 2, big], 2)):
            with pytest.raises(OutOfDomain) as exc:
                linear_scan_oracle_batch(p, queries)
            assert exc.value.position == position

    def test_batch_answers_the_values_as_given(self):
        """Object arrays of reals are answered, and a double query on a
        single partition is compared unrounded: just below a knot it falls
        in the interval before, where its float32 rounding would not."""
        p = gen_uniform_gap_partition(255, 1, 5, seed=2011, precision="single")
        below = np.nextafter(np.float64(p.values[5]), -np.inf)
        assert np.float32(below) == p.values[5]
        values = [1.5, 2, np.float32(2.5), np.float64(7.25), True, np.True_, 100, below, float(below)]
        want = [linear_scan_oracle(p, v) for v in values]
        assert want[-2:] == [4, 4]
        for queries in (values, np.array(values, dtype=object)):
            assert linear_scan_oracle_batch(p, queries).tolist() == want

    @pytest.mark.parametrize("name", ["linear_scan_oracle", "direct_search"])
    def test_scalar_answers_the_value_as_given(self, name):
        """A double query just below a single knot is compared unrounded,
        whatever its Python type.  numpy compared a Python float with the
        float32 knots in float32, so both searches answered 5 just below
        X_5 and raised OutOfDomain just below X_N."""
        p = gen_uniform_gap_partition(64, 1, 5, seed=3, precision="single")
        search = scalar_search(name, p)
        for at, want in ((5, 4), (p.n_intervals, p.n_intervals - 1)):
            below = np.nextafter(np.float64(p.values[at]), -np.inf)
            assert np.float32(below) == p.values[at]
            assert linear_scan_oracle_batch(p, [below])[0] == want
            assert [search(kind(below)) for kind in (float, np.float64)] == [want, want]
