import numpy as np
import pytest

from fastsearch.binsearch import probe_constant
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
    pad_right_pow2,
    validate_partition,
)

from helpers import boundary_probes


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

    def test_too_short(self):
        with pytest.raises(TooShort):
            validate_partition([1.0])

    def test_column_names_its_shape(self):
        column = np.arange(1000.0).reshape(1000, 1)
        with pytest.raises(PartitionError, match=r"shape \(1000, 1\)") as exc:
            validate_partition(column)
        assert not isinstance(exc.value, TooShort)

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
