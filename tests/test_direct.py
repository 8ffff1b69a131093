import dataclasses
import pickle
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from fastsearch import direct
from fastsearch.batch import prepare
from fastsearch.bench.persist import load_index, save_index
from fastsearch.direct import (
    build,
    build_index,
    closed_form_h_r,
    compute_h_r,
    direct_search,
    separates,
    with_fused,
)
from fastsearch.errors import NotDistinguishable, OutOfDomain, Overflow
from fastsearch.partition import (
    gen_uniform_gap_partition,
    linear_scan_oracle,
    linear_scan_oracle_batch,
    validate_partition,
)

from helpers import boundary_probes, random_queries

WORKED = [0.0, 0.5, 0.7, 1.1]


def worked_partition(precision="double"):
    dtype = np.float32 if precision == "single" else np.float64
    return validate_partition(np.array(WORKED, dtype=dtype))


class TestComputeHR:
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_worked_example(self, precision):
        """H lands one ulp above 5, with no growth, and five buckets."""
        p = worked_partition(precision)
        h, r, stats = compute_h_r(p)
        one = p.values.dtype.type
        assert h == np.nextafter(one(5.0), one(np.inf))
        assert r == 5
        assert stats.increments == 0
        # Independent verification: the truncated separation condition
        # holds at this h for every adjacent pair, evaluated in-precision.
        floors = np.floor(h * (p.values - p.values[0]))
        assert floors.tolist() == [0.0, 2.0, 3.0, 5.0]
        assert np.all(floors[1:] > floors[:-1])

    def test_uniform_unit_spacing(self):
        """Unit gaps force the minimal scale; the plain reciprocal certifies."""
        p = validate_partition([0.0, 1.0, 2.0, 3.0])
        h, r, stats = compute_h_r(p)
        assert h == 1.0
        assert r == 3
        assert stats.increments == 0

    def test_not_distinguishable(self):
        p = validate_partition(np.array([-1e9, 0.0, 1.0], dtype=np.float32))
        with pytest.raises(NotDistinguishable) as exc:
            compute_h_r(p)
        assert exc.value.position == 2

    def test_overflow(self):
        p = validate_partition(np.array([0.0, 1.42e-45, 1.0], dtype=np.float32))
        with pytest.raises(Overflow):
            compute_h_r(p)

    def test_gap2_rescues_colliding_offsets(self):
        """The gap-2 relaxation tolerates one pair of colliding offsets."""
        p = validate_partition(np.array([-1e9, 0.0, 1.0], dtype=np.float32))
        h, r, stats = compute_h_r(p, q=2)
        idx = build_index(p, h, r, q=2)
        for z in boundary_probes(p):
            assert direct_search(idx, p, z) == linear_scan_oracle(p, z)

    @pytest.mark.parametrize(
        "precision,seed", [("single", 116), ("double", 32)]
    )
    def test_growth_path_certifies(self, precision, seed):
        """Seeds known to need one enlargement still end fully separated."""
        p = gen_uniform_gap_partition(15, 1, 5, seed=seed, precision=precision)
        one = p.values.dtype.type
        h, r, stats = compute_h_r(p)
        assert stats.increments == 1
        assert h > one(1) / np.diff(p.values - p.values[0]).min()
        floors = np.floor(h * (p.values - p.values[0]))
        assert np.all(floors[1:] > floors[:-1])
        assert r == int(floors[-1]) < 2 ** 32

    def test_determinism(self):
        p = gen_uniform_gap_partition(255, 1, 5, seed=7)
        a = compute_h_r(p)
        b = compute_h_r(p)
        assert a[0] == b[0] and a[1] == b[1]
        ka = build_index(p, *a[:2]).k
        kb = build_index(p, *b[:2]).k
        assert np.array_equal(ka, kb)

    def test_parameter_validation(self):
        p = worked_partition()
        with pytest.raises(ValueError):
            compute_h_r(p, q=0)

    def test_gap_wider_than_interval_count(self):
        """q > N leaves nothing to separate; the index still resolves."""
        p = validate_partition([0.0, 2.5])
        h, r, _ = compute_h_r(p, q=2)
        idx = build_index(p, h, r, q=2)
        for z in boundary_probes(p):
            assert direct_search(idx, p, z) == 0

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_monotone_bucket_function(self, precision):
        """floor(H*(a-x0)) >= floor(H*(b-x0)) for adjacent representable a > b."""
        p = gen_uniform_gap_partition(64, 1, 5, seed=13, precision=precision)
        h, r, _ = compute_h_r(p)
        t = p.values.dtype.type
        rng = np.random.default_rng(5)
        base = rng.uniform(0, float(p.values[-1]), size=200).astype(p.values.dtype)
        up = np.nextafter(base, t(np.inf))
        jb = np.floor(h * (base - p.values[0]))
        ju = np.floor(h * (up - p.values[0]))
        assert np.all(ju >= jb)


class TestClosedForm:
    def test_worked_example(self):
        h, r = closed_form_h_r(worked_partition())
        assert r == 7
        assert h == pytest.approx(6.36, abs=0.01)

    def test_gap_wider_than_interval_count(self):
        p = validate_partition([0.0, 2.5])
        assert closed_form_h_r(p, q=2) == closed_form_h_r(p, q=1) == (0.8, 2)


class TestBuildIndex:
    def test_worked_k_table(self):
        p = worked_partition()
        h, r, _ = compute_h_r(p)
        idx = build_index(p, h, r)
        assert idx.k.tolist() == [0, 1, 1, 2, 3, 3]
        assert idx.k.dtype == np.uint32

    def test_degenerate_two_knots(self):
        p = validate_partition([0.0, 1.0])
        h, r, _ = compute_h_r(p)
        assert r == 1
        idx = build_index(p, h, r)
        assert idx.k.tolist() == [0, 1]

    @pytest.mark.parametrize("size", [15, 255, 1023])
    def test_bucket_identity_at_knots(self, size):
        """k[f(X_i)] = i whenever the bucket is fresh at knot i (gap 1)."""
        p = gen_uniform_gap_partition(size, 1, 5, seed=size)
        h, r, _ = compute_h_r(p)
        idx = build_index(p, h, r)
        f = np.floor(h * (p.values - p.values[0])).astype(np.int64)
        assert np.array_equal(idx.k[f], np.arange(size))

    def test_k_non_decreasing_with_endpoints(self):
        p = gen_uniform_gap_partition(129, 1, 5, seed=3)
        h, r, _ = compute_h_r(p)
        idx = build_index(p, h, r)
        assert idx.k[0] == 0
        assert idx.k[r] == p.n_intervals
        assert np.all(np.diff(idx.k.astype(np.int64)) >= 0)

    def test_gap2_table_definition(self):
        """For gap 2, k[j] = max{i : f(X_i) <= j}, checked by brute force."""
        p = gen_uniform_gap_partition(33, 1, 5, seed=21)
        h, r, _ = compute_h_r(p, q=2)
        idx = build_index(p, h, r, q=2)
        f = np.floor(h * (p.values - p.values[0])).astype(np.int64)
        for j in range(r + 1):
            assert idx.k[j] == max(i for i in range(len(f)) if f[i] <= j)

    @pytest.mark.parametrize("q", [0, -1])
    def test_gap_below_one_rejected(self, q):
        """As in compute_h_r, a gap below 1 is refused before the table is
        allocated.  Such an index makes no correcting comparison, so it
        answered wherever K's candidate is one past the answer."""
        p = gen_uniform_gap_partition(4096, 1, 5, seed=24)
        h, r, _ = compute_h_r(p)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="gap must be >= 1"):
                build_index(p, h, r, q=q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < r, (peak, r)

    def test_inconsistent_pair_rejected(self):
        p = worked_partition()
        h, r, _ = compute_h_r(p)
        with pytest.raises(ValueError):
            build_index(p, h, r + 3)

    @pytest.mark.parametrize("div", [2, 4])
    def test_last_knot_in_last_bucket_rejected(self, div):
        """At gap 1 every knot i adds one at bucket f(X_{i-1}) + 1, so a
        consistent (h, r) with f(X_{N-1}) = R would write past K.  It is
        refused by name before K is allocated; gap 2 adds at f(X_i) <= R
        and builds."""
        p = gen_uniform_gap_partition(2**16 + 1, 1, 5, seed=5)
        h, _, _ = compute_h_r(p)
        h = h / div
        r = int(np.floor(h * (p.values[-1] - p.values[0])))
        assert np.floor(h * (p.values[-2] - p.values[0])) == r
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"f\(X_65535\) = {r} is not below R = {r}"):
                build_index(p, h, r, q=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < r, (peak, r)
        assert build_index(p, h, r, q=2).k[-1] == p.n_intervals


    def test_exact_python_float_h_kept_in_knot_precision(self):
        """A Python-float h that the knots' precision holds exactly builds
        the index that h's own type builds, and the reference reads it."""
        for precision in ("single", "double"):
            p = gen_uniform_gap_partition(4097, 1, 5, seed=3, precision=precision)
            h, r, _ = compute_h_r(p)
            idx = build_index(p, float(h), r)
            assert idx.h.dtype == p.values.dtype and idx.h == h
            assert idx.k.tobytes() == build_index(p, h, r).k.tobytes()
            for z in boundary_probes(p)[:50]:
                assert direct_search(idx, p, z) == linear_scan_oracle(p, z)

    @pytest.mark.parametrize("kind", [np.float64, float])
    def test_inexact_h_rejected(self, kind):
        """A float64 or Python-float h that float32 cannot hold is refused,
        as load_index refuses it in a file, before anything is allocated."""
        p = gen_uniform_gap_partition(4097, 1, 5, seed=3, precision="single")
        h, r, _ = compute_h_r(p)
        wide = kind(np.float64(h) * (1 + 2.0 ** -30))
        assert float(np.float32(wide)) != wide
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="is not a single value"):
                build_index(p, wide, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < r, (peak, r)


class TestSearchKernels:
    def test_worked_example_queries(self):
        p = worked_partition()
        idx, _ = build(p)
        assert direct_search(idx, p, 0.6) == 1  # bucket 3 holds knot 2
        assert direct_search(idx, p, 0.0) == 0
        assert direct_search(idx, p, np.nextafter(1.1, -np.inf)) == 2

    def test_out_of_domain(self):
        p = worked_partition()
        idx, _ = build(p)
        with pytest.raises(OutOfDomain):
            direct_search(idx, p, 1.1)
        with pytest.raises(OutOfDomain):
            direct_search(idx, p, -0.5)

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_exhaustive_small_sweep(self, precision):
        for size in range(2, 65):
            p = gen_uniform_gap_partition(size, 1, 5, seed=size, precision=precision)
            idx, _ = build(p)
            z = boundary_probes(p)
            want = np.array([linear_scan_oracle(p, v) for v in z])
            assert [direct_search(idx, p, v) for v in z] == want.tolist(), size
            fused = prepare("direct-cache", p).lanes(z)
            assert np.array_equal(fused, want), size

    def test_gap2_examples(self):
        p = validate_partition([0.0, 1.0, 2.0, 3.0])
        idx, _ = build(p, q=2)
        assert direct_search(idx, p, 0.5) == 0
        assert direct_search(idx, p, 0.0) == 0  # clamped read never fires

    @pytest.mark.parametrize("size", [15, 255, 4095])
    def test_gap2_matches_gap1_and_oracle(self, size):
        p = gen_uniform_gap_partition(size, 1, 5, seed=size)
        idx1, _ = build(p, q=1)
        idx2, _ = build(p, q=2)
        assert idx2.r <= idx1.r  # relaxation can only shrink the table
        z = random_queries(p, 5000, seed=size + 9)
        want = linear_scan_oracle_batch(p, z)
        got1 = [direct_search(idx1, p, v) for v in z.tolist()]
        got2 = [direct_search(idx2, p, v) for v in z.tolist()]
        assert got1 == want.tolist()
        assert got2 == want.tolist()

    def test_generic_gap3_matches_oracle(self):
        p = gen_uniform_gap_partition(63, 1, 5, seed=8)
        idx, _ = build(p, q=3)
        for z in boundary_probes(p):
            assert direct_search(idx, p, z) == linear_scan_oracle(p, z)

    def test_fused_matches_plain(self):
        p = gen_uniform_gap_partition(255, 1, 5, seed=10)
        idx, _ = build(p)
        z = random_queries(p, 10_000, seed=77)
        plain = [direct_search(idx, p, v) for v in z.tolist()]
        fused = prepare("direct-cache", p).lanes(z)
        assert plain == fused.tolist()

    def test_fused_record_layout(self):
        """One aligned record type: (idx, val) at offsets 0 and the value's
        width, 8 bytes in single precision and 16 in double, and every
        byte outside the two fields zero."""
        for precision, size in (("single", 4), ("double", 8)):
            p = gen_uniform_gap_partition(16, 1, 5, seed=1, precision=precision)
            fused = build(p, fused=True)[0].fused
            assert fused.dtype.names == ("idx", "val")
            assert fused.dtype.itemsize == 2 * size
            assert fused.dtype.fields["val"][1] == size
            raw = fused.view(np.uint8).reshape(len(fused), 2 * size)
            assert not raw[:, 4:size].any()

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_reference_refuses_fused_index(self, precision):
        """A fused index holds K only in its records; the reference refuses
        it by name and answers through the plain twin, which holds that K."""
        p = gen_uniform_gap_partition(255, 1, 5, seed=12, precision=precision)
        idx, _ = build(p, fused=True)
        plain, _ = build(p)
        assert idx.k is None
        assert np.array_equal(idx.fused["idx"], plain.k)
        with pytest.raises(ValueError, match=r"build\(p\)"):
            direct_search(idx, p, p.values[0])
        for z in boundary_probes(p):
            assert direct_search(plain, p, z) == linear_scan_oracle(p, z)

    def test_fused_requires_gap1(self):
        p = worked_partition()
        idx, _ = build(p, q=2)
        with pytest.raises(ValueError):
            with_fused(idx, p)

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_fused_from_loaded_index(self, tmp_path, precision):
        """with_fused gives a loaded gap-1 index the records build fills."""
        p = gen_uniform_gap_partition(5000, 1, 5, seed=14, precision=precision)
        save_index(build(p)[0], tmp_path / "t.idx")
        fused = with_fused(load_index(tmp_path / "t.idx"), p)
        want, _ = build(p, fused=True)
        assert fused.k is None and fused.fused.tobytes() == want.fused.tobytes()

    def test_fused_refuses_non_separating_h(self):
        """An index whose H (0.7 times the certified one, R = f(X_N) for it)
        puts two knots in one bucket gets no records: their searches would
        answer some queries wrong.  A certified index gets the same records
        as the fused build."""
        p = gen_uniform_gap_partition(4097, 1, 5, seed=3)
        idx, _ = build(p)
        h = idx.h * 0.7
        r = int(np.floor(h * (p.values[-1] - p.values[0])))
        bad = dataclasses.replace(idx, h=h, r=r)
        assert not separates(p.values, h, 1)
        with pytest.raises(ValueError, match="h does not separate the knots at gap 1"):
            with_fused(bad, p)
        want, _ = build(p, fused=True)
        assert with_fused(idx, p).fused.tobytes() == want.fused.tobytes()

    def test_fused_refuses_r_past_f_xn(self, tmp_path):
        """A file whose R is one past f(X_N), with one more K entry of N under
        a valid CRC, loads; with_fused refuses it as build_index does."""
        p = gen_uniform_gap_partition(255, 1, 5, seed=15)
        idx, _ = build(p)
        path = tmp_path / "t.idx"
        save_index(idx, path)
        raw = bytearray(path.read_bytes()[:48])
        struct.pack_into("<Q", raw, 24, idx.r + 1)
        k = np.append(idx.k, np.uint32(idx.n)).astype("<u4").tobytes()
        path.write_bytes(bytes(raw) + k + struct.pack("<I", zlib.crc32(k)))
        loaded = load_index(path)
        assert loaded.r == idx.r + 1
        with pytest.raises(ValueError, match="is not f"):
            with_fused(loaded, p)


class TestBracketing:
    """The raw candidate t = k[f(z)] sits within gap of the true index."""

    @pytest.mark.parametrize("q,allowed", [(1, {0, 1}), (2, {0, 1, 2})])
    def test_candidate_offsets(self, q, allowed):
        p = gen_uniform_gap_partition(255, 1, 5, seed=40)
        idx, _ = build(p, q=q)
        z = random_queries(p, 20_000, seed=41)
        want = linear_scan_oracle_batch(p, z)
        j = np.floor(idx.h * (z - idx.x0)).astype(np.int64)
        t = idx.k[j].astype(np.int64)
        offsets = set((t - want).tolist())
        assert offsets <= allowed


class TestSeparates:
    """``separates`` is certification's separation walk, which the index
    CLI also runs on a loaded H."""

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_certified_h_separates(self, q, precision):
        p = gen_uniform_gap_partition(20_000, 1, 5, seed=q, precision=precision)
        h, _, _ = compute_h_r(p, q=q)
        assert separates(p.values, h, q)
        assert not separates(p.values, h / 8, q)

    def test_matches_a_pair_by_pair_check(self):
        p = gen_uniform_gap_partition(1025, 1, 5, seed=5)
        h, _, _ = compute_h_r(p)
        f = np.floor(h / 1.5 * (p.values - p.values[0]))
        assert not (f[1:] > f[:-1]).all()
        assert not separates(p.values, h / 1.5, 1)
        assert separates(p.values, h / 1.5, 2) == (f[2:] > f[:-2]).all()

    def test_vacuous_past_n(self):
        p = validate_partition([0.0, 1.0, 2.0])
        assert separates(p.values, 1e-9, 3)
        assert not separates(p.values, 1e-9, 2)

    @pytest.mark.parametrize("h", [np.nan, np.inf, 0.0, -1.0, 1e308])
    def test_bad_h_fails_without_warning(self, h):
        """pytest turns warnings into errors, so a NaN or overflowing
        product that warned would raise here."""
        p = validate_partition([0.0, 1.0, 2.0, 4.0])
        assert not separates(p.values, h, 1)

    def test_certification_calls_it(self, monkeypatch):
        seen = []

        def spy(xs, h, q=1):
            seen.append((len(xs), q))
            return real(xs, h, q)

        real = direct.separates
        monkeypatch.setattr(direct, "separates", spy)
        compute_h_r(gen_uniform_gap_partition(300, 1, 5, seed=1), q=2)
        assert seen and all(call == (300, 2) for call in seen)


class TestOverflowCounts:
    """Overflow carries R + 1, the limit and N, and its one message."""

    @pytest.mark.parametrize(
        "precision, buckets", [("single", 4_000_000_001), ("double", 4_000_000_000)]
    )
    def test_certification_counts(self, precision, buckets):
        p = validate_partition([0.0, 2.5e-10, 1.0], precision)
        with pytest.raises(Overflow) as exc:
            compute_h_r(p)
        assert (exc.value.buckets, exc.value.limit, exc.value.n) == (buckets, 1 << 22, 2)
        assert str(exc.value) == f"{buckets} buckets over the limit of {1 << 22} for N = 2"

    def test_overflowed_h_counts_infinite_buckets(self):
        p = validate_partition(np.array([0.0, 1.42e-45, 1.0], dtype=np.float32))
        with pytest.raises(Overflow, match="inf buckets") as exc:
            compute_h_r(p)
        assert exc.value.buckets == np.inf

    def test_build_index_counts(self):
        p = validate_partition([0.0, 0.5, 1.0])
        with pytest.raises(Overflow) as exc:
            build_index(p, np.float64(2.0**23), 1 << 23)
        assert (exc.value.buckets, exc.value.limit, exc.value.n) == ((1 << 23) + 1, 1 << 22, 2)

    def test_pickles_with_its_counts(self):
        back = pickle.loads(pickle.dumps(Overflow(5, 4, 2)))
        assert (back.buckets, back.limit, back.n, str(back)) == (
            5, 4, 2, "5 buckets over the limit of 4 for N = 2"
        )


class TestTableLimit:
    """A table may hold R + 1 <= min(2**32, max(2**22, 32 (N + 1)))
    buckets; a longer one raises Overflow before anything R-sized is
    allocated."""

    def test_limit_values(self):
        assert direct._max_buckets(1) == 1 << 22
        assert direct._max_buckets((1 << 17) - 1) == 1 << 22
        assert direct._max_buckets(1 << 17) == 32 * ((1 << 17) + 1)
        assert direct._max_buckets((1 << 27) - 1) == 1 << 32
        assert direct._max_buckets(1 << 30) == 1 << 32

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("n", [2, (1 << 18) - 1])
    def test_last_bucket_count_accepted(self, n, precision):
        """Unit gaps certify H = 1 and R = floor(X_N): R + 1 at the limit
        passes and one bucket more is refused, naming both counts."""
        limit = direct._max_buckets(n)
        knots = np.arange(n + 1, dtype=np.float64)
        knots[-1] = limit - 1
        h, r, _ = compute_h_r(validate_partition(knots, precision))
        assert (h, r) == (1.0, limit - 1)
        knots[-1] = limit
        with pytest.raises(Overflow, match=f"{limit + 1} buckets .* limit of {limit} "):
            compute_h_r(validate_partition(knots, precision))

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_three_knot_table_refused_without_allocating(self, precision):
        """[0, 2.5e-10, 1] certifies R of about 4.0e9 at gap 1, a 14.9 GiB
        K under a 2**32 limit; at N = 2 the limit is 2**22.  compute_h_r
        is asserted first: it allocates nothing R-sized."""
        p = validate_partition([0.0, 2.5e-10, 1.0], precision)
        tracemalloc.start()
        try:
            with pytest.raises(Overflow, match=f"limit of {1 << 22} for N = 2"):
                compute_h_r(p)
            for call in (
                lambda: build(p),
                lambda: prepare("direct", p),
                lambda: prepare("direct-cache", p),
            ):
                with pytest.raises(Overflow):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("fused", [False, True])
    def test_build_index_refuses_long_table(self, fused):
        """A caller's own consistent (h, r) meets the same limit: 2**23 + 1
        buckets over N = 2, twice the limit, raise before K exists."""
        p = validate_partition([0.0, 0.5, 1.0])
        tracemalloc.start()
        try:
            with pytest.raises(Overflow, match=f"{(1 << 23) + 1} buckets .* limit of {1 << 22} "):
                build_index(p, np.float64(2.0 ** 23), 1 << 23, fused=fused)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_three_knot_wider_gaps_still_build(self, q, precision):
        p = validate_partition([0.0, 2.5e-10, 1.0], precision)
        idx, _ = build(p, q=q)
        assert idx.r == 1
        z = boundary_probes(p)
        want = [linear_scan_oracle(p, v) for v in z]
        assert [direct_search(idx, p, v) for v in z] == want
        if q == 2:
            assert prepare("direct-gap2", p).lanes(z).tolist() == want


def repeat_table(p, h, r, q):
    """K as the run-length construction built it, the reference for the
    chunked fill: every knot index repeated over its run of buckets."""
    f = np.floor(h * (p.values - p.values[0])).astype(np.int64)
    if q == 1:
        counts = np.concatenate([[1], np.diff(f)])
    else:
        counts = np.concatenate([np.diff(f), [1]])
    k = np.repeat(np.arange(p.n_intervals + 1, dtype=np.uint32), counts)
    assert len(k) == r + 1
    return k


def repeat_records(p, k):
    """The fused records' bytes as they were built from that K, with the
    double-precision value after 4 zeroed padding bytes."""
    fields = {
        "single": [("idx", "<u4"), ("val", "<f4")],
        "double": [("idx", "<u4"), ("pad", "<u4"), ("val", "<f8")],
    }
    fused = np.zeros(len(k), dtype=fields[p.precision])
    fused["idx"] = k
    fused["val"] = p.values[k]
    return fused.tobytes()


#: Seeds of 15-knot uniform-gap heads whose gap-q certification grows H at
#: each precision; the wider gaps of the tail leave the initial H as it is.
GROWTH_SEEDS = {
    ("single", 1): 116, ("single", 2): 149, ("single", 3): 32,
    ("double", 1): 32, ("double", 2): 3, ("double", 3): 22,
}


def chunk_partition(kind, n, precision, q):
    """n intervals: uniform gaps, a second knot that shares bucket 0 with
    the first at every gap q > 1, or a head that needs H growth."""
    dtype = np.float32 if precision == "single" else np.float64
    rng = np.random.default_rng(10 * n + q)
    if kind == "growth":
        head = gen_uniform_gap_partition(
            15, 1, 5, seed=GROWTH_SEEDS[precision, q], precision=precision
        ).values.astype(np.float64)
        knots = np.concatenate([head, head[-1] + np.cumsum(rng.uniform(3, 5, n - 14))])
    else:
        knots = np.concatenate([[0.0], np.cumsum(rng.uniform(1, 5, n))])
        if kind == "shared":
            knots[1] = 0.25
    return validate_partition(knots.astype(dtype))


class TestChunkedConstruction:
    """Certification walks the knots in windows of direct._WINDOW pairs and
    the table fill in chunks of direct._CHUNK knots; everything they
    produce matches a whole-array pass."""

    C, W = direct._CHUNK, direct._WINDOW

    @pytest.mark.parametrize("kind", ["uniform", "shared", "growth"])
    @pytest.mark.parametrize(
        "n", [C - 1, C, C + 1, 3 * C + 7, W - 1, W, W + 1, 3 * W + 7]
    )
    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_tables_match_repeat_construction(self, kind, n, q, precision):
        p = chunk_partition(kind, n, precision, q)
        h, r, stats = compute_h_r(p, q=q)
        want = repeat_table(p, h, r, q)
        if kind == "growth":
            assert stats.increments > 0
        if kind == "shared" and q > 1:
            assert want[0] > 0  # several leading knots in bucket 0
        idx = build_index(p, h, r, q=q)
        assert idx.k.dtype == want.dtype and idx.k.tobytes() == want.tobytes()
        assert not idx.k.flags.writeable
        if q == 1:
            records = repeat_records(p, want)
            for fused in (build_index(p, h, r, fused=True), with_fused(idx, p)):
                assert fused.k is None
                assert fused.fused.dtype.isalignedstruct
                assert fused.fused.tobytes() == records
                assert fused.fused["idx"].tobytes() == want.tobytes()

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("side", [0, 1])
    def test_collision_across_chunk_edge(self, q, side):
        """Pairs (i - q, i) are checked in windows of _WINDOW pairs from
        i = q: a collision at the last pair of the first window or the
        first of the second is reported where a whole-array check finds
        it, ahead of a later one."""
        c = q + self.W - 1 + side
        # Offsets from X_0 = -1e9 are exact multiples of 64 in float32, so
        # knots that close together round onto one offset.
        knots = 128.0 * np.arange(3 * self.W, dtype=np.float64)
        knots[0] = -1e9
        for at in (c, c + self.W + 5):
            knots[at - q + 1 : at + 1] = knots[at - q] + np.arange(1, q + 1)
        p = validate_partition(knots.astype(np.float32))
        off = p.values - p.values[0]
        assert (np.flatnonzero(off[q:] == off[:-q]) + q).tolist() == [c, c + self.W + 5]
        with pytest.raises(NotDistinguishable) as exc:
            compute_h_r(p, q=q)
        assert exc.value.position == c

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("algorithm", ["direct", "direct-gap2", "direct-cache"])
    def test_setup_allocates_what_it_keeps(self, algorithm, precision):
        """prepare's peak stays within 1.15x the tables it keeps: the
        construction allocates no N- or R-sized temporary, and a fused
        index no K besides its records."""
        p = gen_uniform_gap_partition((1 << 16) + 1, 1, 5, seed=91, precision=precision)
        tracemalloc.start()
        try:
            prep = prepare(algorithm, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        idx = prep.structure
        kept = sum(a.nbytes for a in (idx.k, idx.fused) if a is not None)
        assert peak < 1.15 * kept, (peak, kept)
