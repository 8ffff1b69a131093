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
    HGrowthStats,
    build,
    build_index,
    closed_form_h_r,
    compute_h_r,
    direct_search,
    verify_index,
    with_fused,
)
from fastsearch.errors import IndexFileError, NotDistinguishable, OutOfDomain, Overflow
from fastsearch.partition import (
    gen_queries,
    gen_uniform_gap_partition,
    linear_scan_oracle,
    linear_scan_oracle_batch,
    validate_partition,
)

from helpers import (
    boundary_probes,
    breakpoints,
    direct_rule,
    random_queries,
    same_build,
    true_answers,
)
from reference import certify_seq, separates_seq

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
        refused by name, as the separation failure it is, before K is
        allocated.  Gap 2 adds at f(X_i) <= R, so that check is not made
        there: H / 2 still separates the knots at gap 2 and builds, and
        H / 4 does not, which the fill finds."""
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
        with pytest.raises(ValueError, match="h does not separate the knots at gap 1"):
            build_index(p, h, r, q=1)
        if div == 2:
            assert separates_seq(p.values, h, 2)
            assert build_index(p, h, r, q=2).k[-1] == p.n_intervals
        else:
            assert not separates_seq(p.values, h, 2)
            with pytest.raises(ValueError, match="h does not separate the knots at gap 2"):
                build_index(p, h, r, q=2)


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

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0])
    def test_non_finite_or_non_positive_h_rejected(self, h, q):
        """An h that is not finite and positive is refused by name, as
        load_index refuses it in a file, before anything is allocated and
        without a warning.  -1.0 with its own R = f(X_N) < 0 asked numpy
        for a table of negative length.  The certified R's K would take
        over 16 KiB."""
        p = gen_uniform_gap_partition(16385, 1, 5, seed=3)
        _, r, _ = compute_h_r(p, q=q)
        assert 4 * r > 1 << 14
        if h == -1.0:
            r = int(np.floor(h * (p.values[-1] - p.values[0])))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^h = .* is not a finite positive double value$"):
                build_index(p, h, r, q=q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 14, peak

    @pytest.mark.parametrize(
        "call",
        [
            lambda p, h, r: build_index(p, h, float(r)),
            lambda p, h, r: build_index(p, h, r, q=1.0),
            lambda p, h, r: build_index(p, h, r, q=2.5),
            lambda p, h, r: build(p, q=1.0),
        ],
        ids=["build_index-r-float", "build_index-q-1.0", "build_index-q-2.5", "build-q-1.0"],
    )
    def test_non_integer_gap_or_r_rejected(self, call):
        """A float gap or R is refused by ``operator.index`` before anything
        is allocated.  It used to fail by accident: a float R in np.zeros,
        q = 1.0 or 2.5 in slicing after K was allocated, and build's q = 1.0
        inside the initial guess."""
        p = gen_uniform_gap_partition(4097, 1, 5, seed=3)
        h, r, _ = compute_h_r(p)
        tracemalloc.start()
        try:
            with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
                call(p, h, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < r, (peak, r)

    def test_bool_gap_is_an_int(self):
        """build(p, q=True) kept True as its gap, which ``index save``
        printed as gap=True; it is the int 1."""
        idx, _ = build(gen_uniform_gap_partition(257, 1, 5, seed=3), q=True)
        assert type(idx.q) is int and idx.q == 1


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

    def test_partition_not_the_index_refused(self):
        """An index searched over a partition it was not built for raised a
        bare IndexError for a bucket past its table; it raises ValueError
        when N or X_0 differ, as ``index load --partition`` refuses them,
        and when a longer X_N puts the query past the index's last bucket."""
        p = gen_uniform_gap_partition(4097, 1, 5, seed=3)
        z = random_queries(p, 100, seed=1)
        longer = p.values.copy()
        longer[-1] += 100.0
        for built, searched in (
            (p.values[:100], p.values),
            (p.values + 1.0, p.values),
            (p.values, longer),
        ):
            idx, _ = build(validate_partition(built))
            with pytest.raises(ValueError, match="^partition does not match the index$"):
                direct_search(idx, validate_partition(searched), searched[-1] - 1.0)
        idx, _ = build(p)
        assert [direct_search(idx, p, v) for v in z.tolist()] == linear_scan_oracle_batch(p, z).tolist()

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
        bad = dataclasses.replace(idx, h=h, r=r, k=idx.k[: r + 1])
        assert not separates_seq(p.values, h, 1)
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
    """build_index refuses an h that does not separate the knots at gap q,
    by the whole-array condition ``separates_seq``; that refusal is the
    library's one separation proof, which certification and the index CLI
    rely on."""

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_certified_h_separates(self, q, precision):
        p = gen_uniform_gap_partition(20_000, 1, 5, seed=q, precision=precision)
        h, r, _ = compute_h_r(p, q=q)
        assert separates_seq(p.values, h, q)
        assert build_index(p, h, r, q=q).k[-1] == p.n_intervals
        h = h / 8
        assert not separates_seq(p.values, h, q)
        with pytest.raises(ValueError, match=f"^h does not separate the knots at gap {q}"):
            build_index(p, h, int(np.floor(h * (p.values[-1] - p.values[0]))), q=q)

    def test_matches_a_pair_by_pair_check(self):
        p = gen_uniform_gap_partition(1025, 1, 5, seed=5)
        h, _, _ = compute_h_r(p)
        h = h / 1.5
        f = np.floor(h * (p.values - p.values[0]))
        r = int(f[-1])
        assert not (f[1:] > f[:-1]).all()
        with pytest.raises(ValueError, match="^h does not separate the knots at gap 1$"):
            build_index(p, h, r)
        assert (f[2:] > f[:-2]).all() and separates_seq(p.values, h, 2)
        assert build_index(p, h, r, q=2).k[-1] == p.n_intervals

    def test_vacuous_past_n(self):
        p = validate_partition([0.0, 1.0, 2.0])
        assert build_index(p, 1e-9, 0, q=3).k.tolist() == [2]
        with pytest.raises(ValueError, match="^h does not separate the knots at gap 2$"):
            build_index(p, 1e-9, 0, q=2)

    @pytest.mark.parametrize("h", [np.nan, np.inf, 0.0, -1.0, 1e308])
    def test_bad_h_fails_without_warning(self, h):
        """pytest turns warnings into errors, so a NaN or overflowing
        product that warned would raise here.  1e308 is finite and positive
        but puts X_N past float64's range: its f(X_N) is no R."""
        p = validate_partition([0.0, 1.0, 2.0, 4.0])
        assert not separates_seq(p.values, h, 1)
        for q in (1, 2, 3):
            with pytest.raises(ValueError, match="is not a finite positive|is not f"):
                build_index(p, h, 4, q=q)

    def test_certification_calls_it(self, monkeypatch):
        """compute_h_r is build's certification: one initial guess and one
        fill for an H0 that separates the knots, and that fill's h and r."""
        guesses, fills = spy_construction(monkeypatch)
        p = gen_uniform_gap_partition(300, 1, 5, seed=1)
        h, r, stats = compute_h_r(p, q=2)
        assert len(guesses) == 1 and fills == [(guesses[0][0], guesses[0][1], 2)]
        assert (h, r, stats.increments) == (*fills[0][:2], 0) == certify_seq(p.values, 2)


def spy_construction(monkeypatch):
    """Record ``build``'s initial guesses (H0, R0, span) and the (h, r, q)
    of every table fill it asks ``build_index`` for."""
    guesses, fills = [], []

    def initial_h(xs, q):
        guesses.append(real_initial_h(xs, q))
        return guesses[-1]

    def fill(p, h, r, q=1, fused=False):
        fills.append((h, r, q))
        return real_build_index(p, h, r, q=q, fused=fused)

    real_initial_h, real_build_index = direct._initial_h, direct.build_index
    monkeypatch.setattr(direct, "_initial_h", initial_h)
    monkeypatch.setattr(direct, "build_index", fill)
    return guesses, fills


def one_collision(n, q, c, precision):
    """Knots 2i, except that knots c - q + 1 .. c sit a quarter, a half and
    three quarters above knot c - q.  With h = 0.5, knot i is in bucket i
    and those q + 1 knots share bucket c - q, so (c - q, c) is the one pair
    that h fails to separate at gap q."""
    knots = 2.0 * np.arange(n + 1)
    knots[c - q + 1 : c + 1] = knots[c - q] + 0.25 * np.arange(1, q + 1)
    return validate_partition(knots, precision)


class TestSeparationInTheFill:
    """build_index proves separation from the floors its fill computes and
    returns no K for an h that fails it.  build fills the table for the
    initial guess H0 first and grows H only while the fill refuses it,
    ending with the h and r of the whole-array ``certify_seq``."""

    C = direct._CHUNK

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_refuses_scaled_down_h(self, q, precision):
        """0.7 times the certified H, with R = f(X_N) for it, puts knots q
        apart into one bucket.  In double at gap 1 the K built from it
        answered 71 of 100,000 ``gen_queries(p, 100_000, seed=9)`` queries
        wrong; no K is returned now, plain or fused."""
        p = gen_uniform_gap_partition(4097, 1, 5, seed=3, precision=precision)
        h = compute_h_r(p, q=q)[0] * p.values.dtype.type(0.7)
        r = int(np.floor(h * (p.values[-1] - p.values[0])))
        f = np.floor(h * (p.values - p.values[0]))
        assert not separates_seq(p.values, h, q) and f[-2] < f[-1]
        for fused in (False, True) if q == 1 else (False,):
            with pytest.raises(ValueError, match=f"^h does not separate the knots at gap {q}$"):
                build_index(p, h, r, q=q, fused=fused)

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize(
        "at", ["q", C, C + 1, C + 2, C + 3, 2 * C + 1, "n-1", "n"]
    )
    def test_one_failing_pair_anywhere(self, at, q, precision):
        """Chunk m checks the pairs (i - q, i) for i in [1 + mC, 1 + (m+1)C),
        reading q knots of the chunk before it.  A lone failing pair at
        either side of a chunk edge, at the first pair or at the last, is
        found; the same knots without it build the run-length K."""
        n = 3 * self.C + 7
        c = {"q": q, "n-1": n - 1, "n": n}.get(at, at)
        p = one_collision(n, q, c, precision)
        h = p.values.dtype.type(0.5)
        f = np.floor(h * (p.values - p.values[0]))
        assert (np.flatnonzero(f[q:] <= f[:-q]) + q).tolist() == [c]
        assert not separates_seq(p.values, h, q)
        r = int(f[-1])
        with pytest.raises(ValueError, match=f"h does not separate the knots at gap {q}"):
            build_index(p, h, r, q=q)
        clean = validate_partition(2.0 * np.arange(n + 1), precision)
        want = repeat_table(clean, h, n, q)
        assert build_index(clean, h, n, q=q).k.tobytes() == want.tobytes()

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_build_walks_only_when_h0_fails(self, q, monkeypatch):
        """build makes one initial guess and one fill when H0 separates the
        knots; when H0 needs growth, it fills once for H0 and once for each
        grown H."""
        guesses, fills = spy_construction(monkeypatch)
        for precision in ("single", "double"):
            p = gen_uniform_gap_partition(20_000, 1, 5, seed=q, precision=precision)
            for fused in (False, True) if q == 1 else (False,):
                assert build(p, q=q, fused=fused)[1].increments == 0
                assert len(guesses) == len(fills) == 1
                assert fills[0] == (guesses[0][0], guesses[0][1], q)
                guesses.clear()
                fills.clear()
            head = gen_uniform_gap_partition(
                15, 1, 5, seed=GROWTH_SEEDS[precision, q], precision=precision
            )
            increments = build(head, q=q)[1].increments
            assert increments > 0 and len(guesses) == 1
            assert len(fills) == increments + 1 and {f[2] for f in fills} == {q}
            guesses.clear()
            fills.clear()

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_growth_starts_from_refused_h0(self, q, precision, monkeypatch):
        """When the fill refuses H0, build computes H0 once and grows H from
        it: each h is filled once, in strictly increasing order from H0,
        ending at the h and r that ``certify_seq`` certifies."""
        guesses, fills = spy_construction(monkeypatch)
        p = chunk_partition("growth", 3 * self.C + 7, precision, q)
        _, stats = build(p, q=q)
        assert len(guesses) == 1 and fills[0][0] == guesses[0][0]
        hs = [f[0] for f in fills]
        assert stats.increments == len(hs) - 1 > 0
        assert all(a < b for a, b in zip(hs, hs[1:]))
        h, r, increments = certify_seq(p.values, q)
        assert fills[-1][:2] == (h, r) and increments == stats.increments

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_growth_doubles_the_increment(self, precision, monkeypatch):
        """Each refusal grows h by twice the last increment, starting at one
        ulp of H0, and R follows h.  No partition found here needs more
        than one increment, so the fill is made to refuse five times."""
        guesses, fills = spy_construction(monkeypatch)
        refusals = iter(range(5))

        def fill(*args):
            return next(refusals, None) is None and real_fill(*args)

        real_fill = direct._fill_table
        monkeypatch.setattr(direct, "_fill_table", fill)
        p = gen_uniform_gap_partition(4097, 1, 5, seed=3, precision=precision)
        assert build(p)[1].increments == 5
        one = p.values.dtype.type
        h0 = guesses[0][0]
        hs = [f[0] for f in fills]
        ulp = np.nextafter(h0, one(np.inf)) - h0
        assert hs == [h0 + ulp * one(2**k - 1) for k in range(6)]
        span = p.values[-1] - p.values[0]
        assert [f[1] for f in fills] == [int(np.floor(h * span)) for h in hs]

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["head", "growth", "uniform", "shared"])
    def test_build_is_compute_h_r_then_build_index(self, kind, q, precision):
        """Bit for bit: h (type and bits), r, K or the records, and the
        growth count are ``certify_seq``'s then build_index's, and
        compute_h_r gives the same h, r and count, on the partitions whose
        certification grows H (``TestComputeHR::test_growth_path_certifies``'
        among them) and on the chunked-construction partitions."""
        if kind == "head":
            p = gen_uniform_gap_partition(
                15, 1, 5, seed=GROWTH_SEEDS[precision, q], precision=precision
            )
        else:
            p = chunk_partition(kind, 3 * self.C + 7, precision, q)
        h, r, increments = certify_seq(p.values, q)
        stats = HGrowthStats(increments)
        if kind in ("head", "growth"):
            assert increments > 0
        got = compute_h_r(p, q=q)
        assert got[0].tobytes() == h.tobytes() and got[1:] == (r, stats)
        for fused in (False, True) if q == 1 else (False,):
            want = build_index(p, h, r, q=q, fused=fused)
            assert same_build(build(p, q=q, fused=fused), want, stats)

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("fused", [False, True])
    def test_growth_frees_the_refused_table(self, fused, precision):
        """A refused table is freed before the grown H's is allocated, so
        build's peak on a head that needs growth, extended to 2**16
        intervals, stays within 1.15x the table it keeps."""
        p = chunk_partition("growth", 1 << 16, precision, 1)
        tracemalloc.start()
        try:
            idx, stats = build(p, fused=fused)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.increments > 0
        kept = (idx.fused if fused else idx.k).nbytes
        assert peak < 1.15 * kept, (peak, kept)


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
    """The initial guess and the table fill walk the knots in chunks of
    ``direct._chunk(N)`` knots, 4096 for every N here; everything they
    produce matches a whole-array pass."""

    C = direct._chunk(1 << 16)

    @pytest.mark.parametrize("kind", ["uniform", "shared", "growth"])
    @pytest.mark.parametrize(
        "n", [C - 1, C, C + 1, 3 * C + 7, 2 * C - 1, 2 * C, 2 * C + 1, 6 * C + 7]
    )
    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_tables_match_repeat_construction(self, kind, n, q, precision):
        p = chunk_partition(kind, n, precision, q)
        assert direct._chunk(n) == self.C
        h, r, increments = certify_seq(p.values, q)
        want = repeat_table(p, h, r, q)
        if kind == "growth":
            assert increments > 0
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
        """The initial guess checks pairs (i - q, i) in pieces of C pairs
        from i = q: a collision at the last pair of the first piece or the
        first of the second is reported where a whole-array check finds
        it, ahead of a later one."""
        c = q + self.C - 1 + side
        # Offsets from X_0 = -1e9 are exact multiples of 64 in float32, so
        # knots that close together round onto one offset.
        knots = 128.0 * np.arange(3 * self.C, dtype=np.float64)
        knots[0] = -1e9
        for at in (c, c + self.C + 5):
            knots[at - q + 1 : at + 1] = knots[at - q] + np.arange(1, q + 1)
        p = validate_partition(knots.astype(np.float32))
        assert direct._chunk(p.n_intervals) == self.C
        off = p.values - p.values[0]
        assert (np.flatnonzero(off[q:] == off[:-q]) + q).tolist() == [c, c + self.C + 5]
        with pytest.raises(NotDistinguishable) as exc:
            compute_h_r(p, q=q)
        assert exc.value.position == c

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("algorithm", ["direct", "direct-gap2", "direct-cache"])
    def test_setup_allocates_what_it_keeps(self, algorithm, precision):
        """prepare's peak stays within 1.15x the tables it keeps: the
        construction allocates no N- or R-sized temporary, and a fused
        index no K besides its records."""
        assert_setup_allocates_what_it_keeps(algorithm, (1 << 16) + 1, precision)


def assert_setup_allocates_what_it_keeps(algorithm, n, precision):
    p = gen_uniform_gap_partition(n, 1, 5, seed=91, precision=precision)
    tracemalloc.start()
    try:
        prep = prepare(algorithm, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    idx = prep.structure
    kept = sum(a.nbytes for a in (idx.k, idx.fused) if a is not None)
    assert peak < 1.15 * kept, (peak, kept)


class TestGrownChunk:
    """From N = 2**18 up the fill's chunk follows N (``direct._chunk``).  At
    N = 2**19 + 7 it is larger than at the shapes above, and the fill still
    builds the run-length K and records and refuses a lone failing pair at
    the chunk edges."""

    N = (1 << 19) + 7
    C = direct._chunk(N)

    def test_chunk_is_grown(self):
        assert self.C > direct._chunk((1 << 16) + 1) == direct._CHUNK

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_tables_match_repeat_construction(self, precision, q):
        p = chunk_partition("uniform", self.N, precision, q)
        h, r, _ = compute_h_r(p, q=q)
        want = repeat_table(p, h, r, q)
        assert build_index(p, h, r, q=q).k.tobytes() == want.tobytes()
        if q == 1:
            assert build_index(p, h, r, fused=True).fused.tobytes() == repeat_records(p, want)

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("edge", [1, 2])
    @pytest.mark.parametrize("side", [0, 1])
    def test_one_failing_pair_at_chunk_edges(self, side, edge, q, precision):
        """The last pair of chunk ``edge`` - 1 or the first of chunk ``edge``."""
        c = edge * self.C + side
        p = one_collision(self.N, q, c, precision)
        h = p.values.dtype.type(0.5)
        f = np.floor(h * (p.values - p.values[0]))
        assert (np.flatnonzero(f[q:] <= f[:-q]) + q).tolist() == [c]
        for fused in (False, True) if q == 1 else (False,):
            with pytest.raises(ValueError, match=f"^h does not separate the knots at gap {q}$"):
                build_index(p, h, int(f[-1]), q=q, fused=fused)

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("algorithm", ["direct", "direct-gap2", "direct-cache"])
    def test_setup_allocates_what_it_keeps(self, algorithm, precision):
        assert_setup_allocates_what_it_keeps(algorithm, self.N, precision)


class TestCappedChunk:
    """From N = 2**20, the bulk benchmark's shape, the fill's chunk is
    capped at 2**14 knots, and the fill still builds the run-length K and
    records."""

    N = (1 << 20) + 1
    C = direct._chunk(N)

    def test_chunk_is_capped(self):
        assert self.C == direct._chunk(16 * self.N) == 1 << 14 > TestGrownChunk.C

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_tables_match_repeat_construction(self, precision, q):
        p = chunk_partition("uniform", self.N, precision, q)
        h, r, _ = compute_h_r(p, q=q)
        want = repeat_table(p, h, r, q)
        assert build_index(p, h, r, q=q).k.tobytes() == want.tobytes()
        if q == 1:
            assert build_index(p, h, r, fused=True).fused.tobytes() == repeat_records(p, want)


def with_entry(idx, j, value):
    """``idx`` with K_j set to ``value``."""
    k = idx.k.copy()
    k[j] = value
    return dataclasses.replace(idx, k=k)


class TestVerifyIndex:
    """``verify_index`` proves a plain index exact for a partition: its K
    must be the table ``build_index`` fills for its (h, r, q)."""

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_refuses_every_one_entry_change(self, q, precision):
        """Every change of one K entry by +1 or -1, kept in [0, N], is
        refused by name, although some of them change no answer: the proof
        covers the table, not only the answers at the breakpoints."""
        p = gen_uniform_gap_partition(16, 1, 5, seed=q, precision=precision)
        idx, _ = build(p, q=q)
        verify_index(idx, p)
        z = breakpoints(p, idx)
        harmless = 0
        for j in range(idx.r + 1):
            for value in (int(idx.k[j]) - 1, int(idx.k[j]) + 1):
                if not 0 <= value <= idx.n:
                    continue
                changed = with_entry(idx, j, value)
                with pytest.raises(
                    IndexFileError, match=rf"^K\[{j}\] = {value} is not the table built from h$"
                ):
                    verify_index(changed, p)
                harmless += np.array_equal(direct_rule(changed.k, p.values, idx, z), true_answers(p, z))
        assert harmless > 0

    def test_refuses_a_raised_entry_in_a_file(self, tmp_path):
        """K[100] raised by 5, kept at or below N under a recomputed CRC,
        loads, and ``direct_search`` then answers 27 of 20,000 queries
        wrong; the proof names the entry."""
        p = gen_uniform_gap_partition(257, 1, 5, seed=4)
        path = tmp_path / "t.idx"
        save_index(build(p)[0], path)
        raw = bytearray(path.read_bytes())
        k = np.frombuffer(raw, dtype="<u4", offset=48, count=(len(raw) - 52) // 4).copy()
        k[100] += 5
        assert k[100] <= p.n_intervals
        raw[48:-4] = k.tobytes()
        raw[-4:] = struct.pack("<I", zlib.crc32(k.tobytes()))
        path.write_bytes(bytes(raw))
        loaded = load_index(path)
        z = gen_queries(p, 20000, seed=1)
        answers = np.array([direct_search(loaded, p, v) for v in z.tolist()])
        assert np.count_nonzero(answers != linear_scan_oracle_batch(p, z)) == 27
        with pytest.raises(IndexFileError, match=rf"^K\[100\] = {k[100]} is not the table built from h$"):
            verify_index(loaded, p)

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_refuses_a_fused_index_or_another_partition_before_any_table(self, precision):
        """A fused index (prove its plain twin) and a partition of the other
        precision, another N or another X_0 raise ValueError before a table
        is allocated."""
        p = gen_uniform_gap_partition(4097, 1, 5, seed=6, precision=precision)
        idx, _ = build(p)
        fused, _ = build(p, fused=True)
        other = "double" if precision == "single" else "single"
        cases = [
            (fused, p, "^a fused index is proven through its plain twin"),
            (idx, validate_partition(p.values, other), "^partition does not match the index$"),
            (idx, validate_partition(p.values[:-1]), "^partition does not match the index$"),
            (idx, validate_partition(p.values + 1), "^partition does not match the index$"),
        ]
        tracemalloc.start()
        try:
            for index, partition, message in cases:
                with pytest.raises(ValueError, match=message):
                    verify_index(index, partition)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < idx.r, (peak, idx.r)

    def test_refusals_of_the_fill_carry_its_message(self):
        """An (h, r) that ``build_index`` refuses is a bad index, with the
        fill's own message: R past f(X_N), and an h that does not separate
        the knots."""
        p = gen_uniform_gap_partition(4097, 1, 5, seed=3)
        idx, _ = build(p)
        longer = dataclasses.replace(idx, r=idx.r + 1, k=np.append(idx.k, np.uint32(idx.n)))
        with pytest.raises(IndexFileError, match=rf"^R = {idx.r + 1} is not f\(X_N\) = {idx.r} "):
            verify_index(longer, p)
        h = idx.h * 0.7
        r = int(np.floor(h * (p.values[-1] - p.values[0])))
        with pytest.raises(IndexFileError, match="^h does not separate the knots at gap 1$"):
            verify_index(dataclasses.replace(idx, h=h, r=r, k=idx.k[: r + 1]), p)

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_peak_is_the_fill(self, precision):
        """Beside the fill's own K, the proof allocates nothing R-sized."""
        p = gen_uniform_gap_partition((1 << 16) + 1, 1, 5, seed=91, precision=precision)
        idx, _ = build(p)
        tracemalloc.start()
        try:
            verify_index(idx, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * idx.k.nbytes, (peak, idx.k.nbytes)

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("q", [1, 2])
    def test_one_ulp_h_accepted_exactly_when_its_fill_is_k(self, q, precision):
        """An h one ulp from the certified one, with R and K kept, is
        accepted exactly when ``build_index`` fills the same K for it; the
        fill then proves that h separates the knots, and ``direct_search``
        with that h is right at every breakpoint.  Most such changes fill
        the same K, so they are exact for their h, not rejected."""
        accepted = 0
        for seed in range(20):
            p = gen_uniform_gap_partition(41 + 2 * seed, 1, 5, seed=seed, precision=precision)
            idx, _ = build(p, q=q)
            for toward in (np.inf, -np.inf):
                changed = dataclasses.replace(idx, h=np.nextafter(idx.h, idx.h.dtype.type(toward)))
                try:
                    fill = build_index(p, changed.h, idx.r, q=q).k
                except ValueError:
                    fill = None
                if fill is None or fill.tobytes() != idx.k.tobytes():
                    with pytest.raises(IndexFileError):
                        verify_index(changed, p)
                    continue
                verify_index(changed, p)
                accepted += 1
                z = breakpoints(p, changed)
                assert [direct_search(changed, p, v) for v in z] == true_answers(p, z).tolist()
        assert accepted > 0


class TestTableShape:
    """A ``DirectIndex`` holds exactly R + 1 table entries, K as 1-D
    uint32: its constructor refuses any other table, so no consumer meets
    one."""

    MIS_SIZED = r"^need R \+ 1 = \d+ table entries, not \("

    @staticmethod
    def index():
        p = gen_uniform_gap_partition(1000, 1, 5, seed=1)
        return build(p)[0], p

    def test_verify_index_never_meets_a_mis_sized_k(self):
        """One entry short or one too many: numpy's broadcast error, or a
        tail past a chunk boundary that the chunked compare never read."""
        idx, p = self.index()
        for k in (idx.k[:-1], np.append(idx.k, np.uint32(idx.n))):
            with pytest.raises(ValueError, match=self.MIS_SIZED):
                verify_index(dataclasses.replace(idx, k=k), p)

    def test_direct_search_never_meets_a_short_k(self):
        """A 10-entry K sent ``direct_search`` past its end (IndexError)."""
        idx, p = self.index()
        with pytest.raises(ValueError, match=self.MIS_SIZED):
            direct_search(dataclasses.replace(idx, k=idx.k[:10]), p, p.values[-2])

    def test_save_index_never_writes_a_short_k(self, tmp_path):
        """A short K was written, and ``load_index`` then refused the file
        as truncated."""
        idx, _ = self.index()
        path = tmp_path / "t.idx"
        with pytest.raises(ValueError, match=self.MIS_SIZED):
            save_index(dataclasses.replace(idx, k=idx.k[:-1]), path)
        assert not path.exists()

    def test_refuses_other_types_shapes_and_fused_lengths(self):
        idx, p = self.index()
        fused = with_fused(idx, p)
        cases = [
            (idx, {"k": idx.k.astype(np.int64)}, "^K entries must be uint32$"),
            (idx, {"k": idx.k.tolist()}, "^K entries must be uint32$"),
            (idx, {"k": idx.k[:, None]}, self.MIS_SIZED),
            (idx, {"r": idx.r + 1}, self.MIS_SIZED),
            (fused, {"fused": fused.fused[:-1]}, self.MIS_SIZED),
            (fused, {"fused": fused.fused[None, :]}, self.MIS_SIZED),
        ]
        for index, change, message in cases:
            with pytest.raises(ValueError, match=message):
                dataclasses.replace(index, **change)
        for index in (idx, fused):  # a built index passes its own check
            dataclasses.replace(index)
