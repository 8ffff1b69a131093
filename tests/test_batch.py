import dataclasses
import gc
import re
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from fastsearch import batch, direct, eytzinger
from fastsearch.batch import ALGORITHMS, prepare, run_batch
from fastsearch.errors import OutOfDomain
from fastsearch.partition import (
    gen_uniform_gap_partition,
    linear_scan_oracle,
    linear_scan_oracle_batch,
    pad_right_pow2,
    validate_partition,
)

from helpers import NON_REAL_BATCHES, CountingList, boundary_probes, random_queries
from reference import (
    bitset1_seq,
    bitset2_seq,
    bitset3_seq,
    direct_cache_seq,
    direct_seq,
    eytzinger_seq,
    offset_constants,
    offset_seq,
    probe_constant,
)

LANE_KERNELS = [a for a in ALGORITHMS if a != "classic"]
GAP = {"direct": 1, "direct-gap2": 2, "direct-cache": 1}


@pytest.fixture(scope="module", params=["single", "double"])
def workload(request):
    p = gen_uniform_gap_partition(255, 1, 5, seed=2000, precision=request.param)
    z = random_queries(p, 4001, seed=2001)  # odd count: exercises remainders
    want = linear_scan_oracle_batch(p, z)
    return p, z, want


class TestLaneInvariance:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_width_matches_scalar(self, workload, algorithm):
        p, z, want = workload
        prep = prepare(algorithm, p)
        base = run_batch(prep, z, d=1)
        assert np.array_equal(base, want)
        for d in (2, 3, 4, 8, 64, 4001, 5000):
            assert np.array_equal(run_batch(prep, z, d=d), base), d

    @pytest.mark.parametrize("algorithm", LANE_KERNELS)
    def test_flat_pass_equals_explicit_stepping(self, workload, algorithm):
        """Grouping independence: stepping lane-by-lane in widths of d gives
        the same bits as the single flattened pass the implementation uses."""
        p, z, want = workload
        prep = prepare(algorithm, p)
        for d in (2, 4, 7):
            stop = (len(z) // d) * d
            stepped = [prep.lanes(z[a : a + d]) for a in range(0, stop, d)]
            stepped.append(np.array([prep.scalar(v) for v in z[stop:].tolist()]))
            assert np.concatenate(stepped).tolist() == want.tolist()

    def test_remainder_goes_through_scalar(self, workload):
        """At d = 8 every lane kernel calls its scalar exactly m mod 8
        times, once for each query of the tail, and writes into ``out``."""
        p, z, want = workload
        for algorithm in LANE_KERNELS:
            prep = prepare(algorithm, p)
            calls = []

            def counted(v, scalar=prep.scalar):
                calls.append(v)
                return scalar(v)

            counting = dataclasses.replace(prep, scalar=counted)
            for m in (5, 8, 13, len(z)):
                calls.clear()
                out = np.empty(m, dtype=np.int64)
                assert run_batch(counting, z[:m], d=8, out=out) is out
                assert out.tolist() == want[:m].tolist()
                assert len(calls) == m % 8, (algorithm, m)


class TestBatchContract:
    def test_out_of_domain_reports_first_index(self, workload):
        p, z, want = workload
        prep = prepare("classic", p)
        bad = z[:10].copy()
        bad[3] = p.values[-1]  # right endpoint is outside the domain
        bad[7] = p.values[0] - 1
        with pytest.raises(OutOfDomain) as exc:
            run_batch(prep, bad, d=2)
        assert exc.value.position == 3

    def test_nan_query_rejected(self, workload):
        p, z, _ = workload
        prep = prepare("bitset3", p)
        bad = z[:8].copy()
        bad[5] = np.nan
        with pytest.raises(OutOfDomain) as exc:
            run_batch(prep, bad, d=4)
        assert exc.value.position == 5

    @pytest.mark.parametrize("position", [0, 7])
    @pytest.mark.parametrize("value", ["nan", "x_n"])
    @pytest.mark.parametrize("algorithm", ["bitset3", "direct"])
    def test_bad_query_at_either_end_rejected(self, workload, algorithm, value, position):
        """The first and last query reach the min/max domain check too."""
        p, z, _ = workload
        prep = prepare(algorithm, p)
        bad = z[:8].copy()
        bad[position] = np.nan if value == "nan" else p.values[-1]
        out = np.full(8, -1, dtype=np.int64)
        with pytest.raises(OutOfDomain) as exc:
            run_batch(prep, bad, d=4, out=out)
        assert exc.value.position == position
        assert (out == -1).all()

    @pytest.mark.parametrize("d", [1, 8])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_empty_batch(self, workload, algorithm, d):
        p, z, _ = workload
        got = run_batch(prepare(algorithm, p), z[:0], d=d)
        assert got.dtype == np.int64 and got.shape == (0,)

    def test_output_capacity_checked(self, workload):
        p, z, _ = workload
        prep = prepare("offset", p)
        for out in (np.empty(len(z) - 1, dtype=np.int64), np.empty(len(z), dtype=np.int32)):
            with pytest.raises(ValueError):
                run_batch(prep, z, d=1, out=out)

    @pytest.mark.parametrize("d", [1, 8])
    def test_read_only_output_refused(self, workload, d):
        """A read-only ``out`` is refused by the ``out`` check, before any
        lane block or scalar runs, not by numpy's first write."""
        p, z, _ = workload
        out = np.zeros(len(z), dtype=np.int64)
        out.setflags(write=False)
        with pytest.raises(ValueError, match="^output array must be writeable int64"):
            run_batch(prepare("direct", p), z, d=d, out=out)

    def test_lane_width_validated(self, workload):
        p, z, _ = workload
        prep = prepare("direct", p)
        out = np.full(len(z), -1, dtype=np.int64)
        for d, error in ((0, ValueError), (2.5, TypeError)):
            with pytest.raises(error, match="lane width|interpreted as an integer"):
                run_batch(prep, z, d=d, out=out)
        assert (out == -1).all()

    def test_unknown_algorithm(self, workload):
        p, _, _ = workload
        with pytest.raises(ValueError):
            prepare("fibonacci", p)

    def test_width_larger_than_batch_is_all_scalar(self, workload):
        p, z, want = workload
        prep = prepare("eytzinger", p)
        small = z[:7]
        assert run_batch(prep, small, d=100).tolist() == want[:7].tolist()


class TestThreads:
    @pytest.mark.parametrize("algorithm", ["classic", "bitset2", "direct"])
    def test_thread_count_never_changes_results(self, workload, algorithm, monkeypatch):
        # Lift the CPU-count cap so every requested split really runs.
        monkeypatch.setattr(batch.os, "cpu_count", lambda: 8)
        p, z, want = workload
        prep = prepare(algorithm, p)
        single = run_batch(prep, z, d=8, threads=1)
        for threads in (2, 3, 5):
            assert np.array_equal(run_batch(prep, z, d=8, threads=threads), single)
        assert np.array_equal(single, want)

    def test_invalid_thread_count(self):
        """Counts are checked on every batch, all-scalar ones included,
        before anything is written."""
        p = gen_uniform_gap_partition(255, 1, 5, seed=2008)
        z = random_queries(p, 100, seed=2009)
        out = np.full(len(z), -1, dtype=np.int64)
        for threads, error in ((0, ValueError), (2.5, TypeError)):
            match = "thread count|interpreted as an integer"
            for algorithm, d in (("classic", 8), ("direct", 1)):
                with pytest.raises(error, match=match):
                    run_batch(prepare(algorithm, p), z, d=d, threads=threads, out=out)
        assert (out == -1).all()

    @pytest.fixture
    def recording_executor(self, monkeypatch):
        """Replace the executor by one that records max_workers and runs
        the work inline, so no thread is started; returns the record."""
        requested = []

        class InlineExecutor:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fn(*args)
                return SimpleNamespace(result=lambda: None)

        monkeypatch.setattr(batch, "ThreadPoolExecutor", InlineExecutor)
        return requested

    def test_worker_count_capped_at_cpu_count(
        self, workload, recording_executor, monkeypatch
    ):
        """A huge thread request never asks the executor for more workers
        than there are CPUs, on a batch large enough for more spans."""
        monkeypatch.setattr(batch.os, "cpu_count", lambda: 4)
        p = workload[0]
        z = random_queries(p, 5 * batch._BLOCK + 3, seed=2003)
        want = linear_scan_oracle_batch(p, z)
        prep = prepare("direct", p)
        assert np.array_equal(run_batch(prep, z, d=8, threads=100_000), want)
        assert recording_executor == [4]

    def test_default_is_one_thread(self, workload, recording_executor, monkeypatch):
        """Without a thread count, a batch of several lane blocks runs
        inline on the calling thread."""
        monkeypatch.setattr(batch.os, "cpu_count", lambda: 4)
        p = workload[0]
        z = random_queries(p, 5 * batch._BLOCK + 3, seed=2003)
        want = linear_scan_oracle_batch(p, z)
        assert np.array_equal(run_batch(prepare("direct", p), z, d=8), want)
        assert recording_executor == []

    @pytest.mark.parametrize(
        "algorithm, scalar_d", [("classic", 8), ("direct", 1)], ids=["classic", "direct"]
    )
    def test_small_batch_runs_inline(
        self, recording_executor, algorithm, scalar_d, monkeypatch
    ):
        """Threads get spans of at least one lane block: a 1003-query call
        builds no pool at any thread count, and its answers are those of
        the single-threaded call.  Threads split only the lanes, so an
        all-scalar batch of 3 blocks and 5 queries builds no pool either."""
        monkeypatch.setattr(batch.os, "cpu_count", lambda: 8)
        p = gen_uniform_gap_partition(255, 1, 5, seed=2004)
        z = random_queries(p, 3 * batch._BLOCK + 5, seed=2005)
        prep = prepare(algorithm, p)
        for m, d in ((1003, 8), (len(z), scalar_d)):
            single = run_batch(prep, z[:m], d=d, threads=1)
            for threads in (2, 3, 5):
                assert np.array_equal(run_batch(prep, z[:m], d=d, threads=threads), single)
            assert np.array_equal(single, linear_scan_oracle_batch(p, z[:m]))
        assert recording_executor == []

    @pytest.mark.parametrize("d", [8])
    def test_spans_hold_at_least_one_block(self, recording_executor, d, monkeypatch):
        """A lane part just short of two blocks runs inline; one of two
        blocks or more is split, into as many spans as it holds whole
        blocks."""
        monkeypatch.setattr(batch.os, "cpu_count", lambda: 8)
        p = gen_uniform_gap_partition(255, 1, 5, seed=2006)
        block = batch._BLOCK
        z = random_queries(p, 3 * block + 5, seed=2007)
        want = linear_scan_oracle_batch(p, z)
        prep = prepare("direct", p)
        for m in (2 * block - 1, 2 * block + 5, 3 * block + 5):
            assert np.array_equal(run_batch(prep, z[:m], d=d, threads=5), want[:m])
        assert recording_executor == [2, 3]


class TestQueryConversion:
    """Queries are rounded to the partition's dtype once, at the boundary."""

    @pytest.fixture(scope="class")
    def single(self):
        return gen_uniform_gap_partition(4095, 1, 5, seed=22, precision="single")

    @pytest.mark.parametrize("d", [1, 8])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_float64_and_list_knot_queries(self, single, algorithm, d):
        knots = single.values[1:-1]
        want = linear_scan_oracle_batch(single, knots)
        prep = prepare(algorithm, single)
        assert np.array_equal(run_batch(prep, knots.astype(np.float64), d=d), want)
        assert np.array_equal(run_batch(prep, knots.tolist(), d=d), want)

    @pytest.mark.parametrize("d", [1, 8])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_float64_rounding_onto_xn_rejected(self, single, algorithm, d):
        z = single.values[:8].astype(np.float64)
        z[3] = np.nextafter(np.float64(single.values[-1]), -np.inf)
        with pytest.raises(OutOfDomain) as exc:
            run_batch(prepare(algorithm, single), z, d=d)
        assert exc.value.position == 3

    @pytest.mark.parametrize("d", [1, 8])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_float64_just_below_xn_in_double(self, algorithm, d):
        p = gen_uniform_gap_partition(4095, 1, 5, seed=22)
        z = np.array([p.values[0], np.nextafter(p.values[-1], -np.inf)] * 5)
        got = run_batch(prepare(algorithm, p), z, d=d)
        assert got.tolist() == [0, p.n_intervals - 1] * 5

    @pytest.mark.parametrize("queries", NON_REAL_BATCHES.values(), ids=NON_REAL_BATCHES)
    @pytest.mark.parametrize("d", [1, 8])
    def test_non_real_queries_name_dtype(self, d, queries):
        """Queries that are not real numbers raise ValueError naming their
        dtype, before the domain check and before anything is written."""
        p = gen_uniform_gap_partition(255, 1, 5, seed=2010)
        dtype = np.asarray(queries).dtype
        out = np.full(len(queries), -1, dtype=np.int64)
        with pytest.raises(ValueError, match=re.escape(f"dtype {dtype}")) as exc:
            run_batch(prepare("direct", p), queries, d=d, out=out)
        assert not isinstance(exc.value, OutOfDomain)
        assert (out == -1).all()

    @pytest.mark.parametrize("d", [1, 8])
    def test_object_array_of_reals_answered(self, d):
        """An object array of Python and numpy reals is answered as the
        same values in a float array."""
        p = gen_uniform_gap_partition(255, 1, 5, seed=2011)
        values = [1.5, 2, np.float32(2.5), np.float64(7.25), True, np.True_, 100]
        want = linear_scan_oracle_batch(p, np.array(values, dtype=np.float64))
        got = run_batch(prepare("direct", p), np.array(values, dtype=object), d=d)
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["positive", "negative"])
    @pytest.mark.parametrize("d", [1, 8])
    def test_int_past_float_range_out_of_domain(self, big, d):
        """A Python int too large for a float is out of the domain: it
        raises OutOfDomain at its position, and nothing is written."""
        p = gen_uniform_gap_partition(255, 1, 5, seed=2012)
        prep = prepare("direct", p)
        out = np.full(3, -1, dtype=np.int64)
        for queries, position in (([big], 0), ([1.5, 2, big], 2)):
            with pytest.raises(OutOfDomain) as exc:
                run_batch(prep, queries, d=d, out=out[: len(queries)])
            assert exc.value.position == position
        assert (out == -1).all()

    @pytest.mark.parametrize("big", [1e39, -1e39], ids=["positive", "negative"])
    @pytest.mark.parametrize("container", [list, np.array], ids=["list", "float64-array"])
    @pytest.mark.parametrize("d", [1, 8])
    def test_double_past_single_range_out_of_domain(self, single, big, container, d):
        """A finite double past float32's range converts to an infinity on
        a single partition: OutOfDomain at its position, raised under
        ``-W error`` instead of the cast's overflow warning."""
        prep = prepare("direct", single)
        for queries, position in (([big], 0), ([1.5, 2.0, big], 2)):
            with pytest.raises(OutOfDomain) as exc:
                run_batch(prep, container(queries), d=d)
            assert exc.value.position == position
        tiny = prepare("direct", validate_partition([0.0, 1.0, 2.0], precision="single"))
        with pytest.raises(OutOfDomain) as exc:
            run_batch(tiny, container([big]), d=d)
        assert exc.value.position == 0

    @pytest.mark.parametrize("d", [1, 8])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_input_must_be_one_dimensional(self, single, algorithm, d):
        prep = prepare(algorithm, single)
        for bad in (single.values[5], float(single.values[5]), single.values[:8].reshape(2, 4)):
            with pytest.raises(ValueError) as exc:
                run_batch(prep, bad, d=d)
            assert not isinstance(exc.value, OutOfDomain)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_dropped_kernel_is_freed_without_gc(algorithm):
    """No prepared kernel sits in a reference cycle: dropping it frees its
    scalar (and the tables the scalar binds) without the cyclic collector."""
    p = gen_uniform_gap_partition(255, 1, 5, seed=3)
    gc.collect()
    gc.disable()
    try:
        scalar = weakref.ref(prepare(algorithm, p).scalar)
        assert scalar() is None
    finally:
        gc.enable()


class TestBlocks:
    """Lanes run over fixed blocks of batch._BLOCK queries."""

    @pytest.fixture(scope="class")
    def blocked_workload(self):
        p = gen_uniform_gap_partition(255, 1, 5, seed=77, precision="single")
        z = random_queries(p, 3 * batch._BLOCK + 7, seed=78)
        return p, z, linear_scan_oracle_batch(p, z)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("d", [1, 8])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_block_edges_match_oracle(self, blocked_workload, algorithm, d, threads, monkeypatch):
        # Lift the CPU-count cap so that three threads really split the batch.
        monkeypatch.setattr(batch.os, "cpu_count", lambda: 8)
        p, z, want = blocked_workload
        prep = prepare(algorithm, p)
        block = batch._BLOCK
        for m in (block - 1, block, block + 1, 3 * block + 7):
            out = np.full(m, -1, dtype=np.int64)  # an unwritten entry shows
            run_batch(prep, z[:m], d=d, threads=threads, out=out)
            assert np.array_equal(out, want[:m]), m

    @pytest.mark.parametrize("algorithm", LANE_KERNELS)
    def test_temporaries_scale_with_block_not_batch(self, algorithm):
        """A 2**18-query batch into a caller's ``out`` allocates under 1 MB
        (whole-batch int64 temporaries would take 2 MB each)."""
        p = gen_uniform_gap_partition(4095, 1, 5, seed=79)
        z = random_queries(p, 1 << 18, seed=80)
        prep = prepare(algorithm, p)
        out = np.empty(len(z), dtype=np.int64)
        tracemalloc.start()
        try:
            run_batch(prep, z, d=8, threads=1, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert np.array_equal(out, linear_scan_oracle_batch(p, z))


class TestDirectScalarTables:
    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("algorithm", ["direct", "direct-gap2", "direct-cache"])
    def test_scalar_reads_index_in_place(self, algorithm, precision):
        """A prepared direct kernel holds its index arrays and nothing more:
        a fused index only its records, and no kernel a copy of the knots.
        Per-entry Python lists of K and the knots took 3-16 times those
        arrays' bytes."""
        p = gen_uniform_gap_partition(1 << 14, 1, 5, seed=81, precision=precision)
        tracemalloc.start()
        try:
            prep = prepare(algorithm, p)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        idx = prep.structure
        if algorithm == "direct-cache":
            assert idx.k is None
            arrays = idx.fused.nbytes
        else:
            assert idx.fused is None
            arrays = idx.k.nbytes
        assert held < arrays + (1 << 16), (held, arrays)
        z = random_queries(p, 2000, seed=82)
        want = linear_scan_oracle_batch(p, z).tolist()
        assert [prep.scalar(v) for v in z.tolist()] == want


class TestEytzingerTables:
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_scalar_reads_tree_in_place(self, precision):
        """A prepared eytzinger kernel holds its tree and little else; a
        per-slot Python list of the tree took 5-9 times its bytes."""
        p = gen_uniform_gap_partition(1 << 14, 1, 5, seed=83, precision=precision)
        tracemalloc.start()
        try:
            prep = prepare("eytzinger", p)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        tree = prep.structure.tree
        assert held < tree.nbytes + (1 << 16), (held, tree.nbytes)
        z = random_queries(p, 2000, seed=84)
        want = linear_scan_oracle_batch(p, z).tolist()
        assert [prep.scalar(v) for v in z.tolist()] == want

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_layout_allocates_only_the_tree(self, precision):
        """Per-slot rank arrays peaked at 6.5-10 times the tree's bytes."""
        p = gen_uniform_gap_partition(1 << 16, 1, 5, seed=85, precision=precision)
        tracemalloc.start()
        try:
            tree = eytzinger.build_layout(p).tree
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * tree.nbytes, (peak, tree.nbytes)


class TestEquivalenceMatrix:
    # size counts the knots, N + 1.  At 384 and 6144 a third of the answers
    # take a bit probe past N, which only the lanes' clipped read keeps in
    # range; at the other sizes here no probe passes N.
    @pytest.mark.parametrize("size", [15, 255, 256, 257, 384, 4095, 4096, 4097, 6144])
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_all_kernels_match_oracle(self, size, precision):
        p = gen_uniform_gap_partition(size, 1, 5, seed=size, precision=precision)
        z = random_queries(p, 2500, seed=size * 7 + 1)
        want = linear_scan_oracle_batch(p, z)
        for algorithm in ALGORITHMS:
            got = run_batch(prepare(algorithm, p), z, d=4)
            assert np.array_equal(got, want), (algorithm, size, precision)


class TestProbeScheduleReads:
    """Each compiled lane kernel's scalar reads exactly the entries its
    ``*_seq`` reference reads, in the same order, and gives its answer."""

    @staticmethod
    def reference(algorithm, p, idx):
        """({name: table}, reference(**lists, z)) for one lane kernel; the
        names are those its compiled scalar binds.  ``idx`` is the plain
        direct index that the direct family's kernels search."""
        if algorithm == "direct-cache":
            fused = direct.with_fused(idx, p).fused
            tables = {"k": fused["idx"], "v": fused["val"]}
            return tables, lambda k, v, z: direct_cache_seq(k, v, idx.h, idx.x0, z)
        if algorithm in GAP:
            tables = {"k": idx.k, "xs": p.values}
            return tables, lambda k, xs, z: direct_seq(k, xs, idx.h, idx.x0, idx.q, z)
        n = p.n_intervals
        probe = probe_constant(n)
        f, s, j = offset_constants(n)
        lay = eytzinger.build_layout(p)
        return {
            "bitset1": ({"xs": p.values}, lambda xs, z: bitset1_seq(xs, n, probe, z)),
            "bitset2": ({"xs": pad_right_pow2(p)}, lambda xs, z: bitset2_seq(xs, probe, z)),
            "bitset3": ({"xs": p.values}, lambda xs, z: bitset3_seq(xs, n, probe, z)),
            "offset": ({"xs": p.values}, lambda xs, z: offset_seq(xs, f, s, j, z)),
            "eytzinger": (
                {"t": lay.tree, "xs": p.values},
                lambda t, xs, z: eytzinger_seq(t, xs, lay.L, z),
            ),
        }[algorithm]

    def check(self, algorithm, p):
        # The direct family also answers as the checked reference search
        # over the plain index (direct-cache's plain twin is build(p)).
        plain = direct.build(p, q=GAP[algorithm])[0] if algorithm in GAP else None
        tables, seq = self.reference(algorithm, p, plain)
        lists = {name: table.tolist() for name, table in tables.items()}
        prep = prepare(algorithm, p)
        n = p.n_intervals
        # When N + 1 is a power of two, offset_seq's last step is 0: it
        # rereads X_i at the answer, a read the library's schedule drops.
        spare = int(algorithm == "offset" and (n + 1) & n == 0)
        for z in boundary_probes(p).tolist():
            got = {name: CountingList(data) for name, data in lists.items()}
            want = {name: CountingList(data) for name, data in lists.items()}
            answer = prep.scalar(z, **got)
            assert answer == seq(**want, z=z) == linear_scan_oracle(p, z), z
            for name in lists:
                served = want[name].served
                assert got[name].served == served[: len(served) - spare], (name, z)
            if spare:
                assert want["xs"].served[-1] == answer, z
            if plain is not None:
                assert got["k"].reads == 1, z
                assert answer == direct.direct_search(plain, p, z), z

    @pytest.mark.parametrize("size", [2, 3, 9, 15, 16, 17, 255, 256, 257, 384])
    @pytest.mark.parametrize("algorithm", LANE_KERNELS)
    def test_scalar_reads_as_reference(self, algorithm, size):
        self.check(algorithm, gen_uniform_gap_partition(size, 1, 5, seed=size))

    @pytest.mark.parametrize("algorithm", LANE_KERNELS)
    def test_single_precision_reads_as_reference(self, algorithm):
        """float32 stores one more knot level below the Eytzinger tree, and
        the direct kernels compute their bucket in float32."""
        for size in [2, 17, 33, 257, 1025]:
            p = gen_uniform_gap_partition(size, 1, 5, seed=size, precision="single")
            self.check(algorithm, p)
