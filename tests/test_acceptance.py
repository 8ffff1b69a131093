"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
The heavy randomized sweeps share one module-scoped workload cache.
"""

import time

import numpy as np
import pytest

from fastsearch.batch import ALGORITHMS, prepare, run_batch
from fastsearch.bench.harness import run_setup_stats, run_throughput
from fastsearch.bench.persist import load_index, save_index
from fastsearch.direct import build, closed_form_h_r, compute_h_r, direct_search
from fastsearch.errors import ChecksumMismatch, NotDistinguishable, Overflow
from fastsearch.partition import (
    gen_uniform_gap_partition,
    linear_scan_oracle,
    linear_scan_oracle_batch,
    validate_partition,
)

from helpers import boundary_probes, random_queries

RANDOM_SIZES = (15, 255, 4095, 65535)
PRECISIONS = ("single", "double")
SEED = 20240708


def _report(line):
    print(f"\nACCEPTANCE {line}")


@pytest.fixture(scope="module")
def sweeps():
    """(size, precision) -> dict with partition, queries, oracle, per-algo results."""
    out = {}
    for precision in PRECISIONS:
        for size in RANDOM_SIZES:
            p = gen_uniform_gap_partition(size, 1, 5, seed=SEED + size, precision=precision)
            z = random_queries(p, 100_000, seed=SEED + size + 1)
            expected = linear_scan_oracle_batch(p, z)
            results = {}
            for algorithm in ALGORITHMS:
                results[algorithm] = run_batch(prepare(algorithm, p), z, d=1024)
            out[(size, precision)] = {
                "partition": p,
                "queries": z,
                "oracle": expected,
                "results": results,
            }
    return out


def test_c01_oracle_equivalence(sweeps):
    """Every algorithm equals the linear-scan oracle: 10^5 random queries
    per size and precision, plus exhaustive boundary probing at small sizes."""
    t0 = time.perf_counter()
    for (size, precision), bundle in sweeps.items():
        for algorithm, got in bundle["results"].items():
            mismatches = int(np.count_nonzero(got != bundle["oracle"]))
            assert mismatches == 0, (algorithm, size, precision, mismatches)

    for precision in PRECISIONS:
        for size in range(2, 65):
            p = gen_uniform_gap_partition(size, 1, 5, seed=SEED + size, precision=precision)
            z = boundary_probes(p)
            expected = np.array([linear_scan_oracle(p, v) for v in z])
            for algorithm in ALGORITHMS:
                got = np.array([prepare(algorithm, p).scalar(v) for v in z.tolist()])
                assert np.array_equal(got, expected), (algorithm, size, precision)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"oracle equivalence took {elapsed:.0f}s, budget 120s"
    _report(
        "01 oracle-equivalence: PASS "
        f"(9 algorithms x {len(RANDOM_SIZES)} sizes x 2 precisions x 1e5 queries, "
        f"exhaustive <= 64; {elapsed:.0f}s)"
    )


def test_c02_cross_algorithm_consistency(sweeps):
    """All nine kernels return identical indices on identical query sets."""
    for (size, precision), bundle in sweeps.items():
        names = list(bundle["results"])
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                ra, rb = bundle["results"][names[a]], bundle["results"][names[b]]
                assert np.array_equal(ra, rb), (names[a], names[b], size, precision)
    _report("02 cross-algorithm-consistency: PASS (36 pairs x 8 workloads, 0 mismatches)")


def test_c03_feasibility_rejection():
    """The two pathological single-precision layouts raise their exact variants."""
    collapsing = validate_partition(np.array([-1e9, 0.0, 1.0], dtype=np.float32))
    with pytest.raises(NotDistinguishable):
        compute_h_r(collapsing)
    subnormal_gap = validate_partition(np.array([0.0, 1.42e-45, 1.0], dtype=np.float32))
    with pytest.raises(Overflow):
        compute_h_r(subnormal_gap)
    _report("03 feasibility-rejection: PASS (NotDistinguishable and Overflow variants)")


def test_c04_h_update_statistics():
    """Growth-loop increments over uniform-[1,5] populations, 1000 samples/size:
    mean <= 0.02 at size 15, <= 0.005 at sizes >= 255, max <= 1 everywhere."""
    t0 = time.perf_counter()
    lines = []
    for precision in PRECISIONS:
        rep = run_setup_stats(
            sizes=[15, 255, 4095], precision=precision, samples=1000, seed=SEED
        )
        assert rep.infeasible == {}
        for row in rep.rows:
            limit = 0.02 if row.size == 15 else 0.005
            assert row.h_updates_mean <= limit, (precision, row.size, row.h_updates_mean)
            assert row.h_updates_max <= 1, (precision, row.size, row.h_updates_max)
            lines.append(f"{precision}/{row.size}: mean {row.h_updates_mean:.4f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"setup statistics took {elapsed:.0f}s, budget 300s"
    _report(f"04 h-update-statistics: PASS ({'; '.join(lines)}; {elapsed:.0f}s)")


def test_c05_setup_cost_linear():
    """Per-element construction cost changes by < 3x between sizes 4095 and
    65535, consistent with O(N) setup."""
    rep = run_setup_stats(sizes=[4095, 65535], precision="single", samples=100, seed=SEED)
    per_elem = {row.size: row.setup_ns_per_elem_mean for row in rep.rows}
    lo, hi = sorted(per_elem.values())
    ratio = hi / lo
    assert ratio < 3, per_elem
    _report(
        "05 setup-cost-linear: PASS "
        f"({per_elem[4095]:.0f} ns/elem at 4095 vs {per_elem[65535]:.0f} at 65535, "
        f"ratio {ratio:.2f} < 3)"
    )


def test_c06_throughput_ordering():
    """Scalar direct beats scalar classic by >= 3x at size 65535; scalar
    padded bit-set search beats classic by >= 1.5x at size 4095."""
    rep = run_throughput(
        sizes=[4095, 65535],
        precisions=["double"],
        algorithms=["classic", "bitset2", "direct"],
        d_widths=[1],
        queries=20_000,
        seed=SEED,
        repetitions=15,
        min_time=0.05,
    )
    rate = {(r.algorithm, r.size): r.throughput_msps for r in rep.rows}
    direct_ratio = rate[("direct", 65535)] / rate[("classic", 65535)]
    bitset_ratio = rate[("bitset2", 4095)] / rate[("classic", 4095)]
    assert direct_ratio >= 3.0, f"direct/classic at 65535 = {direct_ratio:.2f}"
    assert bitset_ratio >= 1.5, f"bitset2/classic at 4095 = {bitset_ratio:.2f}"
    _report(
        "06 throughput-ordering: PASS "
        f"(direct/classic at 65535 = {direct_ratio:.2f} >= 3; "
        f"bitset2/classic at 4095 = {bitset_ratio:.2f} >= 1.5)"
    )


def test_c07_lane_invariance():
    """Batch results are bit-identical to width-1 execution for every
    supported lane width, 10^5 random queries per kernel and precision."""
    for precision in PRECISIONS:
        p = gen_uniform_gap_partition(4095, 1, 5, seed=SEED, precision=precision)
        z = random_queries(p, 100_000, seed=SEED + 5)
        for algorithm in ALGORITHMS:
            prep = prepare(algorithm, p)
            base = run_batch(prep, z, d=1)
            for d in (2, 4, 8, 64, 100_000):
                assert np.array_equal(run_batch(prep, z, d=d), base), (
                    algorithm,
                    precision,
                    d,
                )
    _report("07 lane-invariance: PASS (d in {1,2,4,8,64,1e5} x 9 kernels x 2 precisions)")


def test_c08_bucket_bracketing():
    """The raw table candidate stays within the gap of the true index over
    10^6 random queries: offsets in {0,1} for gap 1, {0,1,2} for gap 2."""
    for precision in PRECISIONS:
        p = gen_uniform_gap_partition(4095, 1, 5, seed=SEED + 3, precision=precision)
        z = random_queries(p, 1_000_000, seed=SEED + 4)
        expected = linear_scan_oracle_batch(p, z)
        for q, allowed in ((1, {0, 1}), (2, {0, 1, 2})):
            idx, _ = build(p, q=q)
            j = (idx.h * (z - idx.x0)).astype(np.int64)
            t = idx.k[j].astype(np.int64)
            offsets = np.unique(t - expected)
            assert set(offsets.tolist()) <= allowed, (precision, q, offsets)
    _report("08 bucket-bracketing: PASS (2e6 queries x 2 precisions, 0 violations)")


def test_c09_worked_example():
    """The four-knot reference array reproduces its pinned construction: the
    certified scale lands one ulp above 5 with a six-entry table, while the
    rounding-naive closed form gives H ~ 6.36 with R = 7."""
    for precision in PRECISIONS:
        dtype = np.float32 if precision == "single" else np.float64
        p = validate_partition(np.array([0.0, 0.5, 0.7, 1.1], dtype=dtype))
        h, r, stats = compute_h_r(p)
        assert h == np.nextafter(dtype(5.0), dtype(np.inf)), precision
        assert r == 5 and stats.increments == 0
        idx, _ = build(p)
        assert idx.k.tolist() == [0, 1, 1, 2, 3, 3]
        assert direct_search(idx, p, dtype(0.6)) == 1
    h_cf, r_cf = closed_form_h_r(validate_partition([0.0, 0.5, 0.7, 1.1]))
    assert r_cf == 7
    assert h_cf == pytest.approx(6.36, abs=0.01)
    _report(
        "09 worked-example: PASS "
        "(h = nextafter(5.0), r = 5, k = [0,1,1,2,3,3]; closed form 6.36 / 7)"
    )


def test_c10_index_persistence(tmp_path):
    """Round-tripped indices search bit-identically over 10^4 queries and
    corrupted files are rejected."""
    p = gen_uniform_gap_partition(255, 1, 5, seed=SEED + 8)
    idx, _ = build(p)
    path = tmp_path / "acceptance.idx"
    save_index(idx, path)
    back = load_index(path)
    z = random_queries(p, 10_000, seed=SEED + 9)
    before = [direct_search(idx, p, v) for v in z.tolist()]
    after = [direct_search(back, p, v) for v in z.tolist()]
    assert before == after
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumMismatch):
        load_index(path)
    _report("10 index-persistence: PASS (1e4 bit-identical queries; corruption rejected)")
