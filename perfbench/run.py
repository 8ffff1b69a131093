"""Layered benchmark for fastsearch: one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload bulk-direct --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Every answer is checked against expected answers computed before timing.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, taken from spans recorded around each call into the
program, and the spans are written to ``.perfbench_out/``.  Lines before
the last one start with ``#`` and carry the environment and the
per-kernel breakdown.  perfbench/README.md describes the workloads and
metrics.
"""

from __future__ import annotations

import os

# numpy asks the kernel for transparent huge pages on large arrays.  Whether
# they are granted, and what faulting them in costs, depends on the
# machine's memory fragmentation: it swung eytzinger batch times 2-3x
# between otherwise identical runs.  Ordinary pages keep runs comparable.
# numpy reads this variable when it is first imported.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse
import gc
import itertools
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from support import Spans, array_bytes, call_stats, environment, median, memory_bytes
from workloads import LANE_WIDTH, REBUILD_PARTITIONS, THREADS, WORKLOADS, make_knots, make_queries

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Timed loops run for --seconds and at least this many run_batch calls,
#: so the 90th percentile has ten samples above it.
MIN_CALLS = 100
#: Untimed, checked calls made before each timed loop: the first calls
#: after set-up fault in fresh memory.
WARMUP_SECONDS = 1.0
#: Steady workloads split their run into this many slices, so that set-up
#: is sampled across the whole run, whose speed follows the host's.  Each
#: slice starts with at least one set-up and SETUP_SECONDS / SLICES of them.
SLICES = 10
SETUP_SECONDS = 4.0
#: Steady workloads persist a direct index over this many intervals, cut
#: from the start of their knots: the size the rebuild workload persists.
ROUNDTRIP_N = 1 << 16
#: Repetitions of each single-layer measurement in the traced run.
PROBE_REPS = 5
#: Queries sent one at a time through the scalar kernel per probe.
SCALAR_SAMPLE = 4096
#: Per-call costs are probed on calls of this many queries (a 3-query
#: scalar remainder at LANE_WIDTH 8), each timed this many times.
SMALL_CALL, SMALL_REPS = 1003, 300


class GateError(RuntimeError):
    """The two reference answers disagree, so no timing can be trusted."""


def import_program():
    src = ROOT / "src"
    if not (src / "fastsearch" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fastsearch sources under {src}")
    sys.path.insert(0, str(src))
    import fastsearch
    from fastsearch.bench import persist

    return fastsearch, persist


def _bits(x) -> tuple:
    a = np.asarray(x)
    return a.dtype.str, a.tobytes()


def same_index(a, b) -> bool:
    """Bit-wise equality of the persisted fields of two direct indices."""
    return (
        a.k.dtype == b.k.dtype
        and np.array_equal(a.k, b.k)
        and _bits(a.h) == _bits(b.h)
        and _bits(a.x0) == _bits(b.x0)
    )


class Bench:
    """One run of one workload: inputs, timed loops, checks and spans."""

    def __init__(self, fs, persist, wl, seed: int, seconds: float):
        self.fs, self.persist, self.wl = fs, persist, wl
        self.rng = np.random.default_rng(seed)
        self.seconds = seconds
        self.spans = Spans()
        self.cycle = 0
        self.attempted = 0
        self.failed = 0
        self.file_bytes = 0

    def next_cycle(self) -> int:
        self.cycle += 1
        return self.cycle

    def report_error(self, what: str):
        if not self.failed:
            print(f"# error in {what}:", file=sys.stderr)
            traceback.print_exc()

    # ---- calls into the program ---------------------------------------

    def setup(self, raw, cycle):
        """From a raw knot array to ready kernels: what setup_s times."""
        with self.spans("partition.validate", cycle):
            p = self.fs.validate_partition(raw)
        kernels = {}
        for k in self.wl.kernels:
            with self.spans("batch.prepare." + k, cycle):
                kernels[k] = self.fs.prepare(k, p)
        return p, kernels

    def batch(self, prep, z, cycle):
        with self.spans("batch.run_batch." + prep.algorithm, cycle, len(z)):
            try:
                return self.fs.run_batch(prep, z, d=LANE_WIDTH, threads=THREADS)
            except Exception:
                self.report_error("run_batch")
                return None

    def roundtrip(self, idx, cycle):
        """save_index + load_index seconds, or None when either raised.

        Each save goes to a new file, removed untimed after the load, so no
        save pays for truncating the previous one.
        """
        self.attempted += 1
        path = OUT_DIR / f"index-{os.getpid()}-{self.attempted}.fbs"
        try:
            t0 = perf_counter()
            with self.spans("persist.save", cycle):
                self.file_bytes = self.persist.save_index(idx, path)
            with self.spans("persist.load", cycle):
                back = self.persist.load_index(path)
            elapsed = perf_counter() - t0
        except Exception:
            self.report_error("index round trip")
            self.failed += 1
            return None
        finally:
            path.unlink(missing_ok=True)
        if not same_index(idx, back):
            self.failed += 1
        return elapsed

    # ---- answers -------------------------------------------------------

    def check(self, out, want):
        """Count wrong answers; a call that raised fails all its queries."""
        self.attempted += len(want)
        if out is None or np.shape(out) != want.shape:
            self.failed += len(want)
        else:
            self.failed += int(np.count_nonzero(np.asarray(out) != want))

    def gate(self, p, z):
        """Expected answers, agreed on by the oracle and by searchsorted."""
        c = self.next_cycle()
        with self.spans("partition.oracle", c, len(z)):
            oracle = self.fs.linear_scan_oracle_batch(p, z)
        with self.spans("gate.searchsorted", c, len(z)):
            reference = np.searchsorted(p.values, z, side="right") - 1
        bad = np.flatnonzero(oracle != reference)
        if bad.size:
            j = int(bad[0])
            raise GateError(
                f"oracle and searchsorted disagree on {bad.size} queries; first "
                f"z={z[j]!r}: oracle {oracle[j]}, searchsorted {reference[j]}"
            )
        return reference

    # ---- measured phases -----------------------------------------------

    def memory_pass(self, raw):
        """Resident MB the set-up retains, and its peak growth (untimed).

        Runs before anything else large is allocated, so the process's
        resident high-water mark is set by this set-up.
        """
        gc.collect()
        base, _ = memory_bytes()
        p, kernels = self.setup(raw, 0)
        now, peak = memory_bytes()
        arrays = array_bytes([p] + [k.structure for k in kernels.values()])
        if now - base < arrays:
            raise RuntimeError(
                f"resident growth {now - base} B is below the structures' "
                f"{arrays} B of arrays; the memory reading is wrong"
            )
        del p, kernels
        gc.collect()
        return (now - base) / 1e6, (peak - base) / 1e6

    def steady_loop(self, raw, idx, z, expected, seconds):
        """Slices of set-ups and closed-loop run_batch calls, each timed call
        followed by two index round trips, the second timed.  Each slice's
        calls go to the kernels its last set-up made.

        Returns (median set-up seconds, call latencies, median round-trip
        seconds) and the last set-up's (partition, kernels).
        """
        setups, lat, trips = [], [], []
        built = None

        def call(j):
            preps = built[1]
            c = self.next_cycle()
            with self.spans("cycle", c):
                t0 = perf_counter()
                out = self.batch(preps[self.wl.kernels[j % len(preps)]], z, c)
                elapsed = perf_counter() - t0
                self.check(out, expected)
            return elapsed

        for s in range(SLICES):
            deadline = perf_counter() + SETUP_SECONDS / SLICES
            while True:
                built = None  # free the previous structures before building again
                gc.collect()
                c = self.next_cycle()
                t0 = perf_counter()
                built = self.setup(raw, c)
                setups.append(perf_counter() - t0)
                if perf_counter() >= deadline:
                    break
            # One untimed call per kernel after each set-up, and a longer
            # warm-up before the first slice.
            warm_until = perf_counter() + (WARMUP_SECONDS if s == 0 else 0)
            for j in itertools.count():
                if j >= len(built[1]) and perf_counter() >= warm_until:
                    break
                call(j)
            deadline = perf_counter() + seconds / SLICES
            while perf_counter() < deadline or len(lat) < MIN_CALLS * (s + 1) // SLICES:
                lat.append(call(len(lat)))
                # A call's queries evict the index from the caches.  One
                # untimed, checked round trip brings it back, so the timed
                # one finds it warm, as rebuild's freshly built index is.
                enabled, self.spans.enabled = self.spans.enabled, False
                self.roundtrip(idx, 0)
                self.spans.enabled = enabled
                t = self.roundtrip(idx, self.next_cycle())
                if t is not None:
                    trips.append(t)
        if not trips:
            raise RuntimeError("every index round trip failed")
        return (median(setups), lat, median(trips)), built

    def rebuild_loop(self, raws, queries, expected, seconds):
        """Cycles of set-up, round trip and one batch on a fresh partition."""
        wl = self.wl

        def cycle(j):
            c = self.next_cycle()
            with self.spans("cycle", c):
                t0 = perf_counter()
                built = self.setup(raws[j], c)
                setup = perf_counter() - t0
                prep = built[1][wl.kernels[0]]
                trip = self.roundtrip(prep.structure, c)
                t0 = perf_counter()
                out = self.batch(prep, queries[j], c)
                elapsed = perf_counter() - t0
                self.check(out, expected[j])
            return built, setup, trip, elapsed

        warm_until = perf_counter() + WARMUP_SECONDS
        while perf_counter() < warm_until:
            cycle(0)
        setups, trips, lat = [], [], []
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or len(lat) < MIN_CALLS:
            j = len(lat) % REBUILD_PARTITIONS
            built, setup, trip, elapsed = cycle(j)
            setups.append(setup)
            lat.append(elapsed)
            if trip is not None:
                trips.append(trip)
        if not trips:
            raise RuntimeError("every index round trip failed")
        return (median(setups), lat, median(trips)), built, queries[j], expected[j]

    def run(self, trace: bool):
        """All phases; returns (end-to-end figures per phase, memory, probe inputs)."""
        fs, wl = self.fs, self.wl
        phases = [False, True] if trace else [False]
        seconds = self.seconds / len(phases)
        figures = {}
        if wl.rebuild:
            raws = [make_knots(self.rng, wl.n, wl.dtype) for _ in range(REBUILD_PARTITIONS)]
            memory = None if trace else self.memory_pass(raws[0])
            queries = [make_queries(self.rng, raw, wl.m) for raw in raws]
            self.spans.enabled = trace
            expected = [self.gate(fs.validate_partition(r), z) for r, z in zip(raws, queries)]
            for traced in phases:
                self.spans.enabled = traced
                figures[traced], built, z, want = self.rebuild_loop(
                    raws, queries, expected, seconds
                )
            return figures, memory, (built, z, want)

        raw = make_knots(self.rng, wl.n, wl.dtype)
        memory = None if trace else self.memory_pass(raw)
        z = make_queries(self.rng, raw, wl.m)
        idx = fs.build(fs.validate_partition(raw[: ROUNDTRIP_N + 1]))[0]
        self.spans.enabled = trace
        expected = self.gate(fs.validate_partition(raw), z)
        for traced in phases:
            self.spans.enabled = traced
            built = None  # free the previous phase's structures first
            figures[traced], built = self.steady_loop(raw, idx, z, expected, seconds)
        return figures, memory, (built, z, expected)

    # ---- per-layer probes (traced run only) -----------------------------

    def probes(self, built, z, want) -> tuple[dict, dict]:
        """Time each layer on its own, on the workload's partition and batch.

        Per-call costs (the domain check, lane-call overhead, the scalar
        remainder and thread dispatch) are timed on calls of SMALL_CALL
        queries, where they are a large share of a call.

        Returns the per-layer metrics and the per-kernel breakdown.
        """
        fs, spans = self.fs, self.spans
        p, kernels = built
        lane_stop = len(z) // LANE_WIDTH * LANE_WIDTH
        sample = z[:SCALAR_SAMPLE]
        sample_list = sample.tolist()
        small = z[:SMALL_CALL]
        small_stop = SMALL_CALL // LANE_WIDTH * LANE_WIDTH
        structures = {
            "direct": lambda: fs.build(p),
            "direct-gap2": lambda: fs.build(p, q=2),
            "direct-cache": lambda: fs.build(p, fused=True),
            "eytzinger": lambda: fs.build_layout(p),
        }
        for _ in range(PROBE_REPS):
            c = self.next_cycle()
            with spans("direct.certify", c):
                h, r, growth = fs.compute_h_r(p, q=1)
            with spans("direct.certify_gap2", c):
                fs.compute_h_r(p, q=2)
            with spans("direct.k_build", c):
                idx = fs.build_index(p, h, r)
            with spans("direct.fused", c):
                fused = fs.with_fused(idx, p)
            with spans("eytzinger.layout", c):
                fs.build_layout(p)
            for k, prep in kernels.items():
                with spans("structure." + k, c):
                    structures[k]()
                with spans("batch.lanes." + k, c, lane_stop):
                    out = prep.lanes(z[:lane_stop])
                self.check(out, want[:lane_stop])
                with spans("batch.scalar." + k, c, len(sample_list)):
                    out = [prep.scalar(q) for q in sample_list]
                self.check(np.array(out), want[: len(sample)])
                for threads in (1, 2):
                    with spans(f"batch.bulk_threads{threads}.{k}", c, len(z)):
                        out = fs.run_batch(prep, z, d=LANE_WIDTH, threads=threads)
                    self.check(out, want)
            with spans("ref.searchsorted", c, len(z)):
                np.searchsorted(p.values, z, side="right")
        for k, prep in kernels.items():
            for _ in range(SMALL_REPS):
                c = self.next_cycle()
                with spans("batch.small_lanes." + k, c, small_stop):
                    out = prep.lanes(small[:small_stop])
                self.check(out, want[:small_stop])
                for threads in (1, 2):
                    with spans(f"batch.small_threads{threads}.{k}", c, SMALL_CALL):
                        out = fs.run_batch(prep, small, d=LANE_WIDTH, threads=threads)
                    self.check(out, want[:SMALL_CALL])

        def ms(name):
            return median(spans.seconds(name)) * 1e3

        itemsize = p.values.itemsize
        per_kernel = {}
        for k, prep in kernels.items():
            s = prep.structure
            lanes = median(spans.seconds("batch.lanes." + k))
            scalar = median(spans.seconds("batch.scalar." + k)) / len(sample)
            small_lanes = median(spans.seconds("batch.small_lanes." + k))
            one, two = (median(spans.seconds(f"batch.small_threads{t}.{k}")) for t in (1, 2))
            bulk_one, bulk_two = (
                median(spans.seconds(f"batch.bulk_threads{t}.{k}")) for t in (1, 2)
            )
            # Bytes a query reads from the structure: the knot probes plus
            # the table entry, or the one fused record.
            if k == "eytzinger":
                bytes_per_q = s.L * itemsize
            elif k == "direct-cache":
                bytes_per_q = s.fused.itemsize
            else:
                bytes_per_q = s.k.itemsize + s.q * itemsize
            per_kernel[k] = {
                "batch.prepare_ms": ms("batch.prepare." + k),
                "batch.materialise_ms": ms("batch.prepare." + k) - ms("structure." + k),
                "batch.lanes_ns_per_q": lanes / lane_stop * 1e9,
                "batch.bytes_per_q": bytes_per_q,
                "batch.scalar_ns_per_q": scalar * 1e9,
                "batch.overhead_us":
                    (one - small_lanes - scalar * (SMALL_CALL - small_stop)) * 1e6,
                "batch.thread_speedup": one / two,
                "batch.bulk_thread_speedup": bulk_one / bulk_two,
            }
        n_oracle = sum(r[5] for r in spans.records if r[0] == "partition.oracle")
        layers = {
            "partition.validate_ms": ms("partition.validate"),
            "direct.certify_ms": ms("direct.certify"),
            "direct.certify_gap2_ms": ms("direct.certify_gap2"),
            "direct.h_increments": growth.increments,
            "direct.k_build_ms": ms("direct.k_build"),
            "direct.fused_ms": ms("direct.fused"),
            "direct.table_mb": idx.k.nbytes / 1e6,
            "direct.fused_mb": fused.fused.nbytes / 1e6,
            "direct.r_over_n": r / p.n_intervals,
            "eytzinger.layout_ms": ms("eytzinger.layout"),
            "persist.save_ms": ms("persist.save"),
            "persist.load_ms": ms("persist.load"),
            "persist.file_mb": self.file_bytes / 1e6,
            "partition.oracle_ms_per_mq": sum(spans.seconds("partition.oracle")) * 1e3
            / (n_oracle / 1e6),
            "ref.searchsorted_ns_per_q": median(spans.seconds("ref.searchsorted")) / len(z) * 1e9,
            "bench.cycle_self_ms": median(spans.self_seconds("cycle")) * 1e3,
        }
        summed = ("batch.prepare_ms", "batch.materialise_ms")
        for name in next(iter(per_kernel.values())):
            values = [v[name] for v in per_kernel.values()]
            layers[name] = sum(values) if name in summed else sum(values) / len(values)
        return layers, per_kernel


def end_to_end(figures, memory, queries_per_call) -> dict:
    setup_s, lat, roundtrip = figures
    msps, p50, p90 = call_stats(lat, queries_per_call)
    return {
        "setup_s": setup_s,
        "query_msps": msps,
        "batch_p50_ms": p50 * 1e3,
        "batch_p90_ms": p90 * 1e3,
        "index_roundtrip_ms": roundtrip * 1e3,
        "structure_mb": memory[0],
        "setup_peak_mb": memory[1],
    }


def metric_units() -> dict[str, str]:
    """Each metric's unit, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    units = metric_units()

    # Thread counts are passed explicitly; keep the environment from adding one.
    os.environ.pop("FASTSEARCH_THREADS", None)
    fs, persist = import_program()
    OUT_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    env = environment(ROOT, args.seed)
    print("# env " + json.dumps(env), flush=True)

    bench = Bench(fs, persist, wl, args.seed, args.seconds)
    figures, memory, probe_inputs = bench.run(trace=bool(args.trace))
    if args.trace:
        layers, per_kernel = bench.probes(*probe_inputs)

    calls = len(figures[False][1])
    print(f"# workload={wl.name} calls={calls} attempted={bench.attempted} "
          f"failed={bench.failed} failed_frac={bench.failed / bench.attempted}")
    if args.trace:
        untraced = {"setup_s": figures[False][0], "query_msps": call_stats(figures[False][1], wl.m)[0]}
        traced = {"setup_s": figures[True][0], "query_msps": call_stats(figures[True][1], wl.m)[0]}
        layers["trace.query_msps_delta"] = traced["query_msps"] - untraced["query_msps"]
        layers["trace.setup_s_delta"] = traced["setup_s"] - untraced["setup_s"]
        for k, values in per_kernel.items():
            for name, value in values.items():
                print(f"# layer {name}.{k} = {value} {units[name]}")
        metrics = layers
        trace_file = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "env": env,
            "workload": wl.name,
            "untraced": untraced,
            "traced": traced,
            "per_kernel": per_kernel,
            "layers": layers,
            "spans": bench.spans.as_json(),
        }))
        print(f"# spans written to {trace_file.relative_to(ROOT)}")
    else:
        metrics = end_to_end(figures[False], memory, wl.m)

    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
