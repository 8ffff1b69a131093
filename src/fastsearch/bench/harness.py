"""Throughput and setup-cost experiment drivers, and the rows they report.

Throughput methodology: per configuration the kernel output is first
verified against the linear-scan oracle (timing never assumes
correctness), one warm-up pass runs untimed, the pass count per
measurement is scaled so each measurement spans at least ``min_time``
seconds on the monotonic clock, and the reported figure is the median
over the requested repetitions, converted to million searches per
second.  Setup cost is excluded: structures are prepared before timing
starts.  The timed queries are the array ``gen_queries`` returns, as is.

Setup-cost methodology: per size, ``samples`` independent partitions are
generated, and for each one the scale-factor computation plus table
construction is timed; the report aggregates the growth-loop increment
count and nanoseconds divided by the array size.

``ThroughputRow`` and ``SetupStatsRow`` declare their reports' columns
(see :mod:`.report`).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from ..batch import ALGORITHMS, prepare, run_batch
from ..direct import build_index, compute_h_r
from ..errors import InfeasibleError
from ..partition import gen_queries, gen_uniform_gap_partition, linear_scan_oracle_batch


@dataclass(frozen=True)
class ThroughputRow:
    algorithm: str
    precision: str
    lane_width: int
    size: int
    throughput_msps: float = field(metadata={"digits": 2})
    queries: int
    repetitions: int


@dataclass(frozen=True)
class InfeasibleSkipped:
    algorithm: str
    size: int
    precision: str
    cause: str


@dataclass(frozen=True)
class ThroughputReport:
    rows: list[ThroughputRow] = field(default_factory=list)
    skipped: list[InfeasibleSkipped] = field(default_factory=list)


@dataclass(frozen=True)
class SetupStatsRow:
    size: int
    samples: int
    h_updates_mean: float = field(metadata={"digits": 4})
    h_updates_min: float = field(metadata={"digits": 4})
    h_updates_max: float = field(metadata={"digits": 4})
    h_updates_stdev: float = field(metadata={"digits": 4})
    setup_ns_per_elem_mean: float = field(metadata={"digits": 2})
    setup_ns_per_elem_min: float = field(metadata={"digits": 2})
    setup_ns_per_elem_max: float = field(metadata={"digits": 2})
    setup_ns_per_elem_stdev: float = field(metadata={"digits": 2})


@dataclass(frozen=True)
class SetupStatsReport:
    precision: str
    rows: list[SetupStatsRow] = field(default_factory=list)
    infeasible: dict[int, int] = field(default_factory=dict)


def _spread(values) -> tuple[float, float, float, float]:
    """(mean, min, max, population stdev) of ``values``."""
    a = np.asarray(values, dtype=np.float64)
    return float(a.mean()), float(a.min()), float(a.max()), float(a.std())


def _measure(run, repetitions: int, min_time: float) -> float:
    """Median seconds per pass, scaling passes to fill ``min_time`` each."""
    t0 = time.perf_counter()
    run()  # warm-up, also calibrates
    once = time.perf_counter() - t0
    inner = max(1, int(min_time / max(once, 1e-9)) + 1) if once < min_time else 1
    samples = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        for _ in range(inner):
            run()
        samples.append((time.perf_counter() - t0) / inner)
    return statistics.median(samples)


def run_throughput(
    sizes,
    precisions,
    algorithms,
    d_widths,
    queries: int = 1 << 20,
    seed: int = 42,
    repetitions: int = 5,
    gap_lo: float = 1.0,
    gap_hi: float = 5.0,
    threads: int = 1,
    min_time: float = 0.1,
) -> ThroughputReport:
    """Time every (algorithm, precision, size, lane width) combination.

    Direct-family configurations whose construction is infeasible are
    recorded as skipped, never fatal.  Every configuration is checked
    against the oracle before timing; RuntimeError names its first miss.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if queries < 1:
        raise ValueError("queries must be >= 1")
    unknown = set(algorithms) - set(ALGORITHMS)
    if unknown:
        raise ValueError(f"unknown algorithms: {sorted(unknown)}")

    rows: list[ThroughputRow] = []
    skipped: list[InfeasibleSkipped] = []
    root = np.random.SeedSequence(seed)
    for precision in precisions:
        for size in sizes:
            part_seed, query_seed = root.spawn(1)[0].generate_state(2)
            p = gen_uniform_gap_partition(size, gap_lo, gap_hi, int(part_seed), precision)
            z = gen_queries(p, queries, int(query_seed))
            expected = linear_scan_oracle_batch(p, z)
            out = np.empty(queries, dtype=np.int64)
            for algorithm in algorithms:
                try:
                    prep = prepare(algorithm, p)
                except InfeasibleError as exc:
                    skipped.append(InfeasibleSkipped(algorithm, size, precision, repr(exc)))
                    continue
                for d in d_widths:
                    def run_pass(prep=prep, d=d):
                        run_batch(prep, z, d=d, threads=threads, out=out)

                    # Validity gate: check the kernel against the oracle
                    # once per configuration before any timing.
                    run_pass()
                    wrong = np.flatnonzero(out != expected)
                    if len(wrong):
                        j = wrong[0]
                        raise RuntimeError(
                            f"{algorithm} d={d} size={size} {precision}: "
                            f"{len(wrong)} outputs disagree with the oracle, first "
                            f"query {j} (z={z[j]}): got {out[j]}, want {expected[j]}"
                        )
                    per_pass = _measure(run_pass, repetitions, min_time)
                    msps = queries / per_pass / 1e6
                    rows.append(ThroughputRow(algorithm, precision, d, size, msps,
                                              queries, repetitions))
    return ThroughputReport(rows=rows, skipped=skipped)


def run_setup_stats(
    sizes,
    precision: str,
    samples: int = 1000,
    seed: int = 42,
    gap_lo: float = 1.0,
    gap_hi: float = 5.0,
) -> SetupStatsReport:
    """Distribution of growth-loop increments and per-element setup time.

    Builds the gap-1 direct index for ``samples`` fresh partitions per
    size; infeasible samples (none expected under the default layout)
    are counted, not fatal.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rows: list[SetupStatsRow] = []
    infeasible: dict[int, int] = {}
    root = np.random.SeedSequence(seed)
    for size in sizes:
        seeds = root.spawn(1)[0].generate_state(samples)
        updates: list[int] = []
        per_elem_ns: list[float] = []
        failed = 0
        for s in seeds:
            p = gen_uniform_gap_partition(size, gap_lo, gap_hi, int(s), precision)
            t0 = time.perf_counter_ns()
            try:
                h, r, stats = compute_h_r(p, q=1)
                build_index(p, h, r, q=1)
            except InfeasibleError:
                failed += 1
                continue
            elapsed = time.perf_counter_ns() - t0
            updates.append(stats.increments)
            per_elem_ns.append(elapsed / size)
        if failed:
            infeasible[size] = failed
        if updates:
            spread = (*_spread(updates), *_spread(per_elem_ns))
            rows.append(SetupStatsRow(size, len(updates), *spread))
    return SetupStatsReport(precision=precision, rows=rows, infeasible=infeasible)
