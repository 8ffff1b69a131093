"""Throughput and setup-cost experiment drivers, and the rows they report.

Throughput methodology: per (precision, size) each configuration's output
is first verified against the linear-scan oracle (timing never assumes
correctness), then runs one untimed warm-up pass; its pass count per
measurement is scaled to span at least ``min_time`` seconds on the
monotonic clock, each repetition times the configurations in turn, and
the figure is the median of the repetitions in million searches per
second.  Setup cost is excluded: structures are prepared before timing
starts.  The timed queries are the array ``gen_queries`` returns, as is.

Setup-cost methodology: per size, ``samples`` independent partitions are
generated, and for each one ``build``, the scale-factor computation plus
table construction that ``prepare`` runs, is timed; the report aggregates
the growth-loop increment count and nanoseconds divided by the array size.

``ThroughputRow`` and ``SetupStatsRow`` declare their reports' columns
(see :mod:`.report`).
"""

from __future__ import annotations

import math
import statistics
import time
import timeit
from dataclasses import dataclass, field

import numpy as np

from ..batch import ALGORITHMS, prepare, run_batch
from ..direct import build
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
    rows: list[SetupStatsRow] = field(default_factory=list)
    infeasible: dict[int, int] = field(default_factory=dict)


def _spread(values) -> tuple[float, float, float, float]:
    """(mean, min, max, population stdev) of ``values``."""
    a = np.asarray(values, dtype=np.float64)
    return float(a.mean()), float(a.min()), float(a.max()), float(a.std())


def _measure(runs, repetitions: int, min_time: float) -> list[float]:
    """Median seconds per pass of each run, its passes scaled to fill
    ``min_time`` per measurement.  Every repetition times the runs in turn,
    so a burst of host load falls on all of them, not on one."""
    # timeit turns the garbage collector off unless its set-up turns it on.
    timers = [timeit.Timer(run, "gc.enable()") for run in runs]
    once = [timer.timeit(1) for timer in timers]  # warm-up, also calibrates
    inner = [int(min_time / max(t, 1e-9)) + 1 if t < min_time else 1 for t in once]
    samples = [[timer.timeit(n) / n for timer, n in zip(timers, inner)] for _ in range(repetitions)]
    return [statistics.median(taken) for taken in zip(*samples)]


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
    ValueError refuses repetitions or queries below 1, an unknown
    algorithm and a ``min_time`` that is not a finite number >= 0.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if queries < 1:
        raise ValueError("queries must be >= 1")
    if not 0 <= min_time < math.inf:  # also refuses NaN
        raise ValueError("min_time must be finite and >= 0")
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
            timed = []  # (algorithm, d, pass) of each gated configuration
            for algorithm in algorithms:
                try:
                    prep = prepare(algorithm, p)
                except InfeasibleError as exc:
                    cause = f"{type(exc).__name__}: {exc}"
                    skipped.append(InfeasibleSkipped(algorithm, size, precision, cause))
                    continue
                for d in d_widths:
                    def run_pass(prep=prep, d=d):
                        run_batch(prep, z, d=d, threads=threads, out=out)

                    # Validity gate: the oracle's answers, before any timing.
                    run_pass()
                    wrong = np.flatnonzero(out != expected)
                    if len(wrong):
                        j = wrong[0]
                        raise RuntimeError(
                            f"{algorithm} d={d} size={size} {precision}: "
                            f"{len(wrong)} outputs disagree with the oracle, first "
                            f"query {j} (z={z[j]}): got {out[j]}, want {expected[j]}"
                        )
                    timed.append((algorithm, d, run_pass))
            per_pass = _measure([run for _, _, run in timed], repetitions, min_time)
            for (algorithm, d, _), seconds in zip(timed, per_pass):
                rows.append(ThroughputRow(algorithm, precision, d, size,
                                          queries / seconds / 1e6, queries, repetitions))
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
                _, stats = build(p)
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
    return SetupStatsReport(rows=rows, infeasible=infeasible)
