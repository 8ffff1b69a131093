"""The benchmark's workloads and the inputs it generates for them.

Knots and queries are made here with numpy from the run's seed, so a
change to the program's own generators cannot change a workload; the
program only ever receives arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Lane width for every run_batch call.
LANE_WIDTH = 8
#: Thread count passed to every timed run_batch call.
THREADS = 1
#: Knot gaps are uniform in [GAP_LO, GAP_HI).
GAP_LO, GAP_HI = 1.0, 5.0
#: The rebuild workload cycles through this many distinct partitions.
REBUILD_PARTITIONS = 16


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a single caller, uniform in-domain queries.

    ``rebuild`` workloads build every structure afresh in each cycle
    (validate, prepare, save, load, one batch); the others set up once
    and then send run_batch calls, round-robin over ``kernels``.
    """

    name: str
    dtype: type
    n: int
    kernels: tuple[str, ...]
    m: int
    rebuild: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bulk-direct", np.float32, 1 << 20,
                 ("direct", "direct-gap2", "direct-cache"), (1 << 20) + 5),
        Workload("bulk-eytzinger", np.float64, 1 << 20, ("eytzinger",), (1 << 18) + 5),
        Workload("rebuild", np.float64, 1 << 16, ("direct",), 1 << 16, rebuild=True),
    )
}


def make_knots(rng: np.random.Generator, n: int, dtype) -> np.ndarray:
    """N+1 knots from 0 with uniform gaps, cast to ``dtype``.

    Built in place so that generation leaves no large freed temporaries
    behind to blur the memory pass that follows it.  Gaps of at least 1
    below 2**22 stay distinct after rounding to float32.
    """
    knots = np.empty(n + 1)
    knots[0] = 0.0
    gaps = knots[1:]
    rng.random(out=gaps)
    gaps *= GAP_HI - GAP_LO
    gaps += GAP_LO
    np.cumsum(knots, out=knots)
    return knots.astype(dtype, copy=False)


def make_queries(rng: np.random.Generator, knots: np.ndarray, count: int) -> np.ndarray:
    """``count`` queries uniform in [X_0, X_N), in the knots' dtype."""
    z = rng.uniform(float(knots[0]), float(knots[-1]), count).astype(knots.dtype)
    top = knots[-1]
    z[z >= top] = np.nextafter(top, knots.dtype.type(-np.inf))
    return z

