"""Shared test utilities: probe generation and instrumented sequences."""

from __future__ import annotations

import numpy as np

from fastsearch.partition import SortedPartition, gen_queries


#: Batches that are not real numbers, by test id: ``run_batch`` and
#: ``linear_scan_oracle_batch`` refuse each with a ValueError naming its dtype.
NON_REAL_BATCHES = {
    "complex": [3 + 1j],
    "str": ["1.5", "2.5"],
    "datetime64": np.array(["2000-01-01"], dtype="datetime64[D]"),
    "object-str": np.array(["1.5", "2.5"], dtype=object),
    "object-None": np.array([1.5, None], dtype=object),
    "object-complex": np.array([1.5, 3 + 1j], dtype=object),
}


class CountingList:
    """List wrapper that records reads and rejects out-of-range indices.

    ``served`` lists the indices read, in order; ``reads`` counts them.
    Negative indices are rejected too, so accidental Python-style
    wraparound in a kernel shows up as a failure instead of a wrong answer.
    """

    def __init__(self, data):
        self.data = list(data)
        self.served = []

    @property
    def reads(self):
        return len(self.served)

    def __getitem__(self, i):
        if not 0 <= i < len(self.data):
            raise IndexError(f"probe index {i} outside [0, {len(self.data)})")
        self.served.append(i)
        return self.data[i]

    def __len__(self):
        return len(self.data)


def boundary_probes(p: SortedPartition) -> np.ndarray:
    """Every knot, every in-domain nextafter-perturbed knot, every midpoint."""
    xs = p.values
    up = np.nextafter(xs, xs.dtype.type(np.inf))
    down = np.nextafter(xs, xs.dtype.type(-np.inf))
    mids = xs[:-1] + (xs[1:] - xs[:-1]) / xs.dtype.type(2)
    z = np.concatenate([xs, up, down, mids])
    z = z[(z >= xs[0]) & (z < xs[-1])]
    return np.unique(z)


def random_queries(p: SortedPartition, count: int, seed: int) -> np.ndarray:
    """Uniform in-domain queries in the partition's dtype (read-only)."""
    return gen_queries(p, count, seed)


def same_build(built, want, want_stats) -> bool:
    """Whether ``build``'s (index, stats) is ``want`` with ``want_stats`` bit
    for bit: h's type and bits, r, gap, N, the table's (K's or the fused
    records') type and bytes, and the growth count."""
    idx, stats = built
    table = idx.k if idx.k is not None else idx.fused
    want_table = want.k if want.k is not None else want.fused
    return (
        idx.h.dtype == want.h.dtype
        and idx.h.tobytes() == want.h.tobytes()
        and (idx.r, idx.q, idx.n) == (want.r, want.q, want.n)
        and (idx.k is None) == (want.k is None)
        and table.dtype == want_table.dtype
        and table.tobytes() == want_table.tobytes()
        and stats == want_stats
    )
