"""Shared test utilities: probe generation and instrumented sequences."""

from __future__ import annotations

import numpy as np

from fastsearch.direct import bucket_products
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


def buckets(idx, z) -> np.ndarray:
    """f(z) = trunc(h * (z - X_0)) in the index's precision, as int64."""
    return bucket_products(z, idx.x0, idx.h, np.empty_like(z)).astype(np.int64)


def _ordered(x):
    """The floats' bit patterns as integers in the floats' order (-0 is 0)."""
    bits = x.view(np.int32 if x.dtype == np.float32 else np.int64)
    return np.where(bits < 0, -(bits & np.iinfo(bits.dtype).max), bits)


def _unordered(key, dtype):
    sign = key.dtype.type(np.iinfo(key.dtype).min)
    return np.where(key < 0, -key | sign, key).view(dtype)


def breakpoints(p: SortedPartition, idx) -> np.ndarray:
    """The floats at which a direct kernel over ``idx`` can change its
    answer: the knots X_0 .. X_{N-1} and the first float of every bucket
    1 .. R below X_N, sorted and unique.

    f is monotone over the floats (rounded subtraction, multiplication by
    h > 0 and truncation all are), so each bucket is a run of floats, and
    a direct kernel reads z only through f(z) and comparisons with knots.
    Its answer is therefore constant between consecutive breakpoints, as
    the true answer is, and right on [X_0, X_N) exactly when it is right at
    every breakpoint.  Bucket j's first float is found by bisection over
    the floats' ordered bit patterns, from the knots whose buckets bracket
    j or, where it holds, a bracket a few ulps around X_0 + j / h.
    """
    xs = p.values
    j = np.arange(1, idx.r + 1)
    i = np.searchsorted(buckets(idx, xs), j)  # f(X_{i-1}) < j <= f(X_i)
    lo, hi = _ordered(xs[i - 1]), _ordered(xs[i])
    # Most first floats lie within a few ulps of X_0 + j / h: narrow to
    # those brackets that keep f(lo) < j <= f(hi), then bisect the rest.
    guess = _ordered((float(idx.x0) + j / float(idx.h)).astype(xs.dtype))
    near_lo, near_hi = np.maximum(lo, guess - 4), np.minimum(hi, guess + 4)
    near = (buckets(idx, _unordered(near_lo, xs.dtype)) < j) & (
        buckets(idx, _unordered(near_hi, xs.dtype)) >= j
    )
    lo[near], hi[near] = near_lo[near], near_hi[near]
    open_ = np.flatnonzero(hi - lo > 1)
    while len(open_):
        a, b = lo[open_], hi[open_]
        mid = (a >> 1) + (b >> 1) + (a & b & 1)
        below = buckets(idx, _unordered(mid, xs.dtype)) < j[open_]
        lo[open_[below]], hi[open_[~below]] = mid[below], mid[~below]
        open_ = open_[hi[open_] - lo[open_] > 1]
    first = _unordered(hi, xs.dtype)
    return np.unique(np.concatenate([xs[:-1], first[first < xs[-1]]]))


def direct_rule(k, xs, idx, z) -> np.ndarray:
    """``reference.direct_seq`` over every z at once, with table ``k`` and
    the bucket function and gap of ``idx``: start at K[f(z)] - q and step
    wherever z >= X[max(i + 1, 0)].  K's entries must lie in [0, N]."""
    i = k[buckets(idx, z)].astype(np.int64) - idx.q
    for _ in range(idx.q):
        i += z >= xs[np.maximum(i + 1, 0)]
    return i


def true_answers(p: SortedPartition, z) -> np.ndarray:
    """The largest i with X_i <= z, by ``np.searchsorted``."""
    return np.searchsorted(p.values, z, "right") - 1
