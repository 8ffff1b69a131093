"""O(1) bucket-indexed search with rounding-aware construction.

The bucket function f(z) = floor(H * (z - X_0)), evaluated in the
partition's own precision, maps the domain onto integer buckets 0..R.  A
lookup table K of R+1 knot indices then resolves any query with one table
read and at most ``gap`` comparisons:

* gap 1: K follows the bracketing definition (K_j = i exactly when
  f(X_{i-1}) < j <= f(X_i)); the candidate t = K_{f(z)} is i or i+1 and a
  single comparison settles it.
* gap 2: the separation requirement is relaxed to f(X_{i+2}) > f(X_i) and
  K_j = max{i : f(X_i) <= j}; the candidate is within two of the answer
  and two independent comparisons settle it, shrinking the table.
* gap q > 2 is constructed the same way; the candidate is within q of
  the answer and q comparisons settle it.

:func:`direct_search` is the checked scalar reference for every gap; the
fast scalar and lane kernels live in :mod:`fastsearch.batch`.

Construction certifies the separation property directly in floating
point: starting from the rounded reciprocal of the smallest rounded
gap-q offset difference, the scale factor H is grown by exponentially
doubling ulp-scale increments until every truncated product pair
floor(H*D_{i+q}) > floor(H*D_i) holds, where D_i is the rounded offset
X_i - X_0.  Arrays whose rounded offsets collide (NotDistinguishable) or
whose bucket count cannot fit in ``qbits`` bits (Overflow) are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil

import numpy as np

from .errors import NotDistinguishable, Overflow
from .partition import ROUNDOFF, SortedPartition, check_domain

#: Table-entry width is fixed at 32-bit unsigned; construction refuses larger N.
K_DTYPE = np.uint32

_FUSED_DTYPES = {
    # (knot index, knot value) co-located in one record: 8 bytes in single
    # precision, 16 in double (4 zeroed padding bytes keep the value aligned).
    "single": np.dtype([("idx", "<u4"), ("val", "<f4")]),
    "double": np.dtype([("idx", "<u4"), ("pad", "<u4"), ("val", "<f8")]),
}


@dataclass(frozen=True)
class HGrowthStats:
    """How often and how far the scale factor grew past its initial guess."""

    increments: int
    final_h: float
    growth_total: float


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    margin: float
    ratio: float
    threshold: float


@dataclass(frozen=True)
class DirectIndex:
    """Immutable bucket index enabling O(1) lower-bound search.

    ``k`` maps every bucket 0..r to a knot index (32-bit unsigned);
    ``left_pad`` holds the q-1 sentinel copies of X_0 that the gap
    kernels logically prepend to the knots; ``fused`` optionally
    co-locates (index, knot value) records for the cache-fused kernel.
    """

    x0: np.floating
    h: np.floating
    r: int
    q: int
    k: np.ndarray
    qbits: int
    n: int
    precision: str
    left_pad: np.ndarray
    fused: np.ndarray | None = None


def feasibility_threshold(precision: str, qbits: int) -> float:
    """Applicability cutoff for min-gap / span, by precision and bucket width.

    The supported configurations use fixed cutoffs: 2^-23 (single,
    32-bit), 2^-32 (double, 32-bit) and 2^-51 (double, 64-bit); other
    combinations fall back to max(2^-qbits, twice the round-off error).
    """
    table = {
        ("single", 32): 2.0 ** -23,
        ("double", 32): 2.0 ** -32,
        ("double", 64): 2.0 ** -51,
    }
    try:
        return table[(precision, qbits)]
    except KeyError:
        return max(2.0 ** -qbits, 2.0 * ROUNDOFF[precision])


def feasibility_estimate(
    p: SortedPartition, qbits: int = 32, q: int = 1
) -> FeasibilityReport:
    """Advisory predicate: is the layout roughly amenable to a direct index?

    Compares the smallest gap-q spacing against the span.  Construction
    performs the exact checks; this estimate only predicts them.
    """
    xs = p.values.astype(np.float64)
    basis = min(q, p.n_intervals)  # as in compute_h_r: q > N is vacuous
    ratio = float((xs[basis:] - xs[:-basis]).min() / (xs[-1] - xs[0]))
    threshold = feasibility_threshold(p.precision, qbits)
    return FeasibilityReport(
        feasible=ratio > threshold,
        margin=ratio / threshold,
        ratio=ratio,
        threshold=threshold,
    )


def closed_form_h_r(p: SortedPartition, q: int = 1) -> tuple[float, int]:
    """Rounding-naive sizing: R = 1 + ceil(span / min gap), H = R / span.

    Useful as a memory estimate; actual construction must certify the
    separation property under rounding instead (see :func:`compute_h_r`).
    """
    xs = p.values.astype(np.float64)
    span = float(xs[-1] - xs[0])
    basis = min(q, p.n_intervals)  # as in compute_h_r: q > N is vacuous
    r = 1 + ceil(span / float((xs[basis:] - xs[:-basis]).min()))
    return r / span, r


def compute_h_r(p: SortedPartition, qbits: int = 32, q: int = 1):
    """Certified scale factor and bucket count for a direct index.

    Returns ``(h, r, HGrowthStats)``.  All arithmetic runs in the
    partition's precision, matching what the search kernel will execute.
    Raises NotDistinguishable when two gap-q offsets round to the same
    value and Overflow when the bucket count cannot stay below 2**qbits.

    The initial guess is the rounded reciprocal of the smallest rounded
    offset step; whenever a truncated pair fails to separate, H grows by
    an increment that starts at one ulp and doubles on every failure.
    After any growth the whole array is re-certified, so the returned H
    satisfies the separation property for every pair.
    """
    if qbits not in (32, 64):
        raise ValueError("qbits must be 32 or 64")
    n = p.n_intervals
    if q < 1:
        raise ValueError("gap must be >= 1")
    xs = p.values
    scalar = xs.dtype.type
    offsets = xs - xs[0]

    collide = offsets[q:] == offsets[:-q]
    if collide.any():
        raise NotDistinguishable(int(np.argmax(collide)) + q)

    # For q > N the separation requirement is vacuous; base the initial
    # guess on the widest available stride so the bucket count stays small.
    basis = min(q, n)
    with np.errstate(over="ignore"):
        h = scalar(1.0) / (offsets[basis:] - offsets[:-basis]).min()
        h_start = h
        limit = scalar(2.0 ** qbits)
        span = offsets[-1]
        if not h * span < limit:
            raise Overflow(f"floor(H * D_N) >= 2**{qbits} at the initial guess")

        growth = np.nextafter(h, scalar(np.inf)) - h
        increments = 0
        while True:
            floors = np.floor(h * offsets)
            if (floors[q:] > floors[:-q]).all():
                break
            h = h + growth
            increments += 1
            if not h * span < limit:
                raise Overflow(f"floor(H * D_N) >= 2**{qbits} while growing H")
            growth = growth + growth

    r = int(floors[-1])
    stats = HGrowthStats(
        increments=increments,
        final_h=float(h),
        growth_total=float(h - h_start),
    )
    return h, r, stats


def knot_buckets(p: SortedPartition, h) -> np.ndarray:
    """f evaluated at every knot, as int64, in the partition's precision."""
    offsets = p.values - p.values[0]
    return np.floor(h * offsets).astype(np.int64)


def build_index(
    p: SortedPartition,
    h,
    r: int,
    q: int = 1,
    qbits: int = 32,
    fused: bool = False,
) -> DirectIndex:
    """Materialize the bucket table K for (h, r) produced by compute_h_r.

    O(N + R): one bucket evaluation per knot, one write per table entry.
    """
    n = p.n_intervals
    if n >= 2 ** 32:
        raise ValueError("table entries are 32-bit; partition is too large")
    f = knot_buckets(p, h)
    if f[-1] != r:
        raise ValueError("(h, r) pair is inconsistent with this partition")
    if q == 1:
        # K_j = i exactly when f(X_{i-1}) < j <= f(X_i); K_0 = 0.
        counts = np.concatenate([[1], np.diff(f)])
    else:
        # K_j = max{i : f(X_i) <= j}.  Note K_0 exceeds 0 whenever several
        # leading knots share bucket 0; the gap kernel's correction terms
        # rely on exactly that value.
        counts = np.concatenate([np.diff(f), [1]])
    k = np.repeat(np.arange(n + 1, dtype=K_DTYPE), counts)
    assert len(k) == r + 1 and k[-1] == n
    assert k[0] == (0 if q == 1 else int(np.searchsorted(f, 0, side="right")) - 1)
    k.setflags(write=False)
    left_pad = np.full(q - 1, p.values[0], dtype=p.values.dtype)
    left_pad.setflags(write=False)
    idx = DirectIndex(
        x0=p.values[0],
        h=h,
        r=r,
        q=q,
        k=k,
        qbits=qbits,
        n=n,
        precision=p.precision,
        left_pad=left_pad,
    )
    return with_fused(idx, p) if fused else idx


def build(p: SortedPartition, qbits: int = 32, q: int = 1, fused: bool = False):
    """One-call construction: compute_h_r then build_index.

    Returns (DirectIndex, HGrowthStats).
    """
    h, r, stats = compute_h_r(p, qbits=qbits, q=q)
    return build_index(p, h, r, q=q, qbits=qbits, fused=fused), stats


def with_fused(idx: DirectIndex, p: SortedPartition) -> DirectIndex:
    """Attach cache-fused (index, value) records; gap-1 indices only."""
    if idx.q != 1:
        raise ValueError("fused records pair with the gap-1 kernel")
    fused = np.zeros(idx.r + 1, dtype=_FUSED_DTYPES[idx.precision])
    fused["idx"] = idx.k
    fused["val"] = p.values[idx.k]
    fused.setflags(write=False)
    return replace(idx, fused=fused)


def direct_search(idx: DirectIndex, p: SortedPartition, z) -> int:
    """Checked gap-q reference: one bucket read, then q comparisons.

    The bucket f(z) is evaluated in the index's precision.  The candidate
    t = K[f(z)] is corrected by comparing z against X_t .. X_{t-q+1}; a read
    below X_0 is clamped to X_0, which behaves exactly like the sentinel
    copies of X_0 the gap kernels logically prepend to the knots (z < X_0
    never holds, so a clamped read never changes the result).
    """
    check_domain(p, z)
    xs = p.values
    t = int(idx.k[int(idx.h * (idx.h.dtype.type(z) - idx.x0))])
    return t - sum(1 for m in range(idx.q) if z < xs[max(t - m, 0)])


def minimal_index_bytes(n: int) -> int:
    """Smallest power-of-two byte width whose range covers index n."""
    for b in (1, 2, 4, 8):
        if 2 ** (8 * b) >= n:
            return b
    raise ValueError("n exceeds the largest supported entry width")


def memory_cost_estimate(p: SortedPartition, b: int | None = None) -> int:
    """Estimated gap-1 table footprint: ceil(span / min gap) entries of b bytes."""
    if b is None:
        b = minimal_index_bytes(p.n_intervals)
    xs = p.values.astype(np.float64)
    entries = ceil(float(xs[-1] - xs[0]) / float(np.diff(xs).min()))
    return entries * b
