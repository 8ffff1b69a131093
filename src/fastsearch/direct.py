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
whose table would hold more buckets than ``_max_buckets(N)`` (Overflow)
are rejected before any table is allocated.

Certification and the table fill walk the knots in fixed windows and
chunks with scratch buffers allocated once per pass, so set-up allocates
the tables it keeps plus a few chunk-sized buffers: no N- or R-sized
temporary.  K is allocated once, at its final size; a fused index keeps
only its records, whose ``idx`` field is its K.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil

import numpy as np

from .errors import NotDistinguishable, Overflow
from .partition import SortedPartition, check_domain, precision_of

#: Table-entry width is fixed at 32-bit unsigned; construction refuses larger N.
K_DTYPE = np.uint32

#: Knots per chunk of the table fill.  Its scratch lives beside the
#: table, so the chunk stays small against the smallest table: at
#: N = 2**16 the fill's buffers (at most 12 bytes a knot) stay under 15%
#: of a gap-2 K.  Sweep over 2**10 .. 2**16 in CHANGES.md.
_CHUNK = 1 << 12
#: Pairs per window of the certification passes.  Their scratch (at most
#: 17 bytes a pair) is freed before any table is allocated, so the windows
#: can be wider than the fill's chunks, which saves per-window overhead:
#: at N = 2**20 certification took 7.3 ms over windows of 2**12 pairs and
#: 3.3 ms over 2**13.  At 2**14 it gained little more, and the rebuild
#: workload's resident set grew 6% (sweep in CHANGES.md).
_WINDOW = 1 << 13


def _max_buckets(n: int) -> int:
    """The most buckets (R + 1) a table over n intervals may hold: 32 a
    knot, at least 2**22 and at most 2**32 (a K entry's range).  R / N
    stays under 13 from N = 4096 up in every table the tests and the
    benchmark build (counts in CHANGES.md)."""
    return min(1 << 32, max(1 << 22, 32 * (n + 1)))


_TWO52 = 2.0 ** 52
_TWO52_BITS = int(np.float64(_TWO52).view(np.int64))

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
    growth_total: float


@dataclass(frozen=True)
class DirectIndex:
    """Immutable bucket index enabling O(1) lower-bound search.

    ``k`` maps every bucket 0..r to a knot index (32-bit unsigned).  A
    fused index instead co-locates (index, knot value) records in
    ``fused`` for the cache-fused kernel and holds its table only there:
    its ``k`` is None.  ``table`` is K either way.
    """

    x0: np.floating
    h: np.floating
    r: int
    q: int
    k: np.ndarray | None
    n: int
    fused: np.ndarray | None = None

    @property
    def precision(self) -> str:
        return precision_of(self.x0.dtype)

    @property
    def table(self) -> np.ndarray:
        """K: ``k``, or the ``idx`` field of the fused records."""
        return self.k if self.k is not None else self.fused["idx"]


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


def _floors(x, x0, h, out):
    """floor(h * (x - x0)) in x's precision, written to ``out``."""
    np.subtract(x, x0, out=out)
    np.multiply(out, h, out=out)
    return np.floor(out, out=out)


def separates(xs: np.ndarray, h, q: int = 1) -> bool:
    """Whether floor(h * D_i) > floor(h * D_{i-q}) for every i >= q, in the
    knots' precision, where D_i = X_i - X_0 (vacuous for q > N).  A NaN or
    overflowed product fails the comparison without a warning."""
    n, x0 = len(xs) - 1, xs[0]
    off = np.empty(min(_WINDOW, n) + q, dtype=xs.dtype)
    hit = np.empty(min(_WINDOW, n), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(q, n + 1, _WINDOW):
            b = min(a + _WINDOW, n + 1)
            f = _floors(xs[a - q : b], x0, h, off[: b - a + q])
            if not np.greater(f[q:], f[:-q], out=hit[: b - a]).all():
                return False
    return True


def compute_h_r(p: SortedPartition, q: int = 1):
    """Certified scale factor and bucket count for a direct index.

    Returns ``(h, r, HGrowthStats)``.  All arithmetic runs in the
    partition's precision, matching what the search kernel will execute.
    Raises NotDistinguishable when two gap-q offsets round to the same
    value and Overflow when its R + 1 buckets would exceed
    ``_max_buckets(N)``, before anything R-sized is allocated.

    The initial guess is the rounded reciprocal of the smallest rounded
    offset step; whenever a truncated pair fails to separate, H grows by
    an increment that starts at one ulp and doubles on every failure.
    After any growth the whole array is re-certified, so the returned H
    satisfies the separation property for every pair.

    Each pass walks the knots in windows of ``_WINDOW`` pairs that overlap
    by q knots, so every pair (i - q, i) is checked exactly once and in
    order: the result, and the position any error reports, are those of
    a pass over the whole array.
    """
    n = p.n_intervals
    if q < 1:
        raise ValueError("gap must be >= 1")
    xs = p.values
    scalar = xs.dtype.type
    x0 = xs[0]
    # For q > N the separation requirement is vacuous; base the initial
    # guess on the widest available stride so the bucket count stays small.
    basis = min(q, n)
    width = min(_WINDOW, n + 1 - basis)
    off = np.empty(width + basis, dtype=xs.dtype)
    step = np.empty(width, dtype=xs.dtype)

    smallest = scalar(np.inf)
    for a in range(basis, n + 1, _WINDOW):
        b = min(a + _WINDOW, n + 1)
        o = np.subtract(xs[a - basis : b], x0, out=off[: b - a + basis])
        low = np.subtract(o[basis:], o[:-basis], out=step[: b - a]).min()
        # Offsets never decrease, so a step that is not positive is a
        # collision: zero, or NaN where both offsets overflowed to infinity.
        if not low > 0 and basis == q:
            raise NotDistinguishable(a + int(np.argmin(step[: b - a] > 0)))
        smallest = np.minimum(smallest, low)

    limit = _max_buckets(n)
    span = xs[-1] - x0
    # inf - inf in the first increment when H is infinite; that H is refused.
    with np.errstate(over="ignore", invalid="ignore"):
        h = scalar(1.0) / smallest
        h_start = h
        growth = np.nextafter(h, scalar(np.inf)) - h
        increments = 0
        # R + 1 <= limit exactly when floor(h * span) < limit.  The Python
        # comparison is exact, and false for an infinite or NaN product.
        while float(h * span) < limit and not separates(xs, h, q):
            h = h + growth
            increments += 1
            growth = growth + growth
        if not float(h * span) < limit:
            raise Overflow(float(np.floor(h * span)) + 1, limit, n)

    r = int(np.floor(h * span))
    return h, r, HGrowthStats(increments, growth_total=float(h - h_start))


def _fill_table(k: np.ndarray, xs: np.ndarray, h, q: int) -> None:
    """Write K into the zeroed ``k``, one chunk of knots at a time.

    Each entry of K counts knots: at gap 1 (K_j = i exactly when f_{i-1} <
    j <= f_i) K_j = #{i : f_i < j}, and at gap q > 1 (K_j = max{i : f_i
    <= j}) K_j = #{i >= 1 : f_i <= j}.  So every knot i >= 1 adds one at
    bucket f_{i-1} + 1 (gap 1) or f_i (gap q), where ``np.add.at`` counts
    knots that share a bucket, and a running sum turns the counts into K.

    After each chunk's adds, the running sum runs up to the first bucket
    the next chunk adds to, so every entry is final one chunk after its
    knots were read.  ``k`` may be a strided view.
    """
    n = len(xs) - 1
    x0 = xs[0]
    shift = int(q == 1)  # gap 1 reads knot i - 1 and adds past its bucket
    width = min(_CHUNK, n) + 1
    # The buckets are whole numbers below 2**52, since a table that long
    # could not be allocated.  Adding 2**52 to one in binary64 leaves it in
    # the low bits, so the int64 buckets come out of the float64 view of
    # the same buffer, and double precision needs no float buffer.
    j = np.empty(width, dtype=np.int64)
    jf = j.view(np.float64)
    f = jf if xs.dtype == jf.dtype else np.empty(width, dtype=xs.dtype)
    one = K_DTYPE(1)
    done = 0  # k[:done] holds final entries
    for a in range(1, n + 1, _CHUNK):
        b = min(a + _CHUNK, n + 1)
        e = min(b, n) + 1 - a  # the chunk's knots and the next chunk's first
        lo = a - shift
        _floors(xs[lo : lo + e], x0, h, f[:e])
        if f is not jf:
            jf[:e] = f[:e]
        np.add(jf[:e], _TWO52 + shift, out=jf[:e])
        np.subtract(j[:e], _TWO52_BITS, out=j[:e])
        np.add.at(k, j[: b - a], one)
        end = len(k) if b > n else int(j[b - a])
        run = k[max(done - 1, 0) : end]
        np.add.accumulate(run, out=run)
        done = end


def _fill_values(fused: np.ndarray, xs: np.ndarray) -> None:
    """fused["val"] = X[fused["idx"]], gathered in chunks of _CHUNK records."""
    idx, val = fused["idx"], fused["val"]
    width = min(_CHUNK, len(fused))
    at = np.empty(width, dtype=np.int64)
    got = np.empty(width, dtype=xs.dtype)
    for a in range(0, len(fused), _CHUNK):
        b = min(a + _CHUNK, len(fused))
        at[: b - a] = idx[a:b]
        np.take(xs, at[: b - a], out=got[: b - a], mode="clip")
        val[a:b] = got[: b - a]


def build_index(
    p: SortedPartition,
    h,
    r: int,
    q: int = 1,
    fused: bool = False,
) -> DirectIndex:
    """Materialize the bucket table K for (h, r) produced by compute_h_r.

    O(N + R): one bucket evaluation per knot, one write per table entry.
    K is allocated once, at its final size R + 1, and filled chunk by
    chunk from the knots (see ``_fill_table``), so the build allocates no
    N- or R-sized temporary.  With ``fused`` (gap 1 only) it allocates
    only the (index, knot value) records and fills their ``idx`` field
    as K; the returned index's ``k`` is then None.  Raises ValueError for
    a gap below 1, for r other than f(X_N) and, at gap 1, for f(X_{N-1})
    not below r, and Overflow when R + 1 exceeds ``_max_buckets(N)``, all
    before allocating anything.
    """
    n = p.n_intervals
    if q < 1:
        raise ValueError("gap must be >= 1")
    if n >= 2 ** 32:
        raise ValueError("table entries are 32-bit; partition is too large")
    if r + 1 > _max_buckets(n):
        raise Overflow(r + 1, _max_buckets(n), n)
    xs = p.values
    with np.errstate(over="ignore", invalid="ignore"):
        last = _floors(xs[-2:], xs[0], h, np.empty(2, xs.dtype)).tolist()
    if last[1] != r:
        raise ValueError(f"R = {r} is not f(X_N) = {last[1]:.0f} for this h")
    if q == 1 and last[0] >= r:
        raise ValueError(f"f(X_{n - 1}) = {last[0]:.0f} is not below R = {r}, as gap 1 needs")
    if fused and q != 1:
        raise ValueError("fused records pair with the gap-1 kernel")
    if fused:
        records = np.zeros(r + 1, dtype=_FUSED_DTYPES[p.precision])
        k = records["idx"]
    else:
        records, k = None, np.zeros(r + 1, dtype=K_DTYPE)
    _fill_table(k, xs, h, q)
    assert k[-1] == n
    if fused:
        _fill_values(records, xs)
    (records if fused else k).setflags(write=False)
    return DirectIndex(
        x0=xs[0], h=h, r=r, q=q, k=None if fused else k, n=n, fused=records
    )


def build(p: SortedPartition, q: int = 1, fused: bool = False):
    """One-call construction: compute_h_r then build_index.

    Returns (DirectIndex, HGrowthStats).
    """
    h, r, stats = compute_h_r(p, q=q)
    return build_index(p, h, r, q=q, fused=fused), stats


def with_fused(idx: DirectIndex, p: SortedPartition) -> DirectIndex:
    """The fused form of a gap-1 index: its K moved into (index, value)
    records, with ``k`` None."""
    if idx.q != 1:
        raise ValueError("fused records pair with the gap-1 kernel")
    fused = np.zeros(idx.r + 1, dtype=_FUSED_DTYPES[idx.precision])
    fused["idx"] = idx.table
    _fill_values(fused, p.values)
    fused.setflags(write=False)
    return replace(idx, k=None, fused=fused)


def direct_search(idx: DirectIndex, p: SortedPartition, z) -> int:
    """Checked gap-q reference: one bucket read, then q comparisons.

    The bucket f(z) is evaluated in the index's precision.  The candidate
    t = K[f(z)] is corrected by comparing z against X_t .. X_{t-q+1}; a read
    below X_0 is clamped to X_0, as the gap kernels clamp it (z < X_0
    never holds, so a clamped read never changes the result).  K is read
    from the fused records when the index keeps only those.
    """
    check_domain(p, z)
    xs = p.values
    t = int(idx.table[int(idx.h * (idx.h.dtype.type(z) - idx.x0))])
    return t - sum(1 for m in range(idx.q) if z < xs[max(t - m, 0)])
