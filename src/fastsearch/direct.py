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
point: every truncated product pair floor(H*D_{i+q}) > floor(H*D_i)
holds, where D_i is the rounded offset X_i - X_0.  :func:`build_index`
proves it from the buckets its table fill computes, as the lane kernels
compute theirs (:func:`bucket_products`, truncated), and refuses an H
that fails it.  That fill is the library's one proof: :func:`build` fills
for an initial guess H0 and grows H while the fill refuses it, and
:func:`verify_index` proves a loaded index by requiring its K to be the
fill.  Arrays whose rounded offsets collide (NotDistinguishable) or whose
table would hold more buckets than ``_max_buckets(N)`` (Overflow) are
rejected before that table is allocated.

The initial guess and the table fill walk the knots in chunks of up to
2**14 knots, sized by N, with scratch buffers allocated once per pass,
so set-up allocates the tables it keeps plus a few chunk-sized buffers:
no N- or R-sized temporary.  K is allocated once, at its final
size.  A fused index keeps only its records, whose ``idx`` field is its
K and whose ``val`` field the fill writes as each run of K is finished;
the cache kernel alone reads them, so it is searched and saved through
its plain twin.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import ceil, isfinite

import numpy as np

from .errors import IndexFileError, NotDistinguishable, Overflow
from .partition import SortedPartition, check_domain, precision_of

#: Table-entry width is fixed at 32-bit unsigned; construction refuses larger N.
K_DTYPE = np.uint32

#: Knots per chunk of the initial guess and the table fill below
#: N = 2**18, where ``_chunk`` grows it.  The fill's scratch (at most 12
#: bytes a knot for a plain K) lives beside the table: at N = 2**16 it
#: stays under 15% of a gap-2 K.  Sweep over 2**10 .. 2**16 in CHANGES.md.
_CHUNK = 1 << 12


def _chunk(n: int) -> int:
    """Knots per chunk of the initial guess and the table fill over n
    intervals: n / 64 within [``_CHUNK``, 2**14].  Each chunk pays numpy's
    per-call costs: at N = 2**20 float32 the K fill took 12.4 ms in chunks
    of 2**12 and 8.1 ms in chunks of 2**14 (2**15 and 2**16 gained under 1
    ms).  From N = 2**18 up the scratch, at most 25 bytes a knot, stays
    under 10% of the table (at least 4 bytes a bucket, and R >= N)."""
    return min(max(n >> 6, _CHUNK), 1 << 14)


def _max_buckets(n: int) -> int:
    """The most buckets (R + 1) a table over n intervals may hold: 32 a
    knot, at least 2**22 and at most 2**32 (a K entry's range).  R / N
    stays under 13 from N = 4096 up in every table the tests and the
    benchmark build (counts in CHANGES.md)."""
    return min(1 << 32, max(1 << 22, 32 * (n + 1)))


@dataclass(frozen=True)
class HGrowthStats:
    """How often the scale factor grew past its initial guess."""

    increments: int


@dataclass(frozen=True)
class DirectIndex:
    """Immutable bucket index enabling O(1) lower-bound search.

    ``k`` maps every bucket 0..r to a knot index (32-bit unsigned).  A
    fused index instead co-locates (index, knot value) records in
    ``fused`` for the cache-fused kernel and holds its table only there:
    its ``k`` is None.  Raises ValueError for a ``k`` that is not 1-D
    ``K_DTYPE`` or a table that does not hold R + 1 entries.
    """

    x0: np.floating
    h: np.floating
    r: int
    q: int
    k: np.ndarray | None
    n: int
    fused: np.ndarray | None = None

    def __post_init__(self) -> None:
        table = self.fused if self.k is None else self.k
        if self.k is not None and getattr(self.k, "dtype", None) != K_DTYPE:
            raise ValueError(f"K entries must be {np.dtype(K_DTYPE)}")
        if table is not None and np.shape(table) != (self.r + 1,):
            raise ValueError(f"need R + 1 = {self.r + 1} table entries, not {np.shape(table)}")

    @property
    def precision(self) -> str:
        return precision_of(self.x0.dtype)


def closed_form_h_r(p: SortedPartition, q: int = 1) -> tuple[float, int]:
    """Rounding-naive sizing: R = 1 + ceil(span / min gap), H = R / span.

    Useful as a memory estimate; actual construction must certify the
    separation property under rounding instead (see :func:`compute_h_r`).
    """
    xs = p.values.astype(np.float64)
    span = float(xs[-1] - xs[0])
    basis = min(q, p.n_intervals)  # as in _initial_h: q > N is vacuous
    r = 1 + ceil(span / float((xs[basis:] - xs[:-basis]).min()))
    return r / span, r


def bucket_products(x, x0, h, out):
    """h * (x - x0) in the knots' precision, written to ``out``."""
    np.subtract(x, x0, out=out)
    return np.multiply(out, h, out=out)


def _initial_h(xs: np.ndarray, q: int):
    """The initial guess (H0, R0) and the span X_N - X_0 of ``build``, in
    the knots' precision.

    H0 is the rounded reciprocal of the smallest rounded gap-q offset step
    and R0 = floor(H0 * span).  Raises NotDistinguishable when two gap-q
    offsets round to the same value and Overflow when H0's table would
    exceed ``_max_buckets(N)``.  The knots are walked in pieces of
    ``_chunk(N)`` pairs that overlap by q knots, so the position an error
    reports is that of a whole-array pass.
    """
    n = len(xs) - 1
    scalar = xs.dtype.type
    x0 = xs[0]
    # For q > N the separation requirement is vacuous; base the initial
    # guess on the widest available stride so the bucket count stays small.
    basis = min(q, n)
    chunk = _chunk(n)
    width = min(chunk, n + 1 - basis)
    off = np.empty(width + basis, dtype=xs.dtype)
    step = np.empty(width, dtype=xs.dtype)

    smallest = scalar(np.inf)
    for a in range(basis, n + 1, chunk):
        b = min(a + chunk, n + 1)
        o = np.subtract(xs[a - basis : b], x0, out=off[: b - a + basis])
        low = np.subtract(o[basis:], o[:-basis], out=step[: b - a]).min()
        # Offsets never decrease, so a step that is not positive is a
        # collision: zero, or NaN where both offsets overflowed to infinity.
        if not low > 0 and basis == q:
            raise NotDistinguishable(a + int(np.argmin(step[: b - a] > 0)))
        smallest = np.minimum(smallest, low)
    span = xs[-1] - x0
    with np.errstate(over="ignore", invalid="ignore"):
        h = scalar(1.0) / smallest
    return h, _buckets(h, span, n), span


def _buckets(h, span, n: int) -> int:
    """R = floor(h * span), or Overflow when R + 1 exceeds ``_max_buckets(n)``."""
    limit = _max_buckets(n)
    with np.errstate(over="ignore", invalid="ignore"):
        # R + 1 <= limit exactly when floor(h * span) < limit.  The Python
        # comparison is exact, and false for an infinite or NaN product.
        if not float(h * span) < limit:
            raise Overflow(float(np.floor(h * span)) + 1, limit, n)
        return int(np.floor(h * span))


def _fill_table(table: np.ndarray, xs: np.ndarray, h, q: int) -> bool:
    """Write K into the zeroed ``table``, one chunk of ``_chunk(N)`` knots at
    a time, and prove from the same buckets, truncated as the kernels
    truncate them, that h separates the knots at gap q.

    Each entry of K counts knots: at gap 1 (K_j = i exactly when f_{i-1} <
    j <= f_i) K_j = #{i : f_i < j}, and at gap q > 1 (K_j = max{i : f_i
    <= j}) K_j = #{i >= 1 : f_i <= j}.  So every knot i >= 1 adds one at
    bucket f_{i-1} + 1 (gap 1) or f_i (gap q), and a running sum turns the
    counts into K.  After each chunk's adds, the running sum runs up to
    the first bucket the next chunk adds to, so every entry is final one
    chunk after its knots were read.

    The running sum goes through a strided operand: with numpy 2.4,
    ``np.add.accumulate`` in place over 3.1M contiguous uint32 buckets
    took 7.8 ms, and over the strided ``idx`` field of fused records 1.6
    ms.  So a fused table is summed in place, and a plain K in pieces into
    the bucket scratch ``j`` viewed as every other uint32, each piece
    copied back; consecutive pieces share one entry, so each piece starts
    from a final one.

    Separation is proven chunk by chunk; the fill returns False at the
    first chunk that fails it, leaving the table part filled.  At gap 1
    separated knots add at distinct buckets, so each add writes a 1 and K
    reaches b - 1 just below the first bucket of the chunk after [a, b);
    knots that share a bucket write one 1 and leave K short.
    (``build_index`` checks the last pair, (N - 1, N), before allocating.)
    At gap q > 1 a bucket may hold q knots, so ``np.add.at`` counts the
    adds, and the chunk [a, b) compares the pairs (i - q, i) for i in
    [a, b), reading the q knots before a.

    A table of fused records gets its K in the ``idx`` field and, right
    after each run, X_K in the ``val`` field.
    """
    fused = table.dtype.names is not None
    k = table["idx"] if fused else table
    n = len(xs) - 1
    x0 = xs[0]
    shift = int(q == 1)  # gap 1 reads knot i - 1 and adds past its bucket
    chunk = _chunk(n)
    width = min(chunk + q, n) + 1
    # The products lie in [0, R + 1) (build_index checked h and f(X_N) = R),
    # so truncating them into the int64 bucket buffer j floors them; double
    # precision truncates in place, in j's float64 view.  A plain K's running
    # sum reuses j, so it spans a chunk of K even where the knots are fewer.
    j = np.empty(max(width, min(chunk, len(k))), dtype=np.int64)
    if xs.dtype == np.float64:
        f, hit = j.view(np.float64), np.empty(width, dtype=bool)
    else:  # single: the products are truncated into j before pairs are compared
        f = np.empty(width, dtype=xs.dtype)
        hit = f.view(bool)
    if fused:
        val = table["val"]
        at = np.empty(min(chunk, len(table)), dtype=np.int64)
        got = np.empty(len(at), dtype=xs.dtype)
    else:
        piece = j.view(K_DTYPE)[::2]
    one = K_DTYPE(1)
    done = 0  # k[:done] holds final entries
    for a in range(1, n + 1, chunk):
        b = min(a + chunk, n + 1)
        lo, hi = max(a - q, 0), min(b, n) + 1 - shift  # the knots read
        e = hi - lo
        j[:e] = bucket_products(xs[lo:hi], x0, h, f[:e])  # the buckets
        adds = j[a - shift - lo : b - shift - lo]
        if shift:
            np.add(j[:e], 1, out=j[:e])
            k[adds] = one  # knots that share a bucket leave K short
        else:
            s, t = max(a, q) - lo, b - lo  # the pairs' upper knots
            if s < t and not np.greater(j[s:t], j[s - q : t - q], out=hit[: t - s]).all():
                return False
            np.add.at(k, adds, one)
        end = len(k) if b > n else int(j[b - shift - lo])
        if fused:
            run = k[max(done - 1, 0) : end]
            np.add.accumulate(run, out=run)
            for c in range(done, end, len(at)):
                d = min(c + len(at), end)
                at[: d - c] = k[c:d]
                np.take(xs, at[: d - c], out=got[: d - c], mode="clip")
                val[c:d] = got[: d - c]
        else:
            for c in range(max(done - 1, 0), end - 1, len(piece) - 1):
                d = min(c + len(piece), end)
                np.add.accumulate(k[c:d], out=piece[: d - c])
                k[c:d] = piece[: d - c]
        if shift and k[end - 1] != b - 1:
            return False
        done = end
    return True


class _NotSeparated(ValueError):
    """h puts two knots less than q apart into one bucket."""


def build_index(
    p: SortedPartition,
    h,
    r: int,
    q: int = 1,
    fused: bool = False,
) -> DirectIndex:
    """Materialize the bucket table K for (h, r) and prove that h separates
    the knots at gap q.

    O(N + R): one bucket evaluation per knot, one write per table entry.
    K is allocated once, at its final size R + 1, and filled chunk by
    chunk from the knots (see ``_fill_table``), so the build allocates no
    N- or R-sized temporary.  The fill proves separation from the buckets
    it computes, so no K is returned for an h that fails it.  With
    ``fused`` (gap 1 only) it allocates only the (index, knot value)
    records, aligned as a C struct (8 bytes in single precision, 16 in
    double), and fills their ``idx`` field as K and their ``val`` field as
    X_K; the returned index's ``k`` is then None.  h is kept in the knots'
    precision.

    Raises TypeError for a q or r that is not an integer, ValueError for
    an h that is not finite and positive or that precision cannot hold
    exactly, for a gap below 1, for r other than f(X_N) and, at gap 1, for
    f(X_{N-1}) not below r, and Overflow when R + 1 exceeds
    ``_max_buckets(N)``, all before allocating anything.
    Raises ValueError("h does not separate the knots at gap q") after
    allocating K when a pair (i - q, i) shares a bucket.
    """
    n, q, r = p.n_intervals, operator.index(q), operator.index(r)
    if q < 1:
        raise ValueError("gap must be >= 1")
    if n >= 2 ** 32:
        raise ValueError("table entries are 32-bit; partition is too large")
    if r + 1 > _max_buckets(n):
        raise Overflow(r + 1, _max_buckets(n), n)
    xs = p.values
    with np.errstate(over="ignore", invalid="ignore"):
        given, h = h, xs.dtype.type(h)
        if not (isfinite(h) and h > 0):
            raise ValueError(f"h = {float(given)!r} is not a finite positive {p.precision} value")
        # numpy would compare a float32 with a Python float in float32.
        if float(h) != given:
            raise ValueError(f"h = {float(given)!r} is not a {p.precision} value")
        # floor, not truncation: an overflowed product reads as inf.
        last = np.floor(bucket_products(xs[-2:], xs[0], h, np.empty(2, xs.dtype))).tolist()
    if last[1] != r:
        raise ValueError(f"R = {r} is not f(X_N) = {last[1]:.0f} for this h")
    if q == 1 and last[0] >= r:
        raise _NotSeparated(
            f"h does not separate the knots at gap 1: "
            f"f(X_{n - 1}) = {last[0]:.0f} is not below R = {r}"
        )
    if fused and q != 1:
        raise ValueError("fused records pair with the gap-1 kernel")
    record = np.dtype([("idx", K_DTYPE), ("val", xs.dtype)], align=True)
    table = np.zeros(r + 1, dtype=record if fused else K_DTYPE)
    if not _fill_table(table, xs, h, q):
        raise _NotSeparated(f"h does not separate the knots at gap {q}")
    assert (table["idx"] if fused else table)[-1] == n
    table.setflags(write=False)
    return DirectIndex(
        x0=xs[0], h=h, r=r, q=q, n=n, k=None if fused else table, fused=table if fused else None
    )


def build(p: SortedPartition, q: int = 1, fused: bool = False):
    """One-call construction: a certified scale factor H, its bucket count
    R and the table ``build_index`` fills for them.

    The table is filled for the initial guess H0 of ``_initial_h``, and the
    fill proves on the way that H separates the knots at gap q.  While it
    refuses H, H grows by an increment that starts at one ulp of H0 and
    doubles on every refusal, R follows, and the table is filled again;
    each refused table is freed before the next is allocated.  Raises
    NotDistinguishable when two gap-q offsets round to the same value and
    Overflow once R + 1 would exceed ``_max_buckets(N)``, before that
    table is allocated.

    Returns (DirectIndex, HGrowthStats).
    """
    q = operator.index(q)
    if q < 1:
        raise ValueError("gap must be >= 1")
    h, r, span = _initial_h(p.values, q)
    increments = 0
    while True:
        try:
            return build_index(p, h, r, q=q, fused=fused), HGrowthStats(increments)
        except _NotSeparated:
            pass  # leave the handler, so the refused table is freed first
        with np.errstate(over="ignore", invalid="ignore"):
            # The first increment is taken only on a refusal: numpy's first
            # nextafter call grows the resident set by about 64 kB.
            step = step + step if increments else np.nextafter(h, h.dtype.type(np.inf)) - h
            h, increments = h + step, increments + 1
        r = _buckets(h, span, p.n_intervals)


def compute_h_r(p: SortedPartition, q: int = 1):
    """Certified scale factor and bucket count for a direct index: the
    ``(h, r, HGrowthStats)`` of ``build(p, q)``, whose table is dropped.
    All arithmetic runs in the partition's precision, matching what the
    search kernel will execute; it raises what ``build`` raises."""
    idx, stats = build(p, q)
    return idx.h, idx.r, stats


def with_fused(idx: DirectIndex, p: SortedPartition) -> DirectIndex:
    """The fused form of a gap-1 index: the records ``build_index`` fills for
    its (h, r), with ``k`` None.  Raises ValueError where ``build_index``
    does, among them when h does not separate the knots at the index's
    gap."""
    return build_index(p, idx.h, idx.r, q=idx.q, fused=True)


def direct_search(idx: DirectIndex, p: SortedPartition, z) -> int:
    """Checked gap-q reference: one bucket read, then q comparisons.

    The bucket f(z) is evaluated in the index's precision.  The candidate
    t = K[f(z)] is corrected by comparing z against X_t .. X_{t-q+1}; a read
    below X_0 is clamped to X_0, as the gap kernels clamp it (z < X_0
    never holds, so a clamped read never changes the result).  A fused
    index raises ValueError: its records hold the K of its plain twin.  So
    does a partition whose N or X_0 is not the index's, or whose X_N puts z
    past the index's last bucket, and a z that is not one real number.
    """
    if idx.k is None:
        raise ValueError("a fused index is searched through its plain twin, build(p)")
    check_domain(p, z)
    j = int(idx.h * (idx.h.dtype.type(z) - idx.x0))
    if p.n_intervals != idx.n or p.values[0] != idx.x0 or j > idx.r:
        raise ValueError("partition does not match the index")
    xs = p.values
    t = int(idx.k[j])
    return t - sum(1 for m in range(idx.q) if z < xs[max(t - m, 0)])


def verify_index(idx: DirectIndex, p: SortedPartition) -> None:
    """Prove a plain index exact for ``p``: K must be ``build_index``'s fill
    for its (h, r, q), which proves that h separates the knots.  Raises
    ValueError, before any table exists, for a fused index or a partition
    whose precision, N or X_0 is not the index's; IndexFileError with the
    fill's refusal, or naming the first K entry that is not the fill's."""
    if idx.k is None:
        raise ValueError("a fused index is proven through its plain twin, build(p)")
    if p.precision != idx.precision or p.n_intervals != idx.n or p.values[0] != idx.x0:
        raise ValueError("partition does not match the index")
    try:
        k = build_index(p, idx.h, idx.r, idx.q).k
    except ValueError as exc:
        raise IndexFileError(str(exc)) from None
    step = _chunk(idx.n)  # compare chunk by chunk: no R-sized mask
    for c in range(0, len(k), step):
        if not np.array_equal(k[c : c + step], idx.k[c : c + step]):
            j = c + int(np.argmax(k[c : c + step] != idx.k[c : c + step]))
            raise IndexFileError(f"K[{j}] = {idx.k[j]} is not the table built from h")
