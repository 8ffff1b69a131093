"""Data-parallel batch execution of any search kernel.

Every fixed-iteration kernel admits lock-step execution: the per-query
state advances through an iteration count that depends only on N, with
conditional assignments instead of data-dependent control flow.  The
portable implementation here evaluates those lock-step lanes with numpy
array operations.  Because the per-lane computations never interact, the
lane width d only determines how queries are grouped, never what any
lane computes, so results are bit-identical for every d; the final
``M mod d`` queries always go through the plain scalar kernel.

The lanes run in fixed blocks of ``_BLOCK`` queries.  Each kernel gives
one per-block step that writes its answers straight into its slice of
the output and keeps every intermediate in block-sized scratch buffers,
allocated once per call.  A batch's temporary memory is therefore a few
hundred KB whatever its size, stays in cache between steps, and never
depends on whether the allocator hands out fresh pages.

The classical search is the one exception: its loop exit depends on the
data, so its batch form is simply the scalar kernel applied per query,
whatever d says.

Each kernel name maps to one builder in a single table.  A builder makes
the search structure, lists only the tables its own kernel reads, and
returns the structure with the kernel's scalar and lane forms.  The five
fixed-iteration comparison kernels share one generator of both forms:
each is a start, a probe schedule from :mod:`fastsearch.binsearch`,
i += k wherever X[i + k] <= z, and a read rule that keeps its scalar's
probes in range (bitset1 guards, bitset2 pads, bitset3 clamps).  The
Eytzinger descent is a start over its stored tree levels followed by
bitset3's schedule over the knots.  The direct family's scalars share one
compiler that binds the bucket expression of the index's precision.

Queries are converted to the partition's dtype once, at the batch
boundary, and the domain check runs on the converted values: a batch's
answers are those for its queries rounded to the partition's precision.

Only the lanes are split across worker threads: the GIL serializes the
pure-Python scalar, so a batch's scalar part (its ``M mod d`` tail, or
all of it for ``d = 1`` and ``classic``) runs on the calling thread.
The lanes split into contiguous spans of at least one lane block, written
disjointly (out[j] is always query j's answer); a lane part too small for
two spans runs inline.  The thread count is the caller's, 1 by default,
capped at the machine's CPU count.
"""

from __future__ import annotations

import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import binsearch, direct, eytzinger
from .errors import OutOfDomain
from .partition import SortedPartition, holds_reals, overflow_at, pad_right_pow2


def _compile_kernel(lines, **bound) -> Callable:
    """exec an unrolled scalar kernel with its tables bound as default args.

    The fixed-iteration kernels run a probe count that is a pure function
    of N, so their loops can be fully unrolled with every constant inlined;
    that is the same property that makes them lane-parallel.  The unrolled
    form reads the same table entries in the same order as its reference
    loop, which the test suite asserts read for read for the
    probe-schedule kernels, and runs roughly twice as fast per query
    under CPython.

    The kernel is popped from its namespace, so the function and the
    tables it binds form no reference cycle and are freed on last use.
    """
    params = "".join(f", {name}=_{name}" for name in bound)
    src = f"def kernel(z{params}):\n" + "\n".join(f"    {ln}" for ln in lines)
    namespace = {f"_{name}": value for name, value in bound.items()}
    exec(src, namespace)
    return namespace.pop("kernel")


#: Queries per lane block, chosen by a sweep over 2**12 .. 2**16 on the
#: benchmark's three workload shapes (table in CHANGES.md).  The direct
#: lanes ran within a few percent of each other from 2**13 up; the
#: 21-level eytzinger lanes were slowest at 2**12, where per-block call
#: overhead shows, and at 2**16.
_BLOCK = 1 << 14


def _blocked(step: Callable, *scratch) -> Callable:
    """The lane form of a kernel: ``step`` run over blocks of _BLOCK queries.

    ``step(z, out, *bufs)`` resolves one block of queries ``z``, writing
    the answers into ``out`` and keeping every intermediate in ``bufs``:
    one block-sized buffer per dtype in ``scratch``, allocated once per
    call.  Memory use therefore scales with the block, not the batch.
    The returned ``lanes(z, out=None)`` fills and returns ``out`` (a new
    int64 array when omitted).
    """

    def lanes(z, out=None):
        m = len(z)
        if out is None:
            out = np.empty(m, dtype=np.int64)
        bufs = [np.empty(min(m, _BLOCK), dtype=dt) for dt in scratch]
        for a in range(0, m, _BLOCK):
            b = min(a + _BLOCK, m)
            step(z[a:b], out[a:b], *(buf[: b - a] for buf in bufs))
        return out

    return lanes


def _take(table: np.ndarray, at: np.ndarray, out: np.ndarray) -> None:
    """out[:] = table[at], gathered straight into ``out``.

    take buffers its output in the default (raising) mode; clip mode
    writes directly.  Clamping changes nothing where every index is in
    range, and bitset1 and bitset3 rely on it to read X[min(r, N)].
    """
    np.take(table, at, out=out, mode="clip")


def _add_where(i, hit, k, tmp) -> None:
    """i[hit] += k, as an add of ``hit * k`` computed in ``tmp``.

    This is the lanes' conditional assignment i = where(hit, i + k, i);
    copyto with a where-mask costs several times as much per query.
    """
    np.multiply(hit, k, out=tmp)
    np.add(i, tmp, out=i)


def _bucket(z, f, j, h, x0) -> None:
    """j[:] = int(h * (z - x0)), computed in z's precision in ``f``."""
    np.subtract(z, x0, out=f)
    np.multiply(f, h, out=f)
    j[:] = f


@dataclass(frozen=True)
class PreparedKernel:
    """A search structure plus its scalar and lock-step entry points.

    ``scalar(z)`` answers one query; ``lanes(z, out=None)`` answers an
    in-domain array of queries in the partition's dtype, block by block,
    and returns ``out`` (None for ``classic``, which has no lane form).
    """

    algorithm: str
    partition: SortedPartition
    structure: object
    scalar: Callable
    lanes: Callable | None


# Every builder takes the partition and returns (structure, scalar, lanes).


def _build_classic(p: SortedPartition):
    def scalar(z, _xs=p.values.tolist(), _n=p.n_intervals):
        return binsearch.classic_seq(_xs, _n, z)

    return p, scalar, None


def _start_at_zero(z, w, *scratch) -> None:
    """The lanes' start w = i + 1 for a search that starts at i = 0."""
    w[:] = 1


def _probe_kernel(
    table, steps, test, structure, head=("i = 0",), start=_start_at_zero, **tables
):
    """A fixed-schedule kernel: i += k wherever the read rule accepts
    r = i + k, for every k in ``steps``.

    The comparison kernels differ only in their start, their schedule and
    how they keep a probe in range, which ``test`` spells out for the
    scalar over ``xs`` and r.  The scalar sets i in its ``head`` lines and
    reads ``tables`` (default: ``xs``, the table as a list).  The lanes
    track w = i + 1, set by ``start(z, w, *scratch)``, and read
    X[min(w + k - 1, len - 1)]: past N that is X_N, which exceeds every
    in-domain query, so the clip accepts no probe that a guard, a pad or a
    clamp would refuse.  Tracking w keeps every index at or above 0, where
    the clip would turn i = -1 into a read of X_k.
    """
    lines = list(head)
    for k in steps:
        lines += [f"r = i + {k}", f"if {test}: i = r"]
    lines.append("return i")
    reads = [(table[k - 1 :], k) for k in steps]

    def step(z, w, r, v, hit):
        start(z, w, r, v, hit)
        for t, k in reads:
            _take(t, w, v)  # X[min(w + k - 1, len - 1)]
            np.greater_equal(z, v, out=hit)
            _add_where(w, hit, k, r)
        np.subtract(w, 1, out=w)

    lanes = _blocked(step, np.int64, table.dtype, bool)
    scalar = _compile_kernel(lines, **(tables or {"xs": table.tolist()}))
    return structure, scalar, lanes


def _build_bitset1(p: SortedPartition):
    """Guarded: a probe at or past N is refused unread.  The lanes drop
    the guard: their clipped read of X_N refuses the same probes."""
    n, bits = p.n_intervals, binsearch.bit_schedule(p.n_intervals)
    return _probe_kernel(p.values, bits, f"r < {n} and z >= xs[r]", bits)


def _build_bitset2(p: SortedPartition):
    """Padded: every probe lands in the array padded with X_N."""
    padded, bits = pad_right_pow2(p), binsearch.bit_schedule(p.n_intervals)
    return _probe_kernel(padded, bits, "z >= xs[r]", padded)


def _build_bitset3(p: SortedPartition):
    """Clamped: a probe past N reads X_N."""
    n, bits = p.n_intervals, binsearch.bit_schedule(p.n_intervals)
    return _probe_kernel(p.values, bits, f"z >= xs[r if r < {n} else {n}]", bits)


def _build_offset(p: SortedPartition):
    """Unguarded: the steps sum to N, so no probe passes index N."""
    steps = binsearch.offset_schedule(p.n_intervals)
    return _probe_kernel(p.values, steps, "z >= xs[r]", steps)


def _build_eytzinger(p: SortedPartition):
    """The descent over the stored levels is the start; the L - top steps
    below it are bitset3's clamped schedule 2**(L - top - 1) .. 1 over the
    knots (see :mod:`fastsearch.eytzinger`)."""
    lay, n = eytzinger.build_layout(p), p.n_intervals
    top, below = lay.top, lay.L - lay.top
    # 0-based descent: p <- 2p + 1 + [z >= tree[p]]; afterwards
    # p + 1 - 2**top is the node's offset in level top.
    head = ["p = 0", *["p = p + p + 1 + (z >= t[p])"] * top]
    head.append(f"i = ((p + {1 - (1 << top)}) << {below}) - 1")

    # w is the node's offset within its level: level l starts at slot
    # 2**l - 1, and the children of offset w are offsets 2w and 2w + 1.
    # Shifted below the stored levels, w is the in-order rank of the
    # leftmost leaf under the node, which is i + 1.
    levels = [lay.tree[(1 << level) - 1 :] for level in range(top)]

    def start(z, w, r, v, hit):
        w[:] = 0
        for t in levels:
            _take(t, w, v)
            np.greater_equal(z, v, out=hit)
            np.add(w, w, out=w)
            np.add(w, hit, out=w)
        np.left_shift(w, below, out=w)

    steps = binsearch.bit_schedule((1 << below) - 1)
    test = f"z >= xs[r if r < {n} else {n}]"
    views = {"t": memoryview(lay.tree), "xs": memoryview(p.values)}
    return _probe_kernel(p.values, steps, test, lay, head, start, **views)


def _direct_scalar(idx: direct.DirectIndex, lines, **tables) -> Callable:
    """Compile a direct scalar from ``lines``, in which ``{bucket}``
    stands for the bucket of z, over memoryviews of ``tables``.

    The bucket is computed in the index's own precision: on Python floats
    for double (binary64, identical to the lanes bit for bit), and on
    genuine float32 numpy scalars for single.

    The memoryviews read the index's own arrays, and their items come
    out as Python ints and floats.  Unlike ``tolist()`` copies, which box
    every entry in its own object, they add no memory and keep a random
    lookup to one compact table row: at N = 2**16 the gap-q kernel runs
    about 1.5x as fast, at 2**20 about 1.9x.  The eytzinger scalar reads
    its stored tree levels and the knots the same way, which saves a
    boxed copy of both at set-up.  The probe-schedule scalars keep
    ``tolist()`` copies of their knots, because a memoryview slows the
    small-N scalar speeds that the acceptance suite compares (ROADMAP
    item 6).
    """
    if idx.precision == "single":
        bucket, h, x0 = "int(h * (f32(z) - x0))", idx.h, idx.x0
    else:
        bucket, h, x0 = "int(h * (z - x0))", float(idx.h), float(idx.x0)
    views = {name: memoryview(t) for name, t in tables.items()}
    lines = [ln.format(bucket=bucket) for ln in lines]
    return _compile_kernel(lines, **views, h=h, x0=x0, f32=np.float32)


def _build_direct(p: SortedPartition, q: int):
    """Gap-q direct kernel: the candidate t = K[f(z)] is corrected by q
    comparisons against X_t .. X_{t-q+1}, read from the knots in place.
    The gathers clip an index below 0 to X_0, which no in-domain query is
    below."""
    idx, _ = direct.build(p, q=q)

    def step(z, i, f, j, t, v, hit, _h=idx.h, _x0=idx.x0, _k=idx.k, _x=p.values, _q=q):
        _bucket(z, f, j, _h, _x0)
        _take(_k, j, t)
        j[:] = t
        _take(_x, j, v)
        np.less(z, v, out=hit)
        np.subtract(j, hit, out=i)
        for _ in range(1, _q):
            np.subtract(j, 1, out=j)
            _take(_x, j, v)  # X[max(j, 0)]
            np.less(z, v, out=hit)
            np.subtract(i, hit, out=i)

    # The scalar compares X_t .. X_{t-q+1}, each index below 0 clamped to
    # X_0; z < X_0 never holds, so a read clamped to X_0 never counts.
    hits = "".join(f" - (z < xs[t - {m} if t > {m} else 0])" for m in range(1, q))
    lines = ["t = k[{bucket}]", "return t - (z < xs[t])" + hits]
    dt = p.values.dtype
    lanes = _blocked(step, dt, np.int64, idx.k.dtype, dt, bool)
    return idx, _direct_scalar(idx, lines, k=idx.k, xs=p.values), lanes


def _build_direct_cache(p: SortedPartition):
    """Gap-1 kernel over fused records: index and knot value in one read,
    by the lanes and by the scalar."""
    idx, _ = direct.build(p, fused=True)

    def step(z, i, f, j, rec, hit, _h=idx.h, _x0=idx.x0, _f=idx.fused):
        _bucket(z, f, j, _h, _x0)
        _take(_f, j, rec)
        np.less(z, rec["val"], out=hit)
        np.subtract(rec["idx"], hit, out=i)

    lines = ["j = {bucket}", "return k[j] - (z < v[j])"]
    scalar = _direct_scalar(idx, lines, k=idx.fused["idx"], v=idx.fused["val"])
    lanes = _blocked(step, p.values.dtype, np.int64, idx.fused.dtype, bool)
    return idx, scalar, lanes


_BUILDERS = {
    "classic": _build_classic,
    "bitset1": _build_bitset1,
    "bitset2": _build_bitset2,
    "bitset3": _build_bitset3,
    "offset": _build_offset,
    "eytzinger": _build_eytzinger,
    "direct": partial(_build_direct, q=1),
    "direct-gap2": partial(_build_direct, q=2),
    "direct-cache": _build_direct_cache,
}

ALGORITHMS = tuple(_BUILDERS)


def prepare(algorithm: str, p: SortedPartition) -> PreparedKernel:
    """Build the search structure for ``algorithm`` and wrap its kernels.

    Direct-family preparation propagates NotDistinguishable/Overflow from
    index construction.
    """
    if algorithm not in _BUILDERS:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick one of {ALGORITHMS}")
    return PreparedKernel(algorithm, p, *_BUILDERS[algorithm](p))


def run_batch(
    prepared: PreparedKernel,
    queries,
    d: int = 1,
    threads: int = 1,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Resolve every query; returns ``out``, where out[j] answers query j.

    ``queries`` is a 1-D array or sequence of real numbers.  It is converted
    once to the partition's dtype, and the answers are for those rounded
    values, independent of the lane width d and the thread count.
    ``out``, when given, must be an int64 array with one entry per query;
    otherwise a new one is returned.  Raises TypeError for a non-integer d
    or thread count, ValueError for either below 1, for queries that are
    not real or not 1-D and for a mis-sized or mis-typed ``out``, and
    OutOfDomain identifying the first converted query outside [X_0, X_N)
    or past the float range; nothing is written in those cases.
    """
    d, threads = operator.index(d), operator.index(threads)
    if d < 1:
        raise ValueError("lane width must be >= 1")
    if threads < 1:
        raise ValueError("thread count must be >= 1")
    z = np.asarray(queries)
    if not holds_reals(z):
        raise ValueError(f"queries must be real numbers, got dtype {z.dtype}")
    if z.ndim != 1:
        raise ValueError(f"queries must be 1-D, got {z.ndim} dimensions")
    xs = prepared.partition.values
    try:
        with np.errstate(over="ignore"):  # a float past float32's range: inf
            z = z.astype(xs.dtype, copy=False)
    except OverflowError:
        raise OutOfDomain(position=overflow_at(z)) from None
    m = len(z)
    if out is not None and (out.shape != (m,) or out.dtype != np.int64):
        raise ValueError("output array must be int64 with one entry per query")
    # min and max propagate NaN, which fails both comparisons.
    if m and not (z.min() >= xs[0] and z.max() < xs[-1]):
        bad = ~((z >= xs[0]) & (z < xs[-1]))
        raise OutOfDomain(position=int(np.argmax(bad)))
    if out is None:
        out = np.empty(m, dtype=np.int64)

    # The lanes answer [0, stop); threads split only that part, into spans
    # of at least one lane block, since the GIL serializes the scalar.
    lanes, scalar = prepared.lanes, prepared.scalar
    stop = m - m % d if (lanes is not None and d > 1) else 0
    parts = min(threads, os.cpu_count() or 1, stop // _BLOCK)
    if parts > 1:
        cuts = [stop * w // parts for w in range(parts + 1)]
        with ThreadPoolExecutor(max_workers=parts) as pool:
            spans = zip(cuts, cuts[1:])
            for fut in [pool.submit(lanes, z[a:b], out[a:b]) for a, b in spans]:
                fut.result()
    elif stop:
        lanes(z[:stop], out=out[:stop])
    out[stop:] = [scalar(q) for q in z[stop:].tolist()]
    return out
