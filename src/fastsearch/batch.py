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
returns the structure with the kernel's scalar and lane forms.  All eight
lane kernels share one generator of both forms: each is a start, a probe
schedule, i += k wherever X[i + k] <= z, and a read rule that keeps its
scalar's probes in range (bitset1 guards, bitset2 pads, bitset3 clamps).
The comparison kernels take their schedules from
:mod:`fastsearch.binsearch`, and the Eytzinger descent is a start over
its stored tree levels followed by bitset3's schedule over the knots.
The direct kernels start from their bucket's table entry, computed in
the index's precision: at gap q the start i = t - q is followed by q unit
steps, and direct-cache's fused record gives the answer with no steps.

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
from .partition import SortedPartition, check_real_array, overflow_at, pad_right_pow2


def _compile_kernel(lines, **bound) -> Callable:
    """exec an unrolled scalar kernel with its tables bound as default args.

    The fixed-iteration kernels run a probe count that is a pure function
    of N (or of the gap q), so their loops can be fully unrolled with every
    constant inlined; that is the same property that makes them
    lane-parallel.  The unrolled form reads the same table entries in the
    same order as its reference loop, which the test suite asserts read
    for read for every lane kernel, and runs roughly twice as fast per
    query under CPython.

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
#: eytzinger lanes (then 21 levels) were slowest at 2**12, where per-block
#: call overhead shows, and at 2**16.
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
    table, steps, test, structure, head=("i = 0",), start=_start_at_zero,
    entry=direct.K_DTYPE, **bound
):
    """A fixed-schedule kernel: a start, then i += k wherever the read
    rule accepts r = i + k, for every k in ``steps``.

    The lane kernels differ only in their start, their schedule and how
    they keep a probe in range, which ``test`` spells out for the scalar
    over ``xs`` and r.  The scalar sets i in its ``head`` lines and reads
    what ``bound`` binds (default: ``xs``, the table as a list).  The
    lanes track w = i + 1, set by ``start(z, w, *scratch)``, whose
    block-sized scratch is one int64, one ``table``, one bool and one
    ``entry`` buffer (a gathered K entry or fused record).  A step reads
    X[min(w + k - 1, len - 1)]: past N that is X_N, which exceeds every
    in-domain query, so the clip accepts no probe that a guard, a pad or a
    clamp would refuse.  Below index 0 the clip reads X_0, which is right
    for a unit step only: there it is X[max(i + 1, 0)], and every
    in-domain z meets X_0.  A direct start may leave w = t - q + 1 below
    0 because only unit steps follow it; every other start keeps w at or
    above 0, where the clip would turn i = -1 into a read of X_k.  A unit
    step adds its hit to w directly.  Every schedule ends in a unit step,
    which writes the answer i = w - (z < X[w]) and so folds the final
    w - 1 into its compare; a start that no step follows (direct-cache)
    writes the answer itself.
    """
    lines = list(head)
    for k in steps:
        lines += [f"r = i + {k}", f"if {test}: i = r"]
    lines.append("return i")
    reads = [(table[k - 1 :], k) for k in steps[:-1]]

    def step(z, w, r, v, hit, e):
        start(z, w, r, v, hit, e)
        for t, k in reads:
            _take(t, w, v)  # X[min(w + k - 1, len - 1)]
            np.greater_equal(z, v, out=hit)
            if k == 1:
                np.add(w, hit, out=w)
            else:
                _add_where(w, hit, k, r)
        if steps:  # the last, unit step: i = w - 1 + (z >= X[w])
            _take(table, w, v)
            np.less(z, v, out=hit)
            np.subtract(w, hit, out=w)

    lanes = _blocked(step, np.int64, table.dtype, bool, entry)
    scalar = _compile_kernel(lines, **(bound or {"xs": table.tolist()}))
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
    knots, and i ends as the count of splitters X_1 .. X_{N-1} <= z (see
    :mod:`fastsearch.eytzinger`)."""
    lay, n = eytzinger.build_layout(p), p.n_intervals
    top, below = lay.top, lay.L - lay.top
    # 0-based descent: p <- 2p + 1 + [z >= tree[p]]; afterwards
    # p + 1 - 2**top is the node's offset in level top.
    head = ["p = 0", *["p = p + p + 1 + (z >= t[p])"] * top]
    head.append(f"i = (p + {1 - (1 << top)}) << {below}")

    # w is the node's offset within its level: level l starts at slot
    # 2**l - 1, and the children of offset w are offsets 2w and 2w + 1.
    # Shifted below the stored levels, w is the in-order rank of the
    # leftmost leaf under the node, which is i; the lanes track i + 1.
    levels = [lay.tree[(1 << level) - 1 :] for level in range(top)]

    def start(z, w, r, v, hit, *_):
        w[:] = 0
        for t in levels:
            _take(t, w, v)
            np.greater_equal(z, v, out=hit)
            np.add(w, w, out=w)
            np.add(w, hit, out=w)
        np.left_shift(w, below, out=w)
        np.add(w, 1, out=w)

    steps = binsearch.bit_schedule((1 << below) - 1)
    test = f"z >= xs[r if r < {n} else {n}]"
    views = {"t": memoryview(lay.tree), "xs": memoryview(p.values)}
    return _probe_kernel(p.values, steps, test, lay, head, start, **views)


def _build_direct(p: SortedPartition, q: int = 1, fused: bool = False):
    """The paper's O(1) search: the bucket f(z) = int(h * (z - x0)), its
    table entry, then a fixed correction.

    At gap q the candidate t = K[f(z)] brackets the answer in [t - q, t]:
    the search starts at i = t - q and takes q unit steps, i += 1 wherever
    z >= X[max(i + 1, 0)].  Once a step misses, later steps reread the same
    knot and miss too.  A read below index 0 is X_0, which every in-domain
    z meets: the lanes' clip reads X_0 there, and the scalar clamps r
    itself, since xs[-1] would be X_N.  Only gap 2 and up can read there.
    The fused gap-1 records (direct-cache) hold K[f(z)] and its knot in one
    read, so the answer idx - (z < val) takes no steps.

    The bucket is computed in the index's own precision: on Python floats
    for double (binary64, identical to the lanes bit for bit), and on
    genuine float32 numpy scalars for single.
    """
    idx, _ = direct.build(p, q=q, fused=fused)
    table = idx.fused if fused else idx.k

    def start(z, w, j, f, hit, e):
        j[:] = direct.bucket_products(z, idx.x0, idx.h, f)  # truncated as int() truncates
        _take(table, j, e)
        if fused:
            np.less(z, e["val"], out=hit)
            np.subtract(e["idx"], hit, out=w)  # the answer: no step follows
        else:
            w[:] = e
            if q > 1:
                np.subtract(w, q - 1, out=w)  # w = t - q + 1

    if idx.precision == "single":
        bucket, h, x0 = "int(h * (f32(z) - x0))", idx.h, idx.x0
    else:
        bucket, h, x0 = "int(h * (z - x0))", float(idx.h), float(idx.x0)
    # The scalar reads the index's arrays through memoryviews, whose items
    # come out as Python ints and floats.  Unlike tolist() copies, which
    # box every entry in its own object, they add no memory and keep a
    # random lookup to one compact table row: at N = 2**16 the gap-q
    # kernel runs about 1.5x as fast, at 2**20 about 1.9x.  The eytzinger
    # scalar reads its stored tree levels and the knots the same way.  The
    # comparison kernels' scalars keep tolist() copies of their knots,
    # because a memoryview slows the small-N scalar speeds that the
    # acceptance suite compares (ROADMAP item 6).
    if fused:
        head, steps = [f"j = {bucket}", "i = k[j] - (z < v[j])"], []
        views = {"k": memoryview(table["idx"]), "v": memoryview(table["val"])}
    else:
        head, steps = [f"i = k[{bucket}] - {q}"], [1] * q
        views = {"k": memoryview(table), "xs": memoryview(p.values)}
    test = "z >= xs[r]" if q == 1 else "z >= xs[r if r > 0 else 0]"
    bound = {**views, "h": h, "x0": x0, "f32": np.float32}
    return _probe_kernel(p.values, steps, test, idx, head, start, table.dtype, **bound)


_BUILDERS = {
    "classic": _build_classic,
    "bitset1": _build_bitset1,
    "bitset2": _build_bitset2,
    "bitset3": _build_bitset3,
    "offset": _build_offset,
    "eytzinger": _build_eytzinger,
    "direct": partial(_build_direct, q=1),
    "direct-gap2": partial(_build_direct, q=2),
    "direct-cache": partial(_build_direct, fused=True),
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
    ``out``, when given, must be a writeable int64 array with one entry per
    query; otherwise a new one is returned.  Raises TypeError for a
    non-integer d or thread count, ValueError for either below 1, for
    queries that are not real or not 1-D and for a mis-sized, mis-typed or
    read-only ``out``, and OutOfDomain identifying the first converted
    query outside [X_0, X_N) or past the float range; nothing is written
    in those cases.
    """
    d, threads = operator.index(d), operator.index(threads)
    if d < 1:
        raise ValueError("lane width must be >= 1")
    if threads < 1:
        raise ValueError("thread count must be >= 1")
    z = np.asarray(queries)
    check_real_array(z, "queries")
    xs = prepared.partition.values
    try:
        with np.errstate(over="ignore"):  # a float past float32's range: inf
            z = z.astype(xs.dtype, copy=False)
    except OverflowError:
        raise OutOfDomain(position=overflow_at(z)) from None
    m = len(z)
    if out is not None and (out.shape != (m,) or out.dtype != np.int64 or not out.flags.writeable):
        raise ValueError("output array must be writeable int64 with one entry per query")
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
