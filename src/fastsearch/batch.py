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
returns the structure with the kernel's scalar and lane forms.  The
bit-setting and offset searches share one generator of both forms: each
is a probe schedule, i += k wherever X[i + k] <= z, and a read rule that
keeps its scalar's probes in range (bitset1 guards, bitset2 pads, bitset3
clamps).  The direct family's scalars share one compiler that binds the
bucket expression of the index's precision.

Queries are converted to the partition's dtype once, at the batch
boundary, and the domain check runs on the converted values: a batch's
answers are those for its queries rounded to the partition's precision.

Only the lanes are split across worker threads: the GIL serializes the
pure-Python scalar, so a batch's scalar part (its ``M mod d`` tail, or
all of it for ``d = 1`` and ``classic``) runs on the calling thread.
The lanes split into contiguous spans of at least one lane block, written
disjointly (out[j] is always query j's answer); a lane part too small for
two spans runs inline.  ``FASTSEARCH_THREADS`` supplies the thread count
when none is passed; either way it is capped at the machine's CPU count.
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
from .partition import SortedPartition, pad_right_pow2

THREADS_ENV = "FASTSEARCH_THREADS"


def _compile_kernel(lines, **bound) -> Callable:
    """exec an unrolled scalar kernel with its tables bound as default args.

    The fixed-iteration kernels run a probe count that is a pure function
    of N, so their loops can be fully unrolled with every constant inlined;
    that is the same property that makes them lane-parallel.  The unrolled
    form reads the same table entries in the same order as its reference
    (a ``*_seq`` loop or ``direct_search``), which the test suite asserts
    read for read for the probe-schedule kernels, and runs roughly twice
    as fast per query under CPython.

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


def _probe_kernel(table: np.ndarray, steps, test: str, structure):
    """A fixed-schedule kernel: i += k wherever the read rule accepts
    r = i + k, for every k in ``steps``.

    The bit-setting and offset searches differ only in their schedule and
    in how they keep a probe in range, which ``test`` spells out for the
    scalar over ``xs`` (the table as a list) and r.  The first probe is
    r = k, since i is still 0.  The lanes read X[min(r, len - 1)] instead:
    past N that is X_N, which exceeds every in-domain query, so the clip
    accepts no probe that a guard, a pad or a clamp would refuse.
    """
    lines = ["i = 0"]
    for pos, k in enumerate(steps):
        lines += [f"r = i + {k}" if pos else f"r = {k}", f"if {test}: i = r"]
    lines.append("return i")

    def step(z, i, r, v, hit, _t=table, _s=tuple(steps)):
        i[:] = 0
        for k in _s:
            _take(_t[k:], i, v)  # X[min(i + k, len - 1)]
            np.greater_equal(z, v, out=hit)
            _add_where(i, hit, k, r)

    lanes = _blocked(step, np.int64, table.dtype, bool)
    return structure, _compile_kernel(lines, xs=table.tolist()), lanes


def _bits(n: int) -> list[int]:
    """The bit-setting searches' schedule: 2**floor(log2 N) down to 1.
    Bit k of i is still clear when k is probed, so i + k is i | k."""
    probe = binsearch.probe_constant(n)
    return [probe >> s for s in range(probe.bit_length())]


def _build_bitset1(p: SortedPartition):
    """Guarded: a probe at or past N is refused unread.  The lanes drop
    the guard: their clipped read of X_N refuses the same probes."""
    n, bits = p.n_intervals, _bits(p.n_intervals)
    return _probe_kernel(p.values, bits, f"r < {n} and z >= xs[r]", bits[0])


def _build_bitset2(p: SortedPartition):
    """Padded: every probe lands in the array padded with X_N."""
    padded = pad_right_pow2(p)
    return _probe_kernel(padded, _bits(p.n_intervals), "z >= xs[r]", padded)


def _build_bitset3(p: SortedPartition):
    """Clamped: a probe past N reads X_N."""
    n, bits = p.n_intervals, _bits(p.n_intervals)
    return _probe_kernel(p.values, bits, f"z >= xs[r if r < {n} else {n}]", bits[0])


def _build_offset(p: SortedPartition):
    """The start index F, then the halves of a range size that shrinks
    deterministically, so the whole schedule is a function of N."""
    c = binsearch.offset_constants(p.n_intervals)
    steps, s = [c.F], c.S
    for _ in range(c.J):
        steps.append(s >> 1)
        s -= s >> 1
    return _probe_kernel(p.values, steps, "z >= xs[r]", c)


def _build_eytzinger(p: SortedPartition):
    lay = eytzinger.build_layout(p)
    top, n = lay.top, p.n_intervals
    # 0-based descent over the stored levels: p <- 2p + 1 + [z >= tree[p]];
    # afterwards p + 1 - 2**top is the node's offset u in level top.
    lines = ["p = 0"]
    for _ in range(top):
        lines.append("p = p + p + 1 + (z >= t[p])")
    lines.append(f"w = (p + {1 - (1 << top)}) << {lay.L - top}")
    # Each knot step reads X[min(w + half - 1, N)] and lands on w + half.
    for level in range(top, lay.L):
        half = 1 << (lay.L - level - 1)
        lines.append(f"r = w + {half - 1}")
        lines.append(f"if z >= xs[r if r < {n} else {n}]: w = r + 1")
    lines.append("return w - 1")

    def step(z, w, r, v, hit, _t=lay.tree, _x=p.values, _top=top, _L=lay.L):
        # w is the node's offset within its level: level l starts at slot
        # 2**l - 1, and the children of offset w are offsets 2w and 2w + 1.
        w[:] = 0
        for level in range(_top):
            _take(_t[(1 << level) - 1 :], w, v)
            np.greater_equal(z, v, out=hit)
            np.add(w, w, out=w)
            np.add(w, hit, out=w)
        # Below the stored levels w is the in-order rank of the leftmost
        # leaf under the node, and the node at that level has rank
        # w + half - 1 in the knots; the clip reads X_N past N, as the
        # padding did.
        np.left_shift(w, _L - _top, out=w)
        for level in range(_top, _L):
            half = 1 << (_L - level - 1)
            _take(_x[half - 1 :], w, v)  # X[min(w + half - 1, N)]
            np.greater_equal(z, v, out=hit)
            _add_where(w, hit, half, r)
        np.subtract(w, 1, out=w)  # the leaf rank counts the knots <= z

    lanes = _blocked(step, np.int64, p.values.dtype, bool)
    scalar = _compile_kernel(lines, t=memoryview(lay.tree), xs=memoryview(p.values))
    return lay, scalar, lanes


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

    # The scalar reads record j's index as word k[j * ks] and its value
    # as v[j * vs + vo], through views of the records' own buffer.
    rec = idx.fused
    vtype, offset = rec.dtype.fields["val"][:2]
    ks = rec.itemsize // 4
    vs, vo = rec.itemsize // vtype.itemsize, offset // vtype.itemsize
    lines = ["j = {bucket}", f"return k[{ks} * j] - (z < v[{vs} * j + {vo}])"]
    scalar = _direct_scalar(idx, lines, k=rec.view(np.uint32), v=rec.view(vtype))
    dt = p.values.dtype
    lanes = _blocked(step, dt, np.int64, rec.dtype, bool)
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


def resolve_threads(threads: int | None) -> int:
    if threads is not None:
        threads = operator.index(threads)
        if threads < 1:
            raise ValueError("thread count must be >= 1")
        return threads
    env = os.environ.get(THREADS_ENV)
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {env!r}") from None


def run_batch(
    prepared: PreparedKernel,
    queries,
    d: int = 1,
    threads: int | None = None,
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
    OutOfDomain identifying the first converted query outside [X_0, X_N);
    nothing is written in those cases.
    """
    d = operator.index(d)
    if d < 1:
        raise ValueError("lane width must be >= 1")
    nthreads = resolve_threads(threads)
    z = np.asarray(queries)
    if z.dtype.kind not in "biufO":
        raise ValueError(f"queries must be real numbers, got dtype {z.dtype}")
    if z.ndim != 1:
        raise ValueError(f"queries must be 1-D, got {z.ndim} dimensions")
    xs = prepared.partition.values
    z = z.astype(xs.dtype, copy=False)
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
    parts = min(nthreads, os.cpu_count() or 1, stop // _BLOCK)
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
