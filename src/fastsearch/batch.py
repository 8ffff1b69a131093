"""Data-parallel batch execution of any search kernel.

Every fixed-iteration kernel admits lock-step execution: the per-query
state advances through an iteration count that depends only on N, with
conditional assignments instead of data-dependent control flow.  The
portable implementation here evaluates those lock-step lanes with numpy
array operations.  Because the per-lane computations never interact, the
lane width d only determines how queries are grouped, never what any
lane computes, so results are bit-identical for every d; the final
``M mod d`` queries always go through the plain scalar kernel.

The classical search is the one exception: its loop exit depends on the
data, so its batch form is simply the scalar kernel applied per query,
whatever d says.

Each kernel name maps to one builder in a single table.  A builder makes
the search structure, lists only the tables its own kernel reads, and
returns the structure with the kernel's scalar and lane forms.

Queries are converted to the partition's dtype once, at the batch
boundary, and the domain check runs on the converted values: a batch's
answers are those for its queries rounded to the partition's precision.

Batches may additionally be split across worker threads (contiguous
spans, outputs written disjointly, so out[j] is always query j's
answer).  The ``FASTSEARCH_THREADS`` environment variable supplies the
thread count when none is passed explicitly; either way the count is
capped at the machine's CPU count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import binsearch, direct, eytzinger
from .errors import OutOfDomain
from .partition import QueryBatch, SortedPartition, pad_right_pow2

THREADS_ENV = "FASTSEARCH_THREADS"


def _compile_kernel(lines, **bound) -> Callable:
    """exec an unrolled scalar kernel with its tables bound as default args.

    The fixed-iteration kernels run a probe count that is a pure function
    of N, so their loops can be fully unrolled with every constant inlined;
    that is the same property that makes them lane-parallel.  The unrolled
    form is bit-identical to the reference ``*_seq`` loops (asserted in the
    test suite) and roughly twice as fast per query under CPython.

    The kernel is popped from its namespace, so the function and the
    tables it binds form no reference cycle and are freed on last use.
    """
    params = "".join(f", {name}=_{name}" for name in bound)
    src = f"def kernel(z{params}):\n" + "\n".join(f"    {ln}" for ln in lines)
    namespace = {f"_{name}": value for name, value in bound.items()}
    exec(src, namespace)
    return namespace.pop("kernel")


@dataclass(frozen=True)
class PreparedKernel:
    """A search structure plus its scalar and lock-step entry points."""

    algorithm: str
    partition: SortedPartition
    structure: object
    scalar: Callable
    lanes: Callable | None


# Every builder takes (partition, qbits) and returns (structure, scalar,
# lanes); only the direct family reads qbits.


def _build_classic(p: SortedPartition, qbits: int):
    def scalar(z, _xs=p.values.tolist(), _n=p.n_intervals):
        return binsearch.classic_seq(_xs, _n, z)

    return p, scalar, None


def _build_bitset1(p: SortedPartition, qbits: int):
    n = p.n_intervals
    probe = binsearch.probe_constant(n)
    lines = ["i = 0"]
    k = probe
    while k:
        if k == probe:
            lines.append(f"if {k} < {n} and z >= xs[{k}]: i = {k}")
        else:
            lines.append(f"r = i | {k}")
            lines.append(f"if r < {n} and z >= xs[r]: i = r")
        k >>= 1
    lines.append("return i")

    def lanes(z, _xs=p.values, _n=n, _p=probe):
        i = np.zeros(len(z), dtype=np.int64)
        k = _p
        while k:
            r = i | k
            within = r < _n
            take = within & (z >= _xs[np.minimum(r, _n)])
            i = np.where(take, r, i)
            k >>= 1
        return i

    return probe, _compile_kernel(lines, xs=p.values.tolist()), lanes


def _build_bitset2(p: SortedPartition, qbits: int):
    pp = pad_right_pow2(p)
    lines = ["i = 0"]
    k = pp.probe
    while k:
        if k == pp.probe:
            lines.append(f"if z >= xs[{k}]: i = {k}")
        else:
            lines.append(f"r = i | {k}")
            lines.append("if z >= xs[r]: i = r")
        k >>= 1
    lines.append("return i")

    def lanes(z, _xs=pp.padded, _p=pp.probe):
        i = np.zeros(len(z), dtype=np.int64)
        k = _p
        while k:
            r = i | k
            i = np.where(z >= _xs[r], r, i)
            k >>= 1
        return i

    return pp, _compile_kernel(lines, xs=pp.padded.tolist()), lanes


def _build_bitset3(p: SortedPartition, qbits: int):
    n = p.n_intervals
    probe = binsearch.probe_constant(n)
    lines = ["i = 0"]
    k = probe
    while k:
        if k == probe:
            lines.append(f"if z >= xs[{min(k, n)}]: i = {k}")
        else:
            lines.append(f"r = i | {k}")
            lines.append(f"w = r if r < {n} else {n}")
            lines.append("if z >= xs[w]: i = r")
        k >>= 1
    lines.append("return i")

    def lanes(z, _xs=p.values, _n=n, _p=probe):
        i = np.zeros(len(z), dtype=np.int64)
        k = _p
        while k:
            r = i | k
            take = z >= _xs[np.minimum(r, _n)]
            i = np.where(take, r, i)
            k >>= 1
        return i

    return probe, _compile_kernel(lines, xs=p.values.tolist()), lanes


def _build_offset(p: SortedPartition, qbits: int):
    c = binsearch.offset_constants(p.n_intervals)
    # The range size halves deterministically, so the whole size sequence
    # is a compile-time constant.
    lines = ["i = 0", f"if z >= xs[{c.F}]: i = {c.F}"]
    s = c.S
    for _ in range(c.J):
        half = s >> 1
        lines.append(f"f = i + {half}")
        lines.append("if z >= xs[f]: i = f")
        s -= half
    lines.append("return i")

    def lanes(z, _xs=p.values, _c=c):
        # The range size is data-independent, so it stays a plain int
        # shared by every lane; only the start index is per-lane state.
        i = np.where(z >= _xs[_c.F], _c.F, 0).astype(np.int64)
        s = _c.S
        for _ in range(_c.J):
            half = s >> 1
            f = i + half
            i = np.where(z >= _xs[f], f, i)
            s -= half
        return i

    return c, _compile_kernel(lines, xs=p.values.tolist()), lanes


def _build_eytzinger(p: SortedPartition, qbits: int):
    lay = eytzinger.build_layout(p)
    # 0-based descent: p <- 2p + 1 + [z >= tree[p]]; afterwards p - 2**depth
    # is the count of knots <= z, minus one.
    lines = ["p = 1 + (z >= xs[0])"]
    for _ in range(lay.L - 1):
        lines.append("p = p + p + 1 + (z >= xs[p])")
    lines.append(f"return p - {1 << lay.L}")

    def lanes(z, _t=lay.tree, _L=lay.L):
        k = np.ones(len(z), dtype=np.int64)
        for _ in range(_L):
            k = 2 * k + (z >= _t[k - 1])
        return k - (1 << _L) - 1

    return lay, _compile_kernel(lines, xs=lay.tree.tolist()), lanes


def _direct_scalar(idx: direct.DirectIndex, xpad: np.ndarray) -> Callable:
    """Gap-q scalar: one bucket read, then q comparisons; xpad[w + q - 1] is X_w.

    The bucket is computed in the index's own precision: on Python floats
    for double (binary64, identical to the lanes bit for bit), and on
    genuine float32 numpy scalars for single.
    """
    if idx.precision == "single":
        bucket, h, x0 = "int(h * (f32(z) - x0))", idx.h, idx.x0
    else:
        bucket, h, x0 = "int(h * (z - x0))", float(idx.h), float(idx.x0)
    hits = "".join(f" - (z < xs[t + {m}])" for m in range(1, idx.q))
    lines = [f"t = k[{bucket}]", "return t - (z < xs[t])" + hits]
    return _compile_kernel(
        lines, k=idx.k.tolist(), xs=xpad.tolist(), h=h, x0=x0, f32=np.float32
    )


def _build_direct(p: SortedPartition, qbits: int, q: int):
    """Gap-q direct kernel: the candidate t = K[f(z)] is corrected by q
    comparisons against X_t .. X_{t-q+1}, read from the knots left-padded
    with q - 1 copies of X_0 (which no in-domain query is below)."""
    idx, _ = direct.build(p, qbits=qbits, q=q)
    xpad = np.concatenate([idx.left_pad, p.values]) if q > 1 else p.values

    def lanes(z, _h=idx.h, _x0=idx.x0, _k=idx.k, _xp=xpad, _q=q):
        t = _k[(_h * (z - _x0)).astype(np.int64)].astype(np.int64)
        i = t - (z < _xp[t])
        for m in range(1, _q):
            i -= z < _xp[t + m]
        return i

    return idx, _direct_scalar(idx, xpad), lanes


def _build_direct_cache(p: SortedPartition, qbits: int):
    """Gap-1 lanes over fused records: index and knot value in one read.

    The fused ``idx``/``val`` fields hold exactly K and X[K], so the scalar
    is the gap-1 kernel reading K and X directly.
    """
    idx, _ = direct.build(p, qbits=qbits, fused=True)

    def lanes(z, _h=idx.h, _x0=idx.x0, _f=idx.fused):
        rec = _f[(_h * (z - _x0)).astype(np.int64)]
        return rec["idx"].astype(np.int64) - (z < rec["val"])

    return idx, _direct_scalar(idx, p.values), lanes


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


def prepare(algorithm: str, p: SortedPartition, qbits: int = 32) -> PreparedKernel:
    """Build the search structure for ``algorithm`` and wrap its kernels.

    Direct-family preparation propagates NotDistinguishable/Overflow from
    index construction.
    """
    if algorithm not in _BUILDERS:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick one of {ALGORITHMS}")
    return PreparedKernel(algorithm, p, *_BUILDERS[algorithm](p, qbits))


def resolve_threads(threads: int | None) -> int:
    if threads is not None:
        if threads < 1:
            raise ValueError("thread count must be >= 1")
        return threads
    env = os.environ.get(THREADS_ENV)
    return max(1, int(env)) if env else 1


def _spans(total: int, parts: int, granularity: int):
    """Split [0, total) into <= parts contiguous spans at granularity bounds."""
    units = total // granularity
    parts = min(parts, units) or 1
    base, extra = divmod(units, parts)
    start = 0
    for w in range(parts):
        stop = start + (base + (w < extra)) * granularity
        yield start, stop
        start = stop
    if start < total:
        yield start, total


def run_batch(
    prepared: PreparedKernel,
    queries,
    d: int = 1,
    threads: int | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Resolve every query; returns ``out``, where out[j] answers query j.

    ``queries`` is a 1-D array, sequence or QueryBatch.  It is converted
    once to the partition's dtype, and the answers are for those rounded
    values, independent of the lane width d and the thread count.
    ``out``, when given, must hold one entry per query; otherwise a new
    int64 array is returned.  Raises ValueError for d < 1, input that is
    not 1-D or a mis-sized ``out``, and OutOfDomain identifying the first
    converted query outside [X_0, X_N); nothing is written in those cases.
    """
    if d < 1:
        raise ValueError("lane width must be >= 1")
    z = np.asarray(queries.values if isinstance(queries, QueryBatch) else queries)
    if z.ndim != 1:
        raise ValueError(f"queries must be 1-D, got {z.ndim} dimensions")
    xs = prepared.partition.values
    z = z.astype(xs.dtype, copy=False)
    m = len(z)
    if out is not None and out.shape != (m,):
        raise ValueError("output array must hold exactly one entry per query")
    bad = ~((z >= xs[0]) & (z < xs[-1]))  # also catches NaN
    if bad.any():
        raise OutOfDomain(position=int(np.argmax(bad)))
    if out is None:
        out = np.empty(m, dtype=np.int64)

    nthreads = min(resolve_threads(threads), os.cpu_count() or 1)
    lane_stop = (m // d) * d if (prepared.lanes is not None and d > 1) else 0

    def run_span(a: int, b: int):
        if a >= b:
            return
        if b <= lane_stop:
            out[a:b] = prepared.lanes(z[a:b])
        else:
            scalar = prepared.scalar
            out[a:b] = [scalar(q) for q in z[a:b].tolist()]

    if nthreads == 1:
        run_span(0, lane_stop)
        run_span(lane_stop, m)
    else:
        if lane_stop:
            spans = list(_spans(lane_stop, nthreads, d))
            if lane_stop < m:
                spans.append((lane_stop, m))
        else:
            spans = list(_spans(m, nthreads, 1))
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            for fut in [pool.submit(run_span, a, b) for a, b in spans]:
                fut.result()
    return out
