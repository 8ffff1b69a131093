"""Readable reference loops for the fixed-schedule kernels.

Each ``*_seq`` function is a loop over a plain index-by-integer sequence.
The comparison loops are driven by the paper's constants: the leading
probe of the bit-setting searches and the offset search's (F, S, J),
worked out here independently of the library's probe schedules.  The
direct loops take an index's bucket table, h, x0 and gap q.  The
library compiles the unrolled scalar and lane forms of these kernels
from its schedules and tables (see :mod:`fastsearch.binsearch` and
:mod:`fastsearch.batch`); the tests check those fast forms against these
loops, read for read, and check the loops against the linear-scan
oracle.  ``classic_seq`` stays in :mod:`fastsearch.binsearch`, since it
is the classical kernel's scalar.

``separates_seq`` and ``certify_seq`` are the direct index's separation
condition and its certification of H, each as one pass over the whole
array; the library proves separation in its chunked table fill instead.
"""

from __future__ import annotations

import numpy as np

from fastsearch.direct import _max_buckets
from fastsearch.errors import NotDistinguishable, Overflow


def probe_constant(n: int) -> int:
    """Leading probe 2**floor(log2 N) of the bit-setting searches."""
    return 1 << (n.bit_length() - 1)


def offset_constants(n: int) -> tuple[int, int, int]:
    """The offset search's (F, S, J): the initial mid index (N+1)//2, the
    remaining range size N + 1 - F, and the fixed iteration count
    floor(log2(N+1))."""
    f = (n + 1) >> 1
    return f, n + 1 - f, (n + 1).bit_length() - 1


def bitset1_seq(xs, n: int, probe: int, z) -> int:
    """Resolve the result bits top-down; candidate indexes are range-guarded."""
    i = 0
    k = probe
    while k:
        r = i | k
        if r < n and z >= xs[r]:
            i = r
        k >>= 1
    return i


def pad_right_pow2(p) -> np.ndarray:
    """The knots of partition ``p`` right-padded with X_N up to length
    2**(1 + floor(log2 N)), read-only: :func:`bitset2_seq`'s input.  Every
    index below twice the leading probe is then in range, and the padding
    value X_N compares greater than any valid query."""
    n = p.n_intervals
    padded = np.full(1 << n.bit_length(), p.values[-1], dtype=p.values.dtype)
    padded[: n + 1] = p.values
    padded.setflags(write=False)
    return padded


def bitset2_seq(padded, probe: int, z) -> int:
    """Unguarded bit-setting search over a right-padded array.

    Every candidate index fits in the padded array and the padding value
    X_N compares greater than any valid query, so the guard of
    :func:`bitset1_seq` is unnecessary.
    """
    i = 0
    k = probe
    while k:
        r = i | k
        if z >= padded[r]:
            i = r
        k >>= 1
    return i


def bitset3_seq(xs, n: int, probe: int, z) -> int:
    """No padding: the probe index is clamped to N before the load."""
    i = 0
    k = probe
    while k:
        r = i | k
        w = r if r < n else n
        if z >= xs[w]:
            i = r
        k >>= 1
    return i


def offset_seq(xs, f: int, s: int, j: int, z) -> int:
    """Track (start index, range size); the size halves deterministically."""
    i = 0
    if z >= xs[f]:
        i = f
    while j > 0:
        j -= 1
        half = s >> 1
        f = i + half
        if z >= xs[f]:
            i = f
        s -= half
    return i


def eytzinger_seq(tree, xs, depth: int, z) -> int:
    """Fixed-depth descent over the splitters X_1 .. X_{N-1}: the
    len(tree).bit_length() levels stored in ``tree``, then the rest over
    the knots ``xs``, where the splitter at rank w + half - 1 is
    X[min(w + half, N)].  Returns the count of splitters <= z.  Both are
    any 0-based indexable sequences."""
    top = len(tree).bit_length()
    n = len(xs) - 1
    k = 1
    for _ in range(top):
        k = 2 * k + (1 if z >= tree[k - 1] else 0)
    w = (k - (1 << top)) << (depth - top)
    for level in range(top, depth):
        half = 1 << (depth - level - 1)
        if z >= xs[min(w + half, n)]:
            w += half
    return w


def direct_seq(k, xs, h, x0, q: int, z) -> int:
    """Gap-q direct search as a start plus q unit steps.

    The bucket int(h * (z - x0)) is computed in the precision of ``h`` and
    ``x0`` (numpy scalars of the knots' dtype).  Its entry t = K[f(z)]
    brackets the answer in [t - q, t], so the search starts at i = t - q
    and steps i += 1 wherever z >= X[max(i + 1, 0)].  A read below index 0
    is X_0, which every in-domain z meets.
    """
    i = k[int(h * (type(h)(z) - x0))] - q
    for _ in range(q):
        if z >= xs[max(i + 1, 0)]:
            i += 1
    return i


def direct_cache_seq(k, v, h, x0, z) -> int:
    """Gap-1 direct search over fused records: the bucket's index k[j]
    and the knot v[j] stored beside it, with no read of the knots."""
    j = int(h * (type(h)(z) - x0))
    return k[j] - (z < v[j])


def separates_seq(xs, h, q: int) -> bool:
    """Whether floor(h * D_i) > floor(h * D_{i-q}) for every i >= q, in the
    knots' precision, where D_i = X_i - X_0 (vacuous for q > N).  A NaN or
    overflowed product fails the comparison without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.floor(xs.dtype.type(h) * (xs - xs[0]))
        return bool((f[q:] > f[:-q]).all())


def certify_seq(xs, q: int):
    """The certified scale factor at gap q as ``(h, r, increments)``.

    H0 is the rounded reciprocal of the smallest rounded gap-q offset step
    (the widest step N for q > N).  While h does not separate the knots,
    it grows by an increment that starts at one ulp of H0 and doubles on
    every failure.  Raises NotDistinguishable at the first knot whose
    gap-q offset step is not positive, and Overflow for the first h whose
    R + 1 = floor(h * span) + 1 exceeds ``_max_buckets(N)``.
    """
    n = len(xs) - 1
    one = xs.dtype.type
    basis = min(q, n)
    off = xs - xs[0]
    step = off[basis:] - off[:-basis]
    with np.errstate(over="ignore", invalid="ignore"):
        if basis == q and not (step > 0).all():
            raise NotDistinguishable(q + int(np.argmin(step > 0)))
        h = one(1) / step.min()
        grow, increments, limit = np.nextafter(h, one(np.inf)) - h, 0, _max_buckets(n)
        while True:
            last = h * off[-1]
            if not float(last) < limit:
                raise Overflow(float(np.floor(last)) + 1, limit, n)
            if separates_seq(xs, h, q):
                return h, int(np.floor(last)), increments
            h, grow, increments = h + grow, grow + grow, increments + 1
