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
"""

from __future__ import annotations


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
    """Fixed-depth descent: the len(tree).bit_length() levels stored in
    ``tree``, then the rest over the knots ``xs``, each read clamped to
    X_N.  Both are any 0-based indexable sequences."""
    top = len(tree).bit_length()
    n = len(xs) - 1
    k = 1
    for _ in range(top):
        k = 2 * k + (1 if z >= tree[k - 1] else 0)
    w = (k - (1 << top)) << (depth - top)
    for level in range(top, depth):
        half = 1 << (depth - level - 1)
        if z >= xs[min(w + half - 1, n)]:
            w += half
    return w - 1


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
