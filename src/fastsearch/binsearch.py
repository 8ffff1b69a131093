"""Comparison-based lower-bound searches: classical and branch-free variants.

The classical search narrows [low, high] with a data-dependent loop.  The
remaining four kernels run a fixed number of iterations that depends only
on N, contain no data-dependent exit, and express their per-iteration
choice as a conditional assignment, which is what makes them amenable to
lock-step batch execution (see :mod:`fastsearch.batch`).

Each ``*_seq`` function here is the readable reference for its kernel: a
loop over a plain index-by-integer sequence, used by the classical batch
path and by instrumented tests.  The batch layer compiles the unrolled
scalar and lane forms from the same steps, and the tests compare those
fast forms against these loops.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OffsetConstants:
    """Precomputed constants for the offset-based search.

    F is the initial mid index (N+1)//2, S the remaining range size
    N+1-F, and J the fixed iteration count floor(log2(N+1)).
    """

    F: int
    S: int
    J: int


def offset_constants(n: int) -> OffsetConstants:
    if n < 1:
        raise ValueError("need at least one interval")
    f = (n + 1) >> 1
    return OffsetConstants(F=f, S=n + 1 - f, J=(n + 1).bit_length() - 1)


def probe_constant(n: int) -> int:
    """Leading probe 2**floor(log2 N) for the bit-setting searches."""
    if n < 1:
        raise ValueError("need at least one interval")
    return 1 << (n.bit_length() - 1)


def classic_seq(xs, n: int, z) -> int:
    low = 0
    high = n
    while high - low > 1:
        mid = (low + high) >> 1
        if z < xs[mid]:
            high = mid
        else:
            low = mid
    return low


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
