"""Comparison-based lower-bound searches: classical and branch-free variants.

The classical search narrows [low, high] with a data-dependent loop;
``classic_seq`` is its scalar form.  The bit-setting and offset searches
run a fixed number of iterations that depends only on N, contain no
data-dependent exit, and express their per-iteration choice as a
conditional assignment, which is what makes them amenable to lock-step
batch execution.  Each is the update i += k wherever X[i + k] <= z, over
a probe schedule of steps k that is a function of N alone.  This module
holds those schedules; :mod:`fastsearch.batch` compiles the kernels'
scalar and lane forms from them, and the tests check both against
readable reference loops.
"""

from __future__ import annotations


def bit_schedule(n: int) -> list[int]:
    """The bit-setting searches' schedule: 2**floor(log2 N) down to 1.

    Bit k of i is still clear when k is probed, so i + k is i | k.
    """
    if n < 1:
        raise ValueError("need at least one interval")
    return [1 << s for s in reversed(range(n.bit_length()))]


def offset_schedule(n: int) -> list[int]:
    """The offset search's schedule: the start index F = (N+1)//2, then
    the halves of a range that starts at N + 1 - F and shrinks
    deterministically to one index.  The steps sum to N; none is 0."""
    if n < 1:
        raise ValueError("need at least one interval")
    f = (n + 1) >> 1
    steps, s = [f], n + 1 - f
    while s > 1:
        steps.append(s >> 1)
        s -= s >> 1
    return steps


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
