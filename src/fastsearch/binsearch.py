"""Comparison-based lower-bound searches: classical and branch-free variants.

The classical search narrows [low, high] with a data-dependent loop;
``classic_seq`` is its scalar form.  The bit-setting and offset searches
run a fixed number of iterations that depends only on N, contain no
data-dependent exit, and express their per-iteration choice as a
conditional assignment, which is what makes them amenable to lock-step
batch execution.  This module holds the constants of their probe
schedules; :mod:`fastsearch.batch` compiles their scalar and lane forms
from those schedules, and the tests check both against readable
reference loops.
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
