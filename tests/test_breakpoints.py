"""A proof over every in-domain float: each kernel is checked at the
queries where its answer can change.

The comparison kernels compare z only with knots, so their answers are
constant on each [X_i, X_{i+1}) and the knots suffice.  A direct kernel
also reads the bucket f(z), which steps between knots; ``breakpoints``
adds the first float of every bucket.  So a kernel that is right at
these queries is right for every float in [X_0, X_N).
"""

import numpy as np
import pytest

from fastsearch import batch, direct
from fastsearch.batch import ALGORITHMS, prepare, run_batch
from fastsearch.direct import build
from fastsearch.partition import gen_uniform_gap_partition, validate_partition

from helpers import breakpoints, direct_rule, true_answers

DIRECT = {"direct": 1, "direct-gap2": 2, "direct-cache": 1}


def near_limit(precision):
    """4097 unit-spaced knots, the last moved out to R = ``_max_buckets(N)``
    - 1: the longest table that N = 2**12 may hold, 2**22 buckets."""
    n = 1 << 12
    knots = np.arange(n + 1, dtype=np.float64)
    knots[-1] = direct._max_buckets(n) - 1
    return validate_partition(knots, precision)


PARTITIONS = {
    **{
        f"{precision}-{size}": (gen_uniform_gap_partition, (size, 1, 5, size, precision))
        for precision in ("single", "double")
        for size in (2, 16, 257, 4097, (1 << 16) + 1)
    },
    # The heads whose initial guess H0 the fill refuses (TestComputeHR).
    "growth-single": (gen_uniform_gap_partition, (15, 1, 5, 116, "single")),
    "growth-double": (gen_uniform_gap_partition, (15, 1, 5, 32, "double")),
    "limit-double": (near_limit, ("double",)),
}


@pytest.mark.parametrize("case", PARTITIONS)
def test_every_kernel_right_at_every_breakpoint(case):
    """All nine kernels, lanes (d = 8) and scalar (d = 1), give
    ``np.searchsorted``'s answer at every breakpoint of the index they
    serve: the direct kernels at the knots and bucket starts, the
    comparison kernels at the knots."""
    make, args = PARTITIONS[case]
    p = make(*args)
    for algorithm in ALGORITHMS:
        prep = prepare(algorithm, p)
        z = breakpoints(p, prep.structure) if algorithm in DIRECT else p.values[:-1]
        want = true_answers(p, z)
        for d in (8, 1):
            got = run_batch(prep, z, d=d)
            assert np.array_equal(got, want), (algorithm, d, z[got != want][:5])


def test_every_kernel_right_at_every_breakpoint_on_two_threads(monkeypatch):
    """The proof with the lanes split over two threads: each kernel gets
    at least two lane blocks of breakpoints, and run_batch runs them in
    two spans, whatever the host's CPU count."""
    p = gen_uniform_gap_partition((1 << 15) + 2, 1, 5, 15, "single")
    workers = []

    class Pool(batch.ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(batch.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(batch, "ThreadPoolExecutor", Pool)
    for algorithm in ALGORITHMS:
        prep = prepare(algorithm, p)
        z = breakpoints(p, prep.structure) if algorithm in DIRECT else p.values[:-1]
        assert len(z) >= 2 * batch._BLOCK
        want = true_answers(p, z)
        got = run_batch(prep, z, d=8, threads=2)
        assert np.array_equal(got, want), (algorithm, z[got != want][:5])
    assert workers == [2] * (len(ALGORITHMS) - 1)  # classic has no lanes


@pytest.mark.parametrize("q", [1, 2])
def test_breakpoints_fail_exactly_when_some_float_fails(q):
    """The breakpoints are complete.  On a float32 partition of 41 knots in
    [1, 1 + 2**-7), which holds 2**16 floats, every change of one K entry
    by +1 or -1 (kept in [0, N]) gives a wrong answer at some breakpoint
    exactly when it gives one at some float of [X_0, X_N), under the gap-q
    rule of ``reference.direct_seq``.  Some changes give no wrong answer
    at all: at gap 1 a kernel answers t - (z < X_t), so lowering K_j at a
    bucket that holds no knot changes nothing."""
    rng = np.random.default_rng(2)
    ulps = np.cumsum(np.concatenate([[0], rng.integers(800, 2400, size=40)]))
    p = validate_partition((1.0 + ulps * 2.0**-23).astype(np.float32))
    xs = p.values
    every = np.arange(*xs[[0, -1]].view(np.int32), dtype=np.int32).view(np.float32)
    assert len(every) == ulps[-1] < 1 << 16
    idx, _ = build(p, q=q)
    points = np.isin(every, breakpoints(p, idx))
    want = true_answers(p, every)
    rule = direct_rule(idx.k, xs, idx, every)
    assert np.array_equal(rule, want)
    assert np.array_equal(run_batch(prepare(f"direct{'-gap2' * (q == 2)}", p), every, d=8), rule)
    harmless = 0
    for j in range(idx.r + 1):
        for value in (int(idx.k[j]) - 1, int(idx.k[j]) + 1):
            if not 0 <= value <= idx.n:
                continue
            k = idx.k.copy()
            k[j] = value
            wrong = direct_rule(k, xs, idx, every) != want
            assert wrong[points].any() == wrong.any(), (j, value)
            harmless += not wrong.any()
    assert 0 < harmless < 2 * (idx.r + 1)
