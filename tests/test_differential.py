"""Oracle-differential test of run_batch over adversarial partitions.

Partitions are built step by step from a base value: knots one ulp
apart, steps of a fixed unit (down to subnormal units), and an optional
long lead below the first knot, which makes the rounded offsets
X_i - X_0 of the later knots collide or nearly collide.  Every kernel
must return the linear-scan oracle's answer on every boundary probe at
lane widths 1 and 8.  The examples are derandomized, so the test is
deterministic.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastsearch.batch import ALGORITHMS, prepare, run_batch
from fastsearch.bench.persist import load_index, save_index
from fastsearch.direct import (
    HGrowthStats,
    build,
    build_index,
    compute_h_r,
    direct_search,
    verify_index,
)
from fastsearch.errors import InfeasibleError
from fastsearch.partition import linear_scan_oracle_batch, validate_partition

from helpers import boundary_probes, breakpoints, same_build, true_answers
from reference import certify_seq

#: Gap of each direct kernel's table.
GAP = {"direct": 1, "direct-gap2": 2, "direct-cache": 1}

#: Direct kernels whose certified table would exceed this many entries are
#: skipped, so that no example allocates a large table: ``certify_seq``
#: certifies H without building one.
MAX_TABLE = 1 << 18


@st.composite
def adversarial_partitions(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    up = dtype(np.inf)
    tiny = np.nextafter(dtype(0), up)  # smallest subnormal
    base = dtype(draw(st.sampled_from([0.0, 1.0, -1.0, -3.5, 2.0 ** 20, 1e30])))
    unit = draw(
        st.sampled_from([tiny, tiny * 16, np.finfo(dtype).tiny, 2.0 ** -20, 2.0 ** -6, 1.0])
    )
    unit = dtype(unit)
    steps = draw(
        st.lists(
            st.tuples(st.sampled_from(["ulp", "unit"]), st.integers(1, 8)),
            min_size=1,
            max_size=30,
        )
    )
    x = base
    knots = [x]
    for kind, k in steps:
        if kind == "ulp":
            for _ in range(k):
                x = np.nextafter(x, up)
        else:
            y = dtype(x + unit * dtype(k))
            x = y if y > x else np.nextafter(x, up)
        knots.append(x)
    lead = draw(st.one_of(st.none(), st.integers(0, 24)))
    if lead is not None:
        below = dtype(knots[0] - unit * dtype(2.0 ** lead))
        knots.insert(0, below if below < knots[0] else np.nextafter(knots[0], -up))
    return validate_partition(np.array(knots, dtype=dtype))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(p=adversarial_partitions(), as_float64=st.booleans())
def test_every_kernel_matches_oracle(p, as_float64):
    z = boundary_probes(p)
    want = linear_scan_oracle_batch(p, z)
    queries = z.astype(np.float64) if as_float64 else z
    for name in ALGORITHMS:
        try:
            if name in GAP and certify_seq(p.values, GAP[name])[1] > MAX_TABLE:
                continue
            prep = prepare(name, p)
        except InfeasibleError:
            continue
        for d in (1, 8):
            got = run_batch(prep, queries, d=d)
            assert np.array_equal(got, want), (name, d, p.values, queries[got != want])


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(p=adversarial_partitions())
def test_direct_kernels_right_at_every_breakpoint(p):
    """``test_breakpoints``' proof over the adversarial partitions: each
    direct kernel, lanes and scalar, and ``direct_search`` over its plain
    index, give the true answer at every breakpoint of the index, so at
    every float of [X_0, X_N)."""
    for name, q in GAP.items():
        try:
            if certify_seq(p.values, q)[1] > MAX_TABLE:
                continue
            prep = prepare(name, p)
        except InfeasibleError:
            continue
        z = breakpoints(p, prep.structure)
        want = true_answers(p, z)
        for d in (1, 8):
            got = run_batch(prep, z, d=d)
            assert np.array_equal(got, want), (name, d, p.values, z[got != want])
        if prep.structure.k is not None:
            got = [direct_search(prep.structure, p, v) for v in z.tolist()]
            assert got == want.tolist(), (name, p.values)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(p=adversarial_partitions(), q=st.integers(1, 3), fused=st.booleans())
def test_build_is_compute_h_r_then_build_index(p, q, fused):
    """build fills the table for the initial guess and grows H only while
    the fill refuses it; it returns, bit for bit, the h and r that the
    whole-array ``certify_seq`` certifies and build_index's table for
    them, or raises what ``certify_seq`` raises.  compute_h_r returns
    build's h, r and growth count."""
    fused = fused and q == 1
    try:
        h, r, increments = certify_seq(p.values, q)
    except InfeasibleError as exc:
        for call in (lambda: build(p, q=q, fused=fused), lambda: compute_h_r(p, q=q)):
            with pytest.raises(type(exc)) as got:
                call()
            assert str(got.value) == str(exc)
        return
    if r > MAX_TABLE:
        return
    stats = HGrowthStats(increments)
    assert same_build(build(p, q=q, fused=fused), build_index(p, h, r, q=q, fused=fused), stats)
    got = compute_h_r(p, q=q)
    assert got[0].tobytes() == h.tobytes() and got[1:] == (r, stats)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(p=adversarial_partitions(), q=st.integers(1, 3))
def test_verify_index_accepts_what_build_makes(p, q, tmp_path_factory):
    """Every index that build makes passes ``verify_index``, before and
    after a save/load round trip."""
    try:
        if certify_seq(p.values, q)[1] > MAX_TABLE:
            return
        idx, _ = build(p, q=q)
    except InfeasibleError:
        return
    verify_index(idx, p)
    path = tmp_path_factory.mktemp("verify") / "t.idx"
    save_index(idx, path)
    verify_index(load_index(path), p)


def test_a_failing_given_test_fails_alone(tmp_path):
    """Under the project's warning filters, a failing @given test is one
    failure and the tests after it still run: hypothesis's report hook
    raises a DeprecationWarning from mypy_extensions, which the "error"
    filter would turn into an INTERNALERROR (exit 3) that ends the run."""
    (tmp_path / "test_given.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_runs_after():
            pass
    """))
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), str(tmp_path / "test_given.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout[-2000:]
    assert "1 failed, 1 passed" in run.stdout, run.stdout[-2000:]
