"""Oracle-differential test of run_batch over adversarial partitions.

Partitions are built step by step from a base value: knots one ulp
apart, steps of a fixed unit (down to subnormal units), and an optional
long lead below the first knot, which makes the rounded offsets
X_i - X_0 of the later knots collide or nearly collide.  Every kernel
must return the linear-scan oracle's answer on every boundary probe at
lane widths 1 and 8.  The examples are derandomized, so the test is
deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastsearch.batch import ALGORITHMS, prepare, run_batch
from fastsearch.direct import build, build_index, compute_h_r
from fastsearch.errors import InfeasibleError
from fastsearch.partition import linear_scan_oracle_batch, validate_partition

from helpers import boundary_probes, same_build

#: Gap of each direct kernel's table.
GAP = {"direct": 1, "direct-gap2": 2, "direct-cache": 1}

#: Direct kernels whose certified table would exceed this many entries are
#: skipped, so that no example allocates a large table.
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
            if name in GAP and compute_h_r(p, q=GAP[name])[1] > MAX_TABLE:
                continue
            prep = prepare(name, p)
        except InfeasibleError:
            continue
        for d in (1, 8):
            got = run_batch(prep, queries, d=d)
            assert np.array_equal(got, want), (name, d, p.values, queries[got != want])


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(p=adversarial_partitions(), q=st.integers(1, 3), fused=st.booleans())
def test_build_is_compute_h_r_then_build_index(p, q, fused):
    """build fills the table for the initial guess and grows H only when
    the fill refuses it; it returns what compute_h_r then build_index
    return, bit for bit, or raises what compute_h_r raises."""
    fused = fused and q == 1
    try:
        h, r, stats = compute_h_r(p, q=q)
    except InfeasibleError as exc:
        with pytest.raises(type(exc)) as got:
            build(p, q=q, fused=fused)
        assert str(got.value) == str(exc)
        return
    if r > MAX_TABLE:
        return
    assert same_build(build(p, q=q, fused=fused), build_index(p, h, r, q=q, fused=fused), stats)
