"""The package root's exported names, and README's quick start."""

import re
from pathlib import Path

import numpy as np
import pytest

import fastsearch

#: The names that perfbench reads from the package root.
PERFBENCH_NAMES = {
    "build",
    "build_index",
    "build_layout",
    "compute_h_r",
    "linear_scan_oracle_batch",
    "prepare",
    "run_batch",
    "validate_partition",
    "with_fused",
}

ROOT_NAMES = PERFBENCH_NAMES | {
    "ALGORITHMS",
    "BadMagic",
    "ChecksumMismatch",
    "DirectIndex",
    "IndexFileError",
    "InfeasibleError",
    "NonFinite",
    "NotDistinguishable",
    "NotStrictlyIncreasing",
    "OutOfDomain",
    "Overflow",
    "PartitionError",
    "PreparedKernel",
    "SortedPartition",
    "TooShort",
    "TruncatedFile",
    "VersionMismatch",
    "gen_queries",
    "gen_uniform_gap_partition",
}


def test_all_is_the_root_surface():
    assert len(fastsearch.__all__) == len(ROOT_NAMES) == 28
    assert set(fastsearch.__all__) == ROOT_NAMES


def test_every_name_resolves():
    for name in fastsearch.__all__:
        assert getattr(fastsearch, name) is not None, name


def test_perfbench_names_are_exported():
    assert PERFBENCH_NAMES <= set(fastsearch.__all__)


#: The array attributes whose bytes perfbench sums, once per distinct array.
SUMMED = ("values", "k", "fused", "tree")


@pytest.mark.parametrize("precision", ["single", "double"])
def test_perfbench_attributes(precision):
    """The library calls perfbench makes, on a small partition, give the
    attributes it reads; and no two of the arrays whose bytes it sums share
    memory, so none is counted twice.  The first calls replay its traced
    layer probes: gap-1 and gap-2 certification, the K build and the fused
    records."""
    fs = fastsearch
    p = fs.validate_partition(
        fs.gen_uniform_gap_partition(4097, 1, 5, seed=4, precision=precision).values
    )
    h, r, growth = fs.compute_h_r(p, q=1)
    assert isinstance(growth.increments, int)
    assert fs.compute_h_r(p, q=2)[1] <= r
    idx = fs.build_index(p, h, r)
    fused = fs.with_fused(idx, p)
    assert idx.k.nbytes and fused.fused.nbytes and fused.k is None
    plain, gap2, cache = (fs.build(p, **kw)[0] for kw in ({}, {"q": 2}, {"fused": True}))
    assert (plain.q, gap2.q, cache.q) == (1, 2, 1) and cache.k is None
    assert fs.build_layout(p).tree.size > 0
    kernels = {k: fs.prepare(k, p) for k in ("direct", "direct-gap2", "direct-cache", "eytzinger")}
    for k, prep in kernels.items():
        assert prep.algorithm == k and callable(prep.lanes) and callable(prep.scalar)
    s = {k: prep.structure for k, prep in kernels.items()}
    assert s["eytzinger"].L > 0 and s["direct-cache"].fused.itemsize > 0
    assert s["direct-cache"].k is None
    for k in ("direct", "direct-gap2"):
        assert s[k].k.itemsize == 4 and s[k].q == (2 if k == "direct-gap2" else 1)
    z = fs.gen_queries(p, 1000, seed=5)
    assert np.array_equal(fs.run_batch(kernels["direct"], z, d=8, threads=1),
                          fs.linear_scan_oracle_batch(p, z))
    arrays = {}
    for obj in [p, *s.values()]:
        for attr in SUMMED:
            arr = getattr(obj, attr, None)
            if isinstance(arr, np.ndarray):
                arrays[id(arr)] = arr
    assert len(arrays) == 5  # the knots, two K, the records and the tree
    found = list(arrays.values())
    for i, a in enumerate(found):
        for b in found[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_readme_python_blocks_run():
    """Every python block of README.md runs, so the documented API cannot drift."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
