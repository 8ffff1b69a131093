"""The package root's exported names."""

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
