"""Lower-bound search in sorted float arrays.

Given a strictly increasing array X of N+1 knots and queries z in
[X_0, X_N), every algorithm here returns the largest i with X_i <= z.
The package provides the classical binary search, four branch-free
fixed-iteration variants (including the cache-friendly heap-order
layout), an O(1) bucket-indexed search family with rounding-aware
certification, lock-step batch execution, and a benchmark CLI.
"""

from .batch import ALGORITHMS, PreparedKernel, prepare, run_batch
from .direct import (
    DirectIndex,
    HGrowthStats,
    build,
    build_index,
    closed_form_h_r,
    compute_h_r,
    direct_search,
    with_fused,
)
from .errors import (
    BadMagic,
    ChecksumMismatch,
    IndexFileError,
    InfeasibleError,
    NonFinite,
    NotDistinguishable,
    NotStrictlyIncreasing,
    OutOfDomain,
    Overflow,
    PartitionError,
    TooShort,
    TruncatedFile,
    VersionMismatch,
)
from .eytzinger import EytzingerLayout, build_layout
from .partition import (
    QueryBatch,
    SortedPartition,
    gen_queries,
    gen_uniform_gap_partition,
    linear_scan_oracle,
    linear_scan_oracle_batch,
    validate_partition,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BadMagic",
    "ChecksumMismatch",
    "DirectIndex",
    "EytzingerLayout",
    "HGrowthStats",
    "IndexFileError",
    "InfeasibleError",
    "NonFinite",
    "NotDistinguishable",
    "NotStrictlyIncreasing",
    "OutOfDomain",
    "Overflow",
    "PartitionError",
    "PreparedKernel",
    "QueryBatch",
    "SortedPartition",
    "TooShort",
    "TruncatedFile",
    "VersionMismatch",
    "build",
    "build_index",
    "closed_form_h_r",
    "compute_h_r",
    "direct_search",
    "gen_queries",
    "gen_uniform_gap_partition",
    "linear_scan_oracle",
    "linear_scan_oracle_batch",
    "prepare",
    "run_batch",
    "validate_partition",
    "with_fused",
]
