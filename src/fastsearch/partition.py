"""Sorted partitions, query generators, and the linear-scan reference oracle.

A partition is a strictly increasing array X of N+1 floating point knots
(single or double precision) defining N half-open intervals [X_i, X_{i+1}).
Every search algorithm in this package resolves, for a query z in
[X_0, X_N), the index of the interval containing z, i.e. the largest i
with X_i <= z.

All types are immutable after construction and safe to share across
concurrent readers.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, NotStrictlyIncreasing, OutOfDomain
from .errors import PartitionError, TooShort

PRECISIONS = ("single", "double")

_DTYPES = {"single": np.float32, "double": np.float64}


def dtype_of(precision: str) -> np.dtype:
    if precision not in _DTYPES:
        raise ValueError(f"precision must be one of {PRECISIONS}, got {precision!r}")
    return np.dtype(_DTYPES[precision])


def precision_of(dtype) -> str:
    dtype = np.dtype(dtype)
    if dtype == np.float32:
        return "single"
    if dtype == np.float64:
        return "double"
    raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")


def holds_reals(a: np.ndarray) -> bool:
    """Whether ``a`` holds only real numbers: its dtype is bool, integer or
    float, or it is an object array of ``numbers.Real`` or numpy bool
    elements.  Only an object array is scanned element by element."""
    if a.dtype.kind == "O":
        return all(isinstance(v, (numbers.Real, np.bool_)) for v in a.flat)
    return a.dtype.kind in "biuf"


def overflow_at(a: np.ndarray) -> int | None:
    """Position of the first element of ``a`` that float() refuses as too
    large: a Python int past the float range, which only an object array
    can hold.  Called once a conversion has raised OverflowError."""
    for i, v in enumerate(a.flat):
        try:
            float(v)
        except OverflowError:
            return i
    return None


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SortedPartition:
    """Strictly increasing array of N+1 knots; the precision is their dtype's."""

    values: np.ndarray

    @property
    def precision(self) -> str:
        return precision_of(self.values.dtype)

    @property
    def n_intervals(self) -> int:
        return len(self.values) - 1

    @property
    def x0(self):
        return self.values[0]

    @property
    def xn(self):
        return self.values[-1]


def validate_partition(raw, precision: str | None = None) -> SortedPartition:
    """Wrap ``raw`` as a SortedPartition, enforcing the type invariants.

    Raises PartitionError naming the dtype of input that is not real
    numbers (strings, complex, ``None``) and the shape of input that is not
    1-D, TooShort for fewer than two values, NonFinite at the first NaN,
    infinity or integer past the float range, and NotStrictlyIncreasing at
    the first i with raw[i-1] >= raw[i].
    Non-array input is converted to the requested precision (double when not
    specified); array input keeps its dtype unless a precision is forced.
    """
    if precision is None:
        floats = isinstance(raw, np.ndarray) and raw.dtype in (np.float32, np.float64)
        precision = precision_of(raw.dtype) if floats else "double"
    raw = np.asarray(raw)  # no copy of an array
    if not holds_reals(raw):
        raise PartitionError(f"a partition must hold real numbers, got dtype {raw.dtype}")
    if raw.ndim != 1:
        raise PartitionError(f"a partition must be 1-D, got shape {raw.shape}")
    try:
        with np.errstate(over="ignore"):  # a float past float32's range: inf
            values = np.array(raw, dtype=dtype_of(precision))  # copy: never alias caller data
    except OverflowError:
        raise NonFinite(overflow_at(raw)) from None
    if len(values) < 2:
        raise TooShort("a partition needs at least two values")
    finite = np.isfinite(values)
    if not finite.all():
        raise NonFinite(int(np.argmin(finite)))
    increasing = values[1:] > values[:-1]
    if not increasing.all():
        raise NotStrictlyIncreasing(int(np.argmin(increasing)) + 1)
    return SortedPartition(values=_frozen(values))


def gen_uniform_gap_partition(
    size: int,
    gap_lo: float,
    gap_hi: float,
    seed: int,
    precision: str = "double",
) -> SortedPartition:
    """Random partition with X_0 = 0 and gaps uniform in [gap_lo, gap_hi].

    Gaps are drawn in double precision and the accumulated knots are then
    cast to the target precision, so single-precision partitions sample the
    same underlying layout.  The generator is numpy's default PCG64 stream:
    a fixed seed reproduces the array bit for bit.
    """
    if size < 2:
        raise ValueError("size must be >= 2")
    if not (0 < gap_lo <= gap_hi):
        raise ValueError("need 0 < gap_lo <= gap_hi")
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(gap_lo, gap_hi, size=size - 1)
    knots = np.concatenate([[0.0], np.cumsum(gaps)])
    return validate_partition(knots.astype(dtype_of(precision)), precision)


def gen_queries(p: SortedPartition, count: int, seed: int) -> np.ndarray:
    """Random queries uniform in [X_0, X_N), read-only, in the partition's
    dtype; PCG64, bit-reproducible per seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    dtype = dtype_of(p.precision)
    z = rng.uniform(float(p.x0), float(p.xn), size=count).astype(dtype)
    # Casting can round a draw up onto X_N; pull those back inside the domain.
    top = dtype.type(p.xn)
    z[z >= top] = np.nextafter(top, dtype.type(-np.inf))
    return _frozen(z)


def pad_right_pow2(p: SortedPartition) -> np.ndarray:
    """The knots right-padded with X_N up to length 2**(1 + floor(log2 N)),
    read-only.  Every index below twice the leading probe of the
    bit-setting searches is then in range, and the padding value X_N
    compares greater than any valid query."""
    n = p.n_intervals
    bits = n.bit_length()  # 1 + floor(log2 N)
    padded = np.full(1 << bits, p.values[-1], dtype=p.values.dtype)
    padded[: n + 1] = p.values
    return _frozen(padded)


def check_domain(p: SortedPartition, z) -> None:
    """Raise OutOfDomain unless X_0 <= z < X_N."""
    if not (p.values[0] <= z < p.values[-1]):
        raise OutOfDomain(f"z={z!r} outside [{p.values[0]!r}, {p.values[-1]!r})")


def linear_scan_oracle(p: SortedPartition, z) -> int:
    """Reference answer: walk the knots and return max{i : X_i <= z}.

    Deliberately naive -- O(N) per query and free of any search structure --
    so every other algorithm can be checked against it.
    """
    check_domain(p, z)
    xs = p.values
    i = 0
    last = len(xs) - 2
    while i < last and xs[i + 1] <= z:
        i += 1
    return i


def linear_scan_oracle_batch(p: SortedPartition, z: np.ndarray) -> np.ndarray:
    """Vector form of the oracle: one ordered sweep over the knots.

    Sorts the queries, then advances a single knot cursor across them, so it
    still inspects the knots strictly in sequence and shares no machinery
    with the algorithms under test.
    """
    z = np.asarray(z)
    bad = ~((z >= p.values[0]) & (z < p.values[-1]))  # also catches NaN
    if bad.any():
        raise OutOfDomain(position=int(np.argmax(bad)))
    order = np.argsort(z, kind="stable")
    zs = z[order].tolist()
    xs = p.values.tolist()
    out = np.empty(len(zs), dtype=np.int64)
    i = 0
    last = len(xs) - 2
    for pos, q in zip(order.tolist(), zs):
        while i < last and xs[i + 1] <= q:
            i += 1
        out[pos] = i
    return out
