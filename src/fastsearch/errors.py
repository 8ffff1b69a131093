"""Exception types shared across the package."""


class PartitionError(ValueError):
    """Base class for invalid partition input."""


class TooShort(PartitionError):
    """Raised when an input array has fewer than two elements."""


class NonFinite(PartitionError):
    """Raised when an input array contains NaN or an infinity."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"non-finite value at position {position}")


class NotStrictlyIncreasing(PartitionError):
    """Raised when values[i-1] >= values[i] for some i."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"values[{position - 1}] >= values[{position}]")


class OutOfDomain(ValueError):
    """Raised when a query z falls outside [X_0, X_N).

    ``position`` is the index of the first offending query in a batch,
    or None for a scalar call.
    """

    def __init__(self, message: str = "query outside [X0, XN)", position=None):
        self.position = position
        super().__init__(message)


class InfeasibleError(ValueError):
    """Base class for direct-index construction failures."""


class NotDistinguishable(InfeasibleError):
    """Rounded offsets D_i = X_i - X_0 collide: D[position] == D[position - gap].

    No scale factor can separate the colliding knots into distinct buckets.
    """

    def __init__(self, position: int):
        self.position = position
        super().__init__(
            f"rounded offsets collide at position {position}; "
            "bucket function cannot separate the knots"
        )


class Overflow(InfeasibleError):
    """The table's R + 1 buckets would exceed its limit: 32 a knot, at
    least 2**22, at most 2**32.  Raised before anything R-sized exists."""

    def __init__(self, message: str = "bucket index would overflow"):
        super().__init__(message)


class IndexFileError(Exception):
    """Base class for index persistence failures."""


class BadMagic(IndexFileError):
    """The file does not start with the index-file magic bytes."""


class VersionMismatch(IndexFileError):
    """The file was written by an incompatible format version."""


class TruncatedFile(IndexFileError):
    """The file ends before the declared payload and checksum."""


class ChecksumMismatch(IndexFileError):
    """The stored payload checksum does not match the payload."""
