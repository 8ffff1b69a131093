"""Exception types shared across the package.

An error that carries values passes them, not its message, to
``Exception``, and composes the message in ``__str__``, so pickling
rebuilds it from those values."""


class PartitionError(ValueError):
    """Base class for invalid partition input."""


class TooShort(PartitionError):
    """Raised when an input array has fewer than two elements."""


class NonFinite(PartitionError):
    """Raised when an input array contains NaN or an infinity."""

    def __init__(self, position: int):
        super().__init__(position)
        self.position = position

    def __str__(self):
        return f"non-finite value at position {self.position}"


class NotStrictlyIncreasing(PartitionError):
    """Raised when values[i-1] >= values[i] for some i."""

    def __init__(self, position: int):
        super().__init__(position)
        self.position = position

    def __str__(self):
        return f"values[{self.position - 1}] >= values[{self.position}]"


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
        super().__init__(position)
        self.position = position

    def __str__(self):
        return (
            f"rounded offsets collide at position {self.position}; "
            "bucket function cannot separate the knots"
        )


class Overflow(InfeasibleError):
    """R + 1 = ``buckets`` (inf when H overflowed) would exceed ``limit``, the
    most buckets a table over ``n`` intervals may hold: 32 a knot, at least
    2**22, at most 2**32.  Raised before anything R-sized exists."""

    def __init__(self, buckets, limit: int, n: int):
        super().__init__(buckets, limit, n)
        self.buckets, self.limit, self.n = buckets, limit, n

    def __str__(self):
        return f"{self.buckets:.0f} buckets over the limit of {self.limit} for N = {self.n}"


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
