"""Bit-exact binary persistence for direct indices.

Layout (all little-endian):

========  =====  =====================================================
offset    size   field
========  =====  =====================================================
0         8      magic ``FBSIDX1\\0``
8         2      format version (u16, currently 1)
10        1      precision (u8: 0 = single, 1 = double)
11        1      qbits (u8): written as 32; 32 or 64 accepted
12        1      gap q (u8, 1 to 255)
13        3      reserved, zero
16        8      N, interval count (u64)
24        8      R, largest bucket (u64)
32        8      H as a raw IEEE-754 binary64 bit pattern (u64)
40        8      X0 as a raw IEEE-754 binary64 bit pattern (u64)
48        4(R+1) K table payload, u32 entries
...       4      CRC-32 of the K payload (u32)
========  =====  =====================================================

Scale factor and origin travel as raw bit patterns (single-precision
values widen exactly to binary64), so a round trip reproduces the index
bit for bit and searches behave identically.  Only plain indexes are
written: a fused index holds the same K inside its cache records.

The CRC covers neither the header nor K's meaning.  So before reading K,
loading rejects an H that is not finite and positive, an X0 that is not
finite, and either one that the file's precision cannot hold exactly;
after, it rejects a K entry past N, which would send a search to a knot
the partition lacks.
"""

from __future__ import annotations

import os
import struct
import zlib
from math import isfinite

import numpy as np

from ..direct import DirectIndex, K_DTYPE
from ..errors import (
    BadMagic,
    ChecksumMismatch,
    IndexFileError,
    TruncatedFile,
    VersionMismatch,
)
from ..partition import PRECISIONS, dtype_of

MAGIC = b"FBSIDX1\0"
VERSION = 1

#: H and X0 are packed as binary64, which writes their exact bit patterns.
_HEADER = struct.Struct("<8sHBBB3sQQdd")


def save_index(idx: DirectIndex, path) -> int:
    """Write the index to ``path``; returns the byte count written.  A gap
    past the header's u8, or a fused index (save its plain twin, from
    ``build(p)``), raises ValueError before the file is opened."""
    if idx.k is None:
        raise ValueError("a fused index is not saved; save its plain twin, build(p)")
    if not 1 <= idx.q <= 255:
        raise ValueError(f"gap {idx.q} does not fit the index header (1 to 255)")
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        PRECISIONS.index(idx.precision),
        32,  # qbits: K entries are 32-bit
        idx.q,
        b"\0\0\0",
        idx.n,
        idx.r,
        float(idx.h),
        float(idx.x0),
    )
    k = np.ascontiguousarray(idx.k, dtype="<u4")  # K's own buffer, on little-endian hosts
    with open(path, "wb") as f:
        f.write(header)
        f.write(k)
        f.write(struct.pack("<I", zlib.crc32(k)))
    return len(header) + k.nbytes + 4


def load_index(path) -> DirectIndex:
    """Read an index back; fused records are not stored and come back empty.

    The K payload is read straight into the returned array, so loading
    allocates no file-sized buffer besides K itself.
    """
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < 8:
            raise TruncatedFile(f"{path}: shorter than the magic header")
        if head[:8] != MAGIC:
            raise BadMagic(f"{path}: not an index file")
        if len(head) < _HEADER.size:
            raise TruncatedFile(f"{path}: incomplete header")
        (_, version, prec_code, qbits, gap, _, n, r, h64, x064) = (
            _HEADER.unpack(head)
        )
        if version != VERSION:
            raise VersionMismatch(
                f"{path}: format version {version}, expected {VERSION}"
            )
        if prec_code >= len(PRECISIONS) or qbits not in (32, 64) or gap < 1:
            raise VersionMismatch(f"{path}: unrecognized header fields")
        precision = PRECISIONS[prec_code]
        dtype = dtype_of(precision).type
        with np.errstate(over="ignore"):  # a binary64 past float32's range: inf
            h, x0 = dtype(h64), dtype(x064)
        # As Python floats, since numpy would compare a float32 with a Python
        # float in float32: a NaN, or a value the cast rounded, differs.
        if not (isfinite(h64) and h64 > 0 and float(h) == h64):
            raise IndexFileError(f"{path}: H = {h64!r} is not a finite positive {precision} value")
        if not (isfinite(x064) and float(x0) == x064):
            raise IndexFileError(f"{path}: X0 = {x064!r} is not a finite {precision} value")
        payload_len = (r + 1) * 4
        if os.fstat(f.fileno()).st_size < _HEADER.size + payload_len + 4:
            raise TruncatedFile(f"{path}: payload or checksum missing")
        payload = np.empty(r + 1, dtype="<u4")
        got = f.readinto(payload)
        crc = f.read(4)
    if got < payload_len or len(crc) < 4:
        raise TruncatedFile(f"{path}: payload or checksum missing")
    (crc_stored,) = struct.unpack("<I", crc)
    if zlib.crc32(payload) != crc_stored:
        raise ChecksumMismatch(f"{path}: K payload corrupted")
    largest = int(payload.max())
    if largest > n:
        raise IndexFileError(f"{path}: K holds knot index {largest}, past N = {n}")

    k = payload.astype(K_DTYPE, copy=False)
    k.setflags(write=False)
    return DirectIndex(x0=x0, h=h, r=int(r), q=int(gap), k=k, n=int(n))
