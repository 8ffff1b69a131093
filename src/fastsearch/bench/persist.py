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
bit for bit and searches behave identically.

The CRC covers K but not its meaning, so loading also rejects a K entry
past N, which would send a search to a knot the partition lacks.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from ..direct import DirectIndex, K_DTYPE
from ..errors import (
    BadMagic,
    ChecksumMismatch,
    IndexFileError,
    TruncatedFile,
    VersionMismatch,
)
from ..partition import dtype_of

MAGIC = b"FBSIDX1\0"
VERSION = 1

#: H and X0 are packed as binary64, which writes their exact bit patterns.
_HEADER = struct.Struct("<8sHBBB3sQQdd")
_PRECISIONS = ("single", "double")  # indexed by the precision byte
#: K entries per write (4 MiB).  A fused index's K, the strided ``idx``
#: field of its records, is copied one such chunk at a time.
_WRITE_CHUNK = 1 << 20


def save_index(idx: DirectIndex, path) -> int:
    """Write the index to ``path``; returns the byte count written.  A gap
    past the header's u8 raises ValueError before the file is opened."""
    if not 1 <= idx.q <= 255:
        raise ValueError(f"gap {idx.q} does not fit the index header (1 to 255)")
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        _PRECISIONS.index(idx.precision),
        32,  # qbits: K entries are 32-bit
        idx.q,
        b"\0\0\0",
        idx.n,
        idx.r,
        float(idx.h),
        float(idx.x0),
    )
    k = idx.table
    crc = 0
    with open(path, "wb") as f:
        f.write(header)
        # A contiguous K goes out straight from its own buffer.
        for a in range(0, len(k), _WRITE_CHUNK):
            part = np.ascontiguousarray(k[a : a + _WRITE_CHUNK], dtype="<u4")
            crc = zlib.crc32(part, crc)
            f.write(part)
        f.write(struct.pack("<I", crc))
    return len(header) + 4 * len(k) + 4


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
        if prec_code >= len(_PRECISIONS) or qbits not in (32, 64) or gap < 1:
            raise VersionMismatch(f"{path}: unrecognized header fields")
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

    dtype = dtype_of(_PRECISIONS[prec_code]).type
    k = payload.astype(K_DTYPE, copy=False)
    k.setflags(write=False)
    return DirectIndex(x0=dtype(x064), h=dtype(h64), r=int(r), q=int(gap), k=k, n=int(n))
