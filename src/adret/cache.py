"""Binary feature-cache format and atomic file writes.

Layout of a cache blob:

    bytes 0..6    magic b"ADRET1\\n"
    bytes 7..10   row count, unsigned 32-bit little-endian
    bytes 11..14  column count, unsigned 32-bit little-endian
    then          rows * cols float64 values, little-endian, row-major
    then          id table: u32 count, then per id a u32 byte length
                  followed by that many UTF-8 bytes

Payload values are finite: writers refuse NaN and inf, readers reject them
with a FormatError naming the byte offset. Round-trips are bit-exact.
Multi-tensor files (model parameters) are a plain concatenation of blobs,
each carrying its tensor name as the single id.

All writes in this package go through ``atomic_write_bytes``: data lands in a
temp file in the target directory and is renamed into place, so a killed
process never leaves a partially-written file under the final name.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from contextlib import contextmanager
from typing import Sequence

import numpy as np

from .errors import DataError, FormatError
from .tensor import Array, finite_matrix

MAGIC = b"ADRET1\n"
_U32 = struct.Struct("<I")
_U32_MAX = 0xFFFFFFFF


def atomic_write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def encode_blob(matrix: Array, ids: Sequence[str]) -> bytes:
    matrix = finite_matrix(matrix, "cache matrix")
    rows, cols = matrix.shape
    if rows > _U32_MAX or cols > _U32_MAX:
        raise FormatError(f"matrix shape {matrix.shape} overflows the u32 "
                          "dimension fields at byte 7")
    parts = [MAGIC, _U32.pack(rows), _U32.pack(cols),
             np.ascontiguousarray(matrix, dtype="<f8").tobytes()]
    parts.append(_U32.pack(len(ids)))
    for name in ids:
        raw = name.encode("utf-8")
        parts.append(_U32.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def decode_blob(data: bytes, offset: int = 0) -> tuple[Array, list[str], int]:
    """Parse one blob starting at ``offset``; returns (matrix, ids, end)."""
    def need(n: int, what: str) -> int:
        if offset + n > len(data):
            raise FormatError(f"truncated cache file: {what} needs {n} bytes "
                              f"at byte {offset}, file has {len(data)}")
        return offset + n

    end = need(len(MAGIC), "magic")
    if data[offset:end] != MAGIC:
        raise FormatError(f"bad magic at byte {offset}: expected {MAGIC!r}, "
                          f"got {data[offset:end]!r}")
    offset = end
    end = need(8, "dimension header")
    rows = _U32.unpack_from(data, offset)[0]
    cols = _U32.unpack_from(data, offset + 4)[0]
    offset = end
    nbytes = rows * cols * 8
    end = need(nbytes, f"{rows}x{cols} float payload")
    # a view into ``data``, not a copy: a corpus load then holds one payload
    matrix = np.frombuffer(data, "<f8", rows * cols, offset).reshape(rows, cols)
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    finite = np.isfinite(matrix)
    if not finite.all():
        first = int(np.argmin(finite))
        raise FormatError(f"non-finite value {matrix.flat[first]} at byte "
                          f"{offset + 8 * first}")
    offset = end
    end = need(4, "id count")
    count = _U32.unpack_from(data, offset)[0]
    offset = end
    ids = []
    for _ in range(count):
        end = need(4, "id length")
        length = _U32.unpack_from(data, offset)[0]
        offset = end
        end = need(length, "id bytes")
        try:
            ids.append(data[offset:end].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"id at byte {offset} is not valid UTF-8: "
                              f"{exc.reason} at byte {offset + exc.start}")
        offset = end
    return matrix, ids, offset


def cache_write(path: str, matrix: Array, ids: Sequence[str]) -> None:
    atomic_write_bytes(path, encode_blob(matrix, ids))


@contextmanager
def _reading(path: str):
    """The bytes of ``path``: DataError if missing; FormatErrors name the path."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise DataError(f"file not found: {path}")
    try:
        yield data
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def cache_read(path: str) -> tuple[Array, list[str]]:
    with _reading(path) as data:
        matrix, ids, end = decode_blob(data)
        if end != len(data):
            raise FormatError(f"trailing data after blob: file is {len(data)} "
                              f"bytes, blob ends at byte {end}")
    return matrix, ids


def file_sha256(path: str) -> bytes:
    """sha256 digest of a file's bytes; DataError if it is missing."""
    with _reading(path) as data:
        return hashlib.sha256(data).digest()


def save_tensors(path: str, tensors: dict[str, Array]) -> None:
    """Write named 2-D tensors as concatenated blobs, sorted by name."""
    parts = [encode_blob(tensors[name], [name]) for name in sorted(tensors)]
    atomic_write_bytes(path, b"".join(parts))


def load_tensors(path: str) -> dict[str, Array]:
    tensors: dict[str, Array] = {}
    with _reading(path) as data:
        offset = 0
        while offset < len(data):
            matrix, ids, offset = decode_blob(data, offset)
            if len(ids) != 1:
                raise FormatError(f"tensor blob ending at byte {offset} must "
                                  f"carry exactly one name, got {len(ids)}")
            tensors[ids[0]] = matrix
    return tensors
