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
each carrying its tensor name as the single id. A corpus file repeats each
instance's id on all of its rows, so the writer and reader work by runs of
equal ids: each distinct id record is built, or decoded, once. No blob is
held whole: it is written as its header, payload chunks of up to about
1 MB, each finite-checked as it is made, and its id table.

All writes in this package go through ``atomic_write_bytes``: data lands in a
temp file in the target directory and is renamed into place, so a killed
process, or a chunk that fails its check, leaves no file under that name.
"""

from __future__ import annotations

import os
import struct
import tempfile
from contextlib import contextmanager
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, EvaluationError, FormatError
from .tensor import Array, finite_matrix

MAGIC = b"ADRET1\n"
_U32 = struct.Struct("<I")
_U32_MAX = 0xFFFFFFFF
_CHUNK = 1 << 20  # payload bytes per chunk, at most about


class Parts:
    """A file's bytes as buffers written in turn, each valid only until the
    next is drawn, and their byte count, which ``len`` gives as for bytes."""

    def __init__(self, size: int, buffers: Iterable):
        self.size, self.buffers = size, buffers

    def __len__(self) -> int:
        return self.size


def atomic_write_bytes(path: str, parts: Parts) -> None:
    """Write ``parts`` to ``path`` atomically; DataError if it cannot."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".tmp-", suffix=".part")
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(parts.buffers)
        os.replace(tmp, path)
    except OSError as exc:  # a directory in the way, no permission, ...
        raise DataError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def atomic_write_text(path: str, text: str) -> None:
    data = text.encode("utf-8")
    atomic_write_bytes(path, Parts(len(data), [data]))


def encode_blob(blocks: Sequence[Array], ids: Sequence[str],
                repeats: Sequence[int]) -> Parts:
    """One blob of the 2-D ``blocks`` stacked in row order, its id table
    listing ``ids[i]`` ``repeats[i]`` times; each id record is built once, and
    runs of whole blocks are copied into one reused '<f8' buffer of up to about
    ``_CHUNK`` bytes, each chunk finite-checked before it is drawn."""
    lengths = list(map(len, blocks))
    rows, cols = sum(lengths), np.shape(blocks[0])[1]
    if rows > _U32_MAX or cols > _U32_MAX:
        raise FormatError(f"matrix shape {(rows, cols)} overflows the u32 "
                          "dimension fields at byte 7")
    records = (name.encode("utf-8") for name in ids)
    table = b"".join([_U32.pack(sum(repeats))] + [
        (_U32.pack(len(raw)) + raw) * n for raw, n in zip(records, repeats)])
    header = MAGIC + _U32.pack(rows) + _U32.pack(cols)

    def payload():
        per = max(1, _CHUNK // (8 * cols * max(lengths)))  # blocks per chunk
        buffer = np.empty((per * max(lengths), cols), "<f8")
        for a in range(0, len(blocks), per):
            chunk = buffer[:sum(lengths[a:a + per])]
            finite_matrix(np.concatenate(blocks[a:a + per], out=chunk), "cache matrix")
            yield chunk

    return Parts(len(header) + 8 * rows * cols + len(table),
                 chain([header], payload() if rows * cols else [], [table]))


def decode_runs(data: bytes, offset: int = 0) -> tuple[Array, list, int]:
    """Parse one blob starting at ``offset``; returns (matrix, runs, end),
    ``runs`` pairing each id with its count of equal records in a row, which
    slice compares count without decoding them again."""
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
    rows, cols = struct.unpack_from("<II", data, offset)
    offset = end
    end = need(rows * cols * 8, f"{rows}x{cols} float payload")
    # a view into ``data``, not a copy: a corpus load then holds one payload
    matrix = np.frombuffer(data, "<f8", rows * cols, offset).reshape(rows, cols)
    try:
        matrix = finite_matrix(matrix, "cache payload")
    except EvaluationError:
        first = int(np.argmin(np.isfinite(matrix)))
        raise FormatError(f"non-finite value {matrix.flat[first]} at byte "
                          f"{offset + 8 * first}") from None
    offset = end
    end = need(4, "id count")
    left = _U32.unpack_from(data, offset)[0]
    offset = end
    runs = []
    while left:
        end = need(4, "id length")
        length = _U32.unpack_from(data, offset)[0]
        offset = end
        end = need(length, "id bytes")
        try:
            name = data[offset:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"id at byte {offset} is not valid UTF-8: "
                              f"{exc.reason} at byte {offset + exc.start}")
        record, size = data[offset - 4:end], length + 4
        last = end + size * (left - 1)  # the id count bounds the run
        while end < last and data[end:end + size] == record:
            end += size
        runs.append((name, (end - offset + 4) // size))
        left -= runs[-1][1]
        offset = end
    return matrix, runs, offset


def cache_write(path: str, matrix: Array, ids: Sequence[str]) -> None:
    atomic_write_bytes(path, encode_blob([matrix], ids, [1] * len(ids)))


@contextmanager
def _reading(path: str):
    """The bytes of ``path``: DataError if missing or unreadable; FormatErrors
    name the path."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise DataError(f"file not found: {path}")
    except OSError as exc:  # a directory, no permission, ...
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    try:
        yield data
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def cache_read_runs(path: str) -> tuple[Array, list]:
    """The matrix and id runs (see ``decode_runs``) of a one-blob file."""
    with _reading(path) as data:
        matrix, runs, end = decode_runs(data)
        if end != len(data):
            raise FormatError(f"trailing data after blob: file is {len(data)} "
                              f"bytes, blob ends at byte {end}")
    return matrix, runs


def cache_read(path: str) -> tuple[Array, list[str]]:
    matrix, runs = cache_read_runs(path)
    return matrix, [name for name, n in runs for _ in range(n)]


def save_tensors(path: str, tensors: dict[str, Array]) -> None:
    """Write named 2-D tensors as concatenated blobs, sorted by name."""
    blobs = [encode_blob([tensors[name]], [name], [1]) for name in sorted(tensors)]
    atomic_write_bytes(path, Parts(sum(map(len, blobs)),
                                   chain(*(blob.buffers for blob in blobs))))


def load_tensors(path: str) -> dict[str, Array]:
    tensors: dict[str, Array] = {}
    with _reading(path) as data:
        offset = 0
        while offset < len(data):
            start = offset
            matrix, runs, offset = decode_runs(data, offset)
            if [n for _, n in runs] != [1]:
                raise FormatError(f"tensor blob ending at byte {offset} must carry "
                                  f"exactly one name, got {sum(n for _, n in runs)}")
            if runs[0][0] in tensors:
                raise FormatError(f"duplicate tensor name {runs[0][0]!r} in the "
                                  f"blob at byte {start}")
            tensors[runs[0][0]] = matrix
    return tensors
