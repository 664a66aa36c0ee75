"""Binary index serialization, format version 1: README's "Index format" gives
the layout, and how a load reads the file and what it refuses.

This module checks bytes: magic, version, ordinals, lengths (N against the
doc-id block included), short reads and trailing bytes.
:class:`~qlex.index.IndexHeader` defines the legal header states (its
ValueError becomes "corrupt header"), and ``SparseScoreIndex.check_invariants``
the legal structure, terms and doc ids.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import threading
from pathlib import Path

import numpy as np

from .errors import IndexFormatError
from .index import SCORER_BM25, SCORER_DPH, IndexHeader, SparseScoreIndex
from .tokenizers import TokenizerMode

__all__ = ["INDEX_FORMAT_VERSION", "save_index", "load_index", "dumps_index", "loads_index"]

INDEX_FORMAT_VERSION = 1
_MAGIC = b"QLEXIDX1"
_FIXED = struct.Struct("<IBBddddQdQQ")
_MODES = [TokenizerMode.T0, TokenizerMode.T1, TokenizerMode.T2, TokenizerMode.T3]
_SCORERS = [SCORER_BM25, SCORER_DPH]
_OPTIONAL = ("k1", "b", "applied_q", "applied_gamma")  # not set: None in memory, NaN on disk


def dumps_index(index: SparseScoreIndex) -> bytes:
    header = index.header
    optional = [getattr(header, name) for name in _OPTIONAL]
    fixed = _FIXED.pack(
        INDEX_FORMAT_VERSION,
        _MODES.index(header.mode),
        _SCORERS.index(header.scorer),
        *(math.nan if v is None else v for v in optional),
        index.num_docs,
        header.avg_len,
        index.vocab_size,
        index.nnz,
    )
    vocab_blob = json.dumps(index.terms, ensure_ascii=False).encode("utf-8")
    ids_blob = json.dumps(index.doc_ids, ensure_ascii=False).encode("utf-8")
    return b"".join([
        _MAGIC, fixed,
        struct.pack("<Q", len(vocab_blob)), vocab_blob,
        struct.pack("<Q", len(ids_blob)), ids_blob,
        memoryview(np.ascontiguousarray(index.col_ptr, dtype=np.int64)),
        memoryview(np.ascontiguousarray(index.row_idx, dtype=np.int32)),
        memoryview(np.ascontiguousarray(index.scores, dtype=np.float32)),
    ])


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: a temporary file beside ``path``, named
    for this process and thread, is renamed over it, so a failed write leaves an
    existing file as it was and no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_index(index: SparseScoreIndex, path: str | Path) -> None:
    """Write ``index`` to ``path`` with :func:`write_atomic`."""
    write_atomic(path, dumps_index(index))


class _Reader:
    """Reads the parts of a ``size``-byte index from ``stream`` in order.  Each length
    is checked against ``size`` before its buffer is allocated, and a read that
    comes up short (a file cut after its size was taken) is a truncated index."""

    def __init__(self, stream: io.BufferedIOBase, size: int):
        self.stream, self.size, self.pos = stream, size, 0

    def _fill(self, n: int, allocate):  # allocate() gives the n-byte buffer to read into
        if self.pos + n <= self.size:
            buffer = allocate()
            if self.stream.readinto(buffer) == n:
                self.pos += n
                return buffer
        raise IndexFormatError(f"truncated index: needed {n} bytes at offset {self.pos}, "
                               f"file holds {self.size}")

    def take(self, n: int) -> bytearray:
        return self._fill(n, lambda: bytearray(n))

    def json_strings(self) -> list[str]:
        (size,) = struct.unpack("<Q", self.take(8))
        blob = self.take(size)
        try:
            value = json.loads(blob.decode("utf-8"))
            if not isinstance(value, list):
                raise TypeError
            joined = "".join(value)  # TypeError unless every element is a str
            if b"\\u" in blob:  # a lone surrogate, which UTF-8 cannot encode, needs a \u escape
                joined.encode("utf-8")
        except (ValueError, TypeError, RecursionError):  # bad UTF-8 or JSON, too deep, not strings
            raise IndexFormatError(
                "corrupt index: a JSON block is not an array of UTF-8 strings") from None
        return value

    def array(self, dtype, count: int) -> np.ndarray:
        return self._fill(count * np.dtype(dtype).itemsize, lambda: np.empty(count, dtype))


def _read_index(stream: io.BufferedIOBase, size: int) -> SparseScoreIndex:
    reader = _Reader(stream, size)
    if reader.take(len(_MAGIC)) != _MAGIC:
        raise IndexFormatError("not a qlex index file (bad magic)")
    (version, mode_ord, scorer_ord, *optional,
     num_docs, avg_len, vocab_size, nnz) = _FIXED.unpack(reader.take(_FIXED.size))
    if version != INDEX_FORMAT_VERSION:
        raise IndexFormatError(f"unsupported index format version {version}, "
                               f"this build reads version {INDEX_FORMAT_VERSION}")
    if not (0 <= mode_ord < len(_MODES) and 0 <= scorer_ord < len(_SCORERS)):
        raise IndexFormatError("corrupt header: unknown mode or scorer ordinal")
    try:
        header = IndexHeader(
            mode=_MODES[mode_ord], scorer=_SCORERS[scorer_ord], avg_len=avg_len,
            **{name: None if math.isnan(v) else v for name, v in zip(_OPTIONAL, optional)})
    except ValueError as exc:
        raise IndexFormatError(f"corrupt header: {exc}") from None

    terms = reader.json_strings()
    doc_ids = reader.json_strings()
    col_ptr = reader.array(np.int64, vocab_size + 1)
    row_idx = reader.array(np.int32, nnz)
    scores = reader.array(np.float32, nnz)
    if reader.pos != size:
        raise IndexFormatError(f"{size - reader.pos} trailing bytes after index payload")
    if num_docs != len(doc_ids):
        raise IndexFormatError(f"corrupt index: header N={num_docs} but {len(doc_ids)} doc ids")

    index = SparseScoreIndex(col_ptr=col_ptr, row_idx=row_idx, scores=scores, terms=terms,
                             doc_ids=doc_ids, header=header)
    index.check_invariants()
    return index


def loads_index(data: bytes) -> SparseScoreIndex:
    return _read_index(io.BytesIO(data), len(data))


def load_index(path: str | Path) -> SparseScoreIndex:
    with open(path, "rb") as stream:
        return _read_index(stream, os.fstat(stream.fileno()).st_size)
