"""Binary index serialization.

Layout (little-endian, version 1):

====================  =======================================================
bytes 0..7            magic ``b"QLEXIDX1"``
fixed header          ``<IBBddddQdQQ``: version, tokenizer mode ordinal,
                      scorer ordinal, k1, b, applied_q, applied_gamma
                      (NaN encodes not set, None in memory), N, avg_len,
                      vocab size, nnz
vocab block           u64 byte length + UTF-8 JSON array of terms (id order)
doc-id block          u64 byte length + UTF-8 JSON array of doc ids
col_ptr               (V + 1) int64
row_idx               nnz int32
scores                nnz float32
====================  =======================================================

Fixed-width header fields keep the file size independent of whether a
transform was applied, so a rescaled index is byte-for-byte the same size
as its baseline.  ``df`` is not stored; it is recomputed from ``col_ptr``.

A file is untrusted input: any malformed file raises IndexFormatError at
load.  This module checks bytes only: magic, version, ordinals, lengths
(N against the doc-id block included) and trailing bytes.  Which header
states are legal is defined once, by :class:`~qlex.index.IndexHeader`,
whose ValueError becomes a "corrupt header" error here; a bad CSC
structure is caught by ``SparseScoreIndex.check_invariants``.
"""

from __future__ import annotations

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
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip(self, n: int) -> int:  # the offset of the next n bytes, then past them
        if self.pos + n > len(self.data):
            raise IndexFormatError(
                f"truncated index: needed {n} bytes at offset {self.pos}, "
                f"file holds {len(self.data)}")
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        return self.data[self.skip(n):self.pos]

    def json_strings(self) -> list[str]:
        (size,) = struct.unpack("<Q", self.take(8))
        blob = self.take(size)
        try:
            value = json.loads(blob.decode("utf-8"))
            if b"\\u" in blob:  # a lone surrogate, which UTF-8 cannot encode, needs a \u escape
                json.dumps(value, ensure_ascii=False).encode("utf-8")
        except (ValueError, RecursionError):  # bad UTF-8 or JSON, too deep, a lone surrogate
            value = None
        if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise IndexFormatError("corrupt index: a JSON block is not an array of UTF-8 strings")
        return value

    def array(self, dtype, count: int) -> np.ndarray:
        offset = self.skip(count * np.dtype(dtype).itemsize)
        return np.frombuffer(self.data, dtype, count, offset).copy()


def loads_index(data: bytes) -> SparseScoreIndex:
    reader = _Reader(data)
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
    if reader.pos != len(data):
        raise IndexFormatError(f"{len(data) - reader.pos} trailing bytes after index payload")
    if num_docs != len(doc_ids):
        raise IndexFormatError(f"corrupt index: header N={num_docs} but {len(doc_ids)} doc ids")

    index = SparseScoreIndex(col_ptr=col_ptr, row_idx=row_idx, scores=scores, terms=terms,
                             doc_ids=doc_ids, header=header)
    index.check_invariants()
    return index


def load_index(path: str | Path) -> SparseScoreIndex:
    return loads_index(Path(path).read_bytes())
