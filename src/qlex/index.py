"""Sparse BM25 score index.

The index bakes per-(term, document) BM25 scores into a CSC matrix at build
time: column t holds the scores of every document containing term t, so
query scoring reduces to summing column slices.  The baked weight is the
Lucene shifted IDF ``log(1 + (N - n_t + 0.5) / (n_t + 0.5))`` times the
saturated, length-normalized term-frequency factor.  Scores are stored as
float32; all scoring arithmetic upstream of storage is float64.

:func:`count_tokens` is the one tokenize-and-count pass over a corpus, run
once per corpus object and mode.  It maps each document's words to ids in
one C-level chain, decides what each distinct word becomes once, and counts
with numpy.  A scorer is an entry-weight formula over it (BM25 here, DPH in
:mod:`qlex.transforms`); :mod:`qlex.stats` reads the same pass.
"""

from __future__ import annotations

import math
import operator
import weakref
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .corpus_io import Corpus, _check_ids
from .errors import BuildError, IndexFormatError, ParseError
from .tokenizers import TokenizerMode, _t0_drop, surface_tokens, word_split

__all__ = ["IndexHeader", "SparseScoreIndex", "TokenCounts", "build_index", "count_tokens"]

SCORER_BM25 = "bm25"
SCORER_DPH = "dph"
# About this many entries per run of whole columns: a run's float64 scratch stays cache-sized.
_RUN_ENTRIES = 1 << 15


@dataclass(frozen=True)
class IndexHeader:
    """Index state the arrays do not imply, and the one definition of a legal one.

    None means not set.  Construction raises ValueError unless a BM25
    header's k1 is finite and > 0 and its b lies in [0, 1], a DPH header's
    k1 and b are None, avg_len is finite and > 0, and at most one transform
    mark is set: a finite ``applied_q`` or a finite ``applied_gamma`` > 0,
    on BM25 only.  These are the legal BM25 parameters of :func:`build_index`.
    No legal header holds a NaN, so headers compare and hash by value.
    """

    mode: TokenizerMode
    scorer: str
    k1: float | None
    b: float | None
    avg_len: float
    applied_q: float | None = None
    applied_gamma: float | None = None

    def __post_init__(self):
        if self.scorer == SCORER_BM25 and None not in (self.k1, self.b):
            _check_param(self.k1, "k1")
            _check_param(self.b, "b")
        elif not (self.scorer == SCORER_DPH and self.k1 is None and self.b is None):
            raise ValueError(f"scorer {self.scorer!r} needs k1 and b set (bm25) or neither (dph)")
        if not (math.isfinite(self.avg_len) and self.avg_len > 0):
            raise ValueError(f"avg_len must be finite and > 0, got {self.avg_len}")
        marks = {name: value for name, value in [("q", self.applied_q),
                                                 ("gamma", self.applied_gamma)]
                 if value is not None}
        if len(marks) > 1 or (marks and self.scorer != SCORER_BM25):
            raise ValueError("a rescale sets one mark, on a BM25 index only; "
                             f"got q={self.applied_q}, gamma={self.applied_gamma}")
        for name, value in marks.items():
            _check_mark(value, name)


def _check_param(value: float, name: str) -> None:
    """ValueError unless ``value`` is a legal BM25 ``name``: a finite k1 > 0 or a b in [0, 1].
    :class:`IndexHeader` reads it and the CLI at parse time."""
    if name == "k1" and not (value > 0 and math.isfinite(value)):
        raise ValueError(f"k1 must be finite and > 0, got {value}")
    if name == "b" and not (0.0 <= value <= 1.0):
        raise ValueError(f"b must lie in [0, 1], got {value}")


def _check_mark(value: float, name: str) -> None:
    """ValueError unless ``value`` is a legal ``name`` mark: a finite q or a finite gamma > 0.
    :class:`IndexHeader` reads it, the sweep before any scoring and the CLI at parse time."""
    if not (math.isfinite(value) and (name == "q" or value > 0)):
        raise ValueError(f"a rescale sets a finite q or a finite gamma > 0; got {name}={value}")


@dataclass(frozen=True)
class SparseScoreIndex:
    """CSC score matrix over (vocabulary columns, document rows).

    ``col_ptr[t]:col_ptr[t+1]`` is the extent of column t inside
    ``row_idx`` (document indices, strictly increasing per column) and
    ``scores`` (float32 baked scores).  Terms with zero document frequency
    are absent from the vocabulary.  ``df`` (the extent lengths) and
    ``num_docs`` (the number of doc ids) are derived at construction from
    ``col_ptr`` and ``doc_ids``, and ``vocab`` (term to column) from ``terms``
    on the first lookup; threads looking up first at once may each build it.
    Only queries read ``vocab``: eval lookups search ``terms``, relying on their
    strict ascent, which every build guarantees and ``check_invariants`` enforces.

    Every index, built, loaded or constructed, is frozen: no field can be
    reassigned (AttributeError); ``terms`` and ``doc_ids`` are tuples, and
    ``col_ptr``, ``row_idx`` and ``df`` read-only arrays.  ``vocab`` is a plain
    dict, as a read-only mapping would slow every query's lookup.  The pure
    rescale step returns a new index that shares this one's structure; only the
    public rescales write its scores and header into the index they are given.
    """

    col_ptr: np.ndarray
    row_idx: np.ndarray
    scores: np.ndarray
    terms: tuple[str, ...]
    doc_ids: tuple[str, ...]
    header: IndexHeader
    df: np.ndarray = field(init=False)
    num_docs: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))  # a tuple is kept, not copied
        object.__setattr__(self, "doc_ids", tuple(self.doc_ids))
        object.__setattr__(self, "_vocab", None)  # vocab's map, built on the first lookup
        object.__setattr__(self, "df", np.diff(self.col_ptr))
        object.__setattr__(self, "num_docs", len(self.doc_ids))
        for array in (self.col_ptr, self.row_idx, self.df):
            array.flags.writeable = False

    @property
    def vocab(self) -> dict[str, int]:
        """Term to column, built on the first read and the same object after it."""
        if self._vocab is None:
            object.__setattr__(self, "_vocab", dict(zip(self.terms, range(self.vocab_size))))
        return self._vocab

    @property
    def nnz(self) -> int:
        return int(self.scores.shape[0])

    @property
    def vocab_size(self) -> int:
        return len(self.terms)

    @classmethod
    def from_counts(cls, counts: "TokenCounts", formula: Callable[[slice, slice], np.ndarray],
                    header: IndexHeader) -> "SparseScoreIndex":
        """Store the per-entry ``formula`` over ``counts`` as float32 (see :func:`by_column_runs`).

        The index shares the read-only structure of ``counts``; its
        ``scores`` are its own, so a rescale cannot change what a later
        build from the same counts reads.
        """
        return cls(col_ptr=counts.col_ptr, row_idx=counts.rows,
                   scores=by_column_runs(counts.col_ptr, formula), terms=counts.terms,
                   doc_ids=counts.doc_ids, header=header)

    def check_invariants(self) -> None:
        """Raise IndexFormatError unless there is at least one column, columns are
        non-empty extents that tile the entry arrays, rows lie in [0, N) and
        strictly increase inside each column, every score is finite, the
        terms strictly ascend (so none repeats) and the doc ids obey the corpus
        id rule (unique, non-empty, no whitespace).  So nnz >= 1 and N >= 1, as
        every build gives.  It builds no term map."""
        col_ptr, rows, nnz, n = self.col_ptr, self.row_idx, self.nnz, self.num_docs
        if self.vocab_size < 1:
            raise IndexFormatError("corrupt index: no vocabulary")
        if (col_ptr.shape != (self.vocab_size + 1,) or rows.shape != (nnz,)
                or col_ptr[0] != 0 or col_ptr[-1] != nnz
                or col_ptr.min() < 0 or col_ptr.max() > nnz):
            raise IndexFormatError("corrupt index: col_ptr does not span the entry arrays")
        if not (self.df >= 1).all():
            raise IndexFormatError("corrupt index: col_ptr decreases or stores an empty column")
        increasing = rows[1:] > rows[:-1]
        increasing[col_ptr[1:-1] - 1] = True  # a new column may restart at any row
        if nnz and (rows.min() < 0 or rows.max() >= n or not increasing.all()):
            raise IndexFormatError(f"corrupt index: row indices must lie in [0, {n}) "
                                   "and increase strictly inside each column")
        if not (np.isfinite(self.scores).all()
                and all(map(operator.lt, self.terms, islice(self.terms, 1, None)))):
            raise IndexFormatError("corrupt index: a non-finite score or terms not strictly "
                                   "ascending")
        try:
            _check_ids("doc id", self.doc_ids, None, None)
        except ParseError as exc:
            raise IndexFormatError(f"corrupt index: {exc}") from None


@dataclass(frozen=True)
class TokenCounts:
    """Every (term, document) pair of a corpus with its tf, in CSC order.

    Column t (term ``terms[t]``, sorted) holds entries
    ``col_ptr[t]:col_ptr[t+1]``: document ``rows[j]`` contains the term
    ``tfs[j]`` times (both int32).  A per-column value reaches its entries as
    ``np.repeat(value, df)``.  ``doc_lens`` are post-tokenization lengths;
    ``num_docs``, ``n_tok``, ``avg_len`` and ``df`` are derived from
    ``doc_ids``, ``doc_lens`` and ``col_ptr``.  Every field is read-only,
    because :func:`count_tokens` hands the same object to every consumer of
    its corpus and mode.
    """

    terms: tuple[str, ...]
    doc_ids: tuple[str, ...]
    rows: np.ndarray
    tfs: np.ndarray
    col_ptr: np.ndarray
    doc_lens: np.ndarray

    def __post_init__(self):
        for array in (self.rows, self.tfs, self.col_ptr, self.doc_lens):
            array.flags.writeable = False

    @property
    def num_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def n_tok(self) -> int:
        return int(self.doc_lens.sum())

    @property
    def avg_len(self) -> float:
        return self.n_tok / self.num_docs

    @property
    def df(self) -> np.ndarray:
        return np.diff(self.col_ptr)


# One TokenCounts per (corpus, mode); an entry lives as long as its corpus.
_COUNTS: weakref.WeakKeyDictionary[Corpus, dict[TokenizerMode, TokenCounts]] = (
    weakref.WeakKeyDictionary())


def count_tokens(corpus: Corpus, mode: TokenizerMode) -> TokenCounts:
    """Tokenize every document once and count its (term, doc) pairs.

    The only corpus tokenization pass, run once per corpus object and mode:
    both index builders and the corpus statistics read it, and later calls
    return the same read-only result for as long as the (immutable) corpus
    lives.  Threads counting one corpus at once may each run the pass, to
    equal results.  The tokens are :func:`~qlex.tokenizers.tokenize`'s, but
    each word's rule (see :func:`~qlex.tokenizers.word_split`) runs once per
    distinct word and numpy repeats it over the occurrences.  Raises
    BuildError, on every call, when the corpus has no tokens.
    """
    by_mode = _COUNTS.setdefault(corpus, {})
    counts = by_mode.get(mode)
    if counts is None:
        counts = by_mode[mode] = _count(corpus, mode)
    return counts


def _chain(texts: Iterable[str], split: Callable[[str], list[str]]
           ) -> tuple[dict[str, int], list[int], list[int]]:
    """Each text's pieces as first-seen ids, one C-level chain per text: the
    piece-to-id dict, the concatenated ids, and ``ends`` (text i's ids are
    ``ids[ends[i]:ends[i + 1]]``)."""
    first_seen: defaultdict[str, int] = defaultdict()
    first_seen.default_factory = first_seen.__len__  # a missing key is given the next id
    ids: list[int] = []
    ends = [0]
    extend, getitem = ids.extend, first_seen.__getitem__
    for text in texts:
        extend(map(getitem, split(text)))
        ends.append(len(ids))
    first_seen.default_factory = None  # breaks the dict's reference cycle, so del frees it
    return first_seen, ids, ends


def _count(corpus: Corpus, mode: TokenizerMode) -> TokenCounts:
    num_docs = len(corpus)
    first_seen, word_ids, ends = _chain(corpus.texts, word_split(mode))
    if mode in (TokenizerMode.T2, TokenizerMode.T3):
        # Each distinct surface is emitted once; its occurrences repeat the emission.
        first_seen, emitted, em_ends = _chain(first_seen, lambda raw: surface_tokens(raw, mode))
    # A T0 word is dropped iff it is in the drop set: one decision per distinct word.
    dropped = first_seen.keys() & _t0_drop() if mode is TokenizerMode.T0 else set()
    rank = np.full(len(first_seen), -1, dtype=np.int64)  # a dropped word's rank stays -1
    for word in dropped:
        del first_seen[word]
    terms = sorted(first_seen)
    rank[np.fromiter(map(first_seen.__getitem__, terms), np.int64, len(terms))] = np.arange(
        len(terms))
    del first_seen

    ids = np.fromiter(word_ids, np.int32, len(word_ids))
    del word_ids
    ends = np.array(ends)  # document d's ids are ids[ends[d]:ends[d + 1]]
    if mode in (TokenizerMode.T2, TokenizerMode.T3):
        em_end = np.array(em_ends)
        lens = np.diff(em_end)[ids]
        out_end = np.cumsum(lens)
        # Token j of the output is emitted[j + (emission start - output start)] of its occurrence.
        at = np.repeat(em_end[1:][ids] - out_end, lens)
        at += np.arange(len(at))
        ids = np.array(emitted, dtype=np.int32)[at]
        ends = np.concatenate(([0], out_end))[ends]
        del emitted, em_ends, em_end, lens, out_end, at
    if dropped:
        kept = (rank >= 0)[ids]
        ids, ends = ids[kept], np.concatenate(([0], np.cumsum(kept)))[ends]
    if not len(ids):  # also an empty corpus
        raise BuildError(f"corpus of {num_docs} documents has no tokens under mode {mode.value}")
    keys = rank[ids]
    # Transients go before the kept arrays are made, so that those do not
    # land above freed memory and keep it resident as long as the corpus.
    del ids, rank
    keys *= num_docs
    keys += np.repeat(np.arange(num_docs, dtype=np.int32), np.diff(ends))
    # Sorted keys are term-major with ascending documents inside a term; a
    # pair's tf is the length of its run of equal keys.
    keys.sort()
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    tfs = np.diff(starts, append=len(keys)).astype(np.int32)
    keys = keys[starts]
    del starts
    df = np.bincount(keys // num_docs, minlength=len(terms))
    keys %= num_docs
    rows = keys.astype(np.int32)
    del keys
    return TokenCounts(terms=tuple(terms), doc_ids=corpus.ids, rows=rows, tfs=tfs,
                       col_ptr=np.concatenate(([0], np.cumsum(df))), doc_lens=np.diff(ends))


def by_column_runs(col_ptr: np.ndarray,
                   formula: Callable[[slice, slice], np.ndarray]) -> np.ndarray:
    """A new float32 array of the float64 ``formula(at, cols)`` of each run of whole columns
    ``cols``, entries ``at``.  A run ends at the first column boundary at or past a
    multiple of ``_RUN_ENTRIES``, so it holds fewer entries than that plus its last
    column's.  Each run is narrowed as ``astype(np.float32)`` narrows, so an
    elementwise formula gives the bytes it gives over all entries at once."""
    cuts = np.searchsorted(col_ptr, np.arange(_RUN_ENTRIES, col_ptr[-1], _RUN_ENTRIES))
    bounds = np.unique(np.concatenate(([0], cuts, [len(col_ptr) - 1]))).tolist()
    out = np.empty(col_ptr[-1], dtype=np.float32)
    for first, stop in zip(bounds, bounds[1:]):
        at = slice(int(col_ptr[first]), int(col_ptr[stop]))
        out[at] = formula(at, slice(first, stop))
    return out


def rsj_idf(df: np.ndarray | int, num_docs: int) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed RSJ odds ``(N - df + 0.5) / (df + 0.5)`` and the baked IDF ``log(1 + odds)``.

    Float64, per entry of ``df``.  :func:`build_index` bakes this IDF and the
    rescales in :mod:`qlex.transforms` divide it back out.
    """
    df = np.asarray(df, dtype=np.float64)
    odds = (num_docs - df + 0.5) / (df + 0.5)
    return odds, np.log(1.0 + odds)


def build_index(corpus: Corpus, mode: TokenizerMode, k1: float = 1.5,
                b: float = 0.75) -> SparseScoreIndex:
    """Build a baked BM25 score index over ``corpus`` under ``mode``.

    Document length is the post-tokenization token count of the same
    stream that defines term frequencies.  Raises BuildError on an empty
    corpus or a corpus that tokenizes to nothing, and ValueError on a k1 or
    b that :class:`IndexHeader` rejects.
    """
    counts = count_tokens(corpus, mode)
    df, avg_len = counts.df, counts.avg_len
    header = IndexHeader(mode=mode, scorer=SCORER_BM25, k1=k1, b=b, avg_len=avg_len)
    idf = rsj_idf(df, counts.num_docs)[1]

    def bm25(at: slice, cols: slice) -> np.ndarray:
        tfs = counts.tfs[at].astype(np.float64)
        length_norm = 1.0 - b + b * (counts.doc_lens[counts.rows[at]] / avg_len)
        return np.repeat(idf[cols], df[cols]) * (tfs * (k1 + 1.0) / (tfs + k1 * length_norm))
    return SparseScoreIndex.from_counts(counts, bm25, header)
