"""Sparse BM25 score index.

The index bakes per-(term, document) BM25 scores into a CSC matrix at build
time: column t holds the scores of every document containing term t, so
query scoring reduces to summing column slices.  The baked weight is the
Lucene shifted IDF ``log(1 + (N - n_t + 0.5) / (n_t + 0.5))`` times the
saturated, length-normalized term-frequency factor.  Scores are stored as
float32; all scoring arithmetic upstream of storage is float64.

:func:`count_tokens` is the one tokenize-and-count pass over a corpus.  A
scorer is an entry-weight formula over it (BM25 here, DPH in
:mod:`qlex.transforms`); :mod:`qlex.stats` reads the same pass.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .corpus_io import Corpus
from .errors import BuildError, IndexFormatError
from .tokenizers import TokenizerMode, surface_tokens, tokenize, word_surfaces

__all__ = ["BuildParams", "IndexHeader", "SparseScoreIndex", "TokenCounts", "build_index",
           "count_tokens"]

SCORER_BM25 = "bm25"
SCORER_DPH = "dph"


@dataclass(frozen=True)
class BuildParams:
    """BM25 hyperparameters."""

    k1: float = 1.5
    b: float = 0.75

    def __post_init__(self):
        if not (self.k1 > 0 and math.isfinite(self.k1)):
            raise ValueError(f"k1 must be finite and > 0, got {self.k1}")
        if not (0.0 <= self.b <= 1.0):
            raise ValueError(f"b must lie in [0, 1], got {self.b}")


@dataclass
class IndexHeader:
    """Auditable index state: tokenizer mode, scorer, and applied transforms.

    ``applied_q`` / ``applied_gamma`` are None until the corresponding
    in-place IDF transform has been run; an index accepts at most one.
    """

    mode: TokenizerMode
    scorer: str = SCORER_BM25
    applied_q: float | None = None
    applied_gamma: float | None = None


@dataclass
class SparseScoreIndex:
    """CSC score matrix over (vocabulary columns, document rows).

    ``col_ptr[t]:col_ptr[t+1]`` is the extent of column t inside
    ``row_idx`` (document indices, strictly increasing per column) and
    ``scores`` (float32 baked scores).  ``df[t]`` equals the extent length.
    Terms with zero document frequency are absent from the vocabulary.
    """

    col_ptr: np.ndarray
    row_idx: np.ndarray
    scores: np.ndarray
    vocab: dict[str, int]
    terms: list[str]
    df: np.ndarray
    doc_ids: list[str]
    num_docs: int
    avg_len: float
    k1: float
    b: float
    header: IndexHeader
    # Available after an in-process build; not serialized (scoring never reads it).
    doc_lens: np.ndarray | None = field(repr=False, default=None)

    @property
    def nnz(self) -> int:
        return int(self.scores.shape[0])

    @property
    def vocab_size(self) -> int:
        return len(self.terms)

    def column(self, term_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Row indices and scores of one vocabulary column (views)."""
        start, end = self.col_ptr[term_id], self.col_ptr[term_id + 1]
        return self.row_idx[start:end], self.scores[start:end]

    @classmethod
    def from_counts(cls, counts: "TokenCounts", weights: np.ndarray, header: IndexHeader,
                    k1: float = math.nan, b: float = math.nan) -> "SparseScoreIndex":
        """Store float64 per-entry ``weights`` (aligned with ``counts.tfs``) as float32."""
        return cls(
            col_ptr=counts.col_ptr,
            row_idx=counts.rows,
            scores=weights.astype(np.float32),
            vocab={t: i for i, t in enumerate(counts.terms)},
            terms=counts.terms,
            df=counts.df,
            doc_ids=counts.doc_ids,
            num_docs=counts.num_docs,
            avg_len=counts.avg_len,
            k1=k1,
            b=b,
            header=header,
            doc_lens=counts.doc_lens,
        )

    def check_invariants(self) -> None:
        """Raise IndexFormatError unless columns are non-empty extents that tile
        the entry arrays, rows lie in [0, N) and strictly increase inside each
        column, every score is finite and every term is unique."""
        col_ptr, rows, nnz, n = self.col_ptr, self.row_idx, self.nnz, self.num_docs
        if (col_ptr.shape != (self.vocab_size + 1,) or rows.shape != (nnz,)
                or len(self.doc_ids) != n or col_ptr[0] != 0 or col_ptr[-1] != nnz
                or col_ptr.min() < 0 or col_ptr.max() > nnz):
            raise IndexFormatError("corrupt index: col_ptr does not span the entry arrays")
        extents = np.diff(col_ptr)
        if not ((extents >= 1).all() and np.array_equal(self.df, extents)):
            raise IndexFormatError("corrupt index: col_ptr decreases or stores an empty column")
        increasing = np.diff(rows) > 0
        increasing[col_ptr[1:-1] - 1] = True  # a new column may restart at any row
        if nnz and (rows.min() < 0 or rows.max() >= n or not increasing.all()):
            raise IndexFormatError(f"corrupt index: row indices must lie in [0, {n}) "
                                   "and increase strictly inside each column")
        if not np.isfinite(self.scores).all() or len(self.vocab) != self.vocab_size:
            raise IndexFormatError("corrupt index: a non-finite score or a duplicate term")


@dataclass(frozen=True)
class TokenCounts:
    """Every (term, document) pair of a corpus with its tf, in CSC order.

    Entry j is term ``tids[j]`` (an index into the sorted ``terms``) in
    document ``rows[j]``; ``doc_lens`` are post-tokenization lengths.
    """

    terms: list[str]
    doc_ids: list[str]
    num_docs: int
    n_tok: int
    avg_len: float
    tids: np.ndarray
    rows: np.ndarray
    tfs: np.ndarray
    df: np.ndarray
    col_ptr: np.ndarray
    doc_lens: np.ndarray


def count_tokens(corpus: Corpus, mode: TokenizerMode) -> TokenCounts:
    """Tokenize every document once and count its (term, doc) pairs.

    The only corpus tokenization pass: both index builders and the corpus
    statistics read it.  Under T2/T3 each distinct surface is tokenized
    once, by :func:`~qlex.tokenizers.surface_tokens`, into a tuple of term
    ids that every later occurrence reuses; T0 and T1 tokenize per document.
    Raises BuildError when the corpus has no tokens.
    """
    num_docs = len(corpus)
    # Ids in first-seen order; a missing key is given the next id.
    first_seen: defaultdict[str, int] = defaultdict()
    first_seen.default_factory = first_seen.__len__
    token_ids: list[int] = []
    doc_lens: list[int] = []
    if mode in (TokenizerMode.T2, TokenizerMode.T3):
        emissions: dict[str, tuple[int, ...]] = {}
        for doc in corpus:
            before = len(token_ids)
            for raw in word_surfaces(doc.text):
                ids = emissions.get(raw)
                if ids is None:
                    ids = emissions[raw] = tuple(
                        map(first_seen.__getitem__, surface_tokens(raw, mode)))
                token_ids.extend(ids)
            doc_lens.append(len(token_ids) - before)
        del emissions
    else:
        for doc in corpus:
            toks = tokenize(doc.text, mode)
            doc_lens.append(len(toks))
            token_ids.extend(map(first_seen.__getitem__, toks))
    if not token_ids:  # also an empty corpus
        raise BuildError(f"corpus of {num_docs} documents has no tokens under mode {mode.value}")

    terms = sorted(first_seen)
    rank = np.empty(len(terms), dtype=np.int64)
    rank[[first_seen[t] for t in terms]] = np.arange(len(terms))
    keys = rank[np.array(token_ids, dtype=np.int64)]
    keys *= num_docs
    keys += np.repeat(np.arange(num_docs, dtype=np.int64), doc_lens)
    # Sorted unique keys are term-major with ascending documents inside a term.
    keys, tfs = np.unique(keys, return_counts=True)
    tids = keys // num_docs
    df = np.bincount(tids, minlength=len(terms))
    col_ptr = np.concatenate(([0], np.cumsum(df)))
    return TokenCounts(terms=terms, doc_ids=corpus.doc_ids(), num_docs=num_docs,
                       n_tok=len(token_ids), avg_len=len(token_ids) / num_docs, tids=tids,
                       rows=(keys % num_docs).astype(np.int32), tfs=tfs.astype(np.float64),
                       df=df, col_ptr=col_ptr, doc_lens=np.array(doc_lens, dtype=np.int64))


def rsj_idf(df: np.ndarray | int, num_docs: int) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed RSJ odds ``(N - df + 0.5) / (df + 0.5)`` and the baked IDF ``log(1 + odds)``.

    Float64, per entry of ``df``.  :func:`build_index` bakes this IDF and the
    rescales in :mod:`qlex.transforms` divide it back out.
    """
    df = np.asarray(df, dtype=np.float64)
    odds = (num_docs - df + 0.5) / (df + 0.5)
    return odds, np.log(1.0 + odds)


def build_index(corpus: Corpus, mode: TokenizerMode,
                params: BuildParams | None = None) -> SparseScoreIndex:
    """Build a baked BM25 score index over ``corpus`` under ``mode``.

    Document length is the post-tokenization token count of the same
    stream that defines term frequencies.  Raises BuildError on an empty
    corpus or a corpus that tokenizes to nothing.
    """
    params = params or BuildParams()
    counts = count_tokens(corpus, mode)
    tfs, k1, b = counts.tfs, params.k1, params.b
    idf = rsj_idf(counts.df, counts.num_docs)[1]
    length_norm = 1.0 - b + b * (counts.doc_lens[counts.rows] / counts.avg_len)
    weights = idf[counts.tids] * (tfs * (k1 + 1.0) / (tfs + k1 * length_norm))
    return SparseScoreIndex.from_counts(counts, weights, IndexHeader(mode=mode), k1=k1, b=b)
