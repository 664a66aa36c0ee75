"""IDF transforms over baked score matrices.

The central object is the q-logarithm (Box-Cox / Tsallis deformation of the
natural log)::

    ln_q(x) = (x^(1-q) - 1) / (1 - q),      ln_1(x) = ln(x)

applied to the Robertson/Sparck-Jones relevance odds
``(N - n_t + 0.5) / (n_t + 0.5)``.  For q < 1 the transform follows a power
law in the odds and strongly amplifies rare terms; at q = 1 it recovers the
ordinary log IDF; for q > 1 it saturates at 1/(q - 1).

Because a built index stores ``lucene_idf * tf_factor`` per entry, moving
an index to a different exponent q is a pure column rescale: every entry of
column t is multiplied by ``idf_qlog(n_t, N, q) / idf_lucene(n_t, N)``.
Each side of that ratio has one numpy body (:func:`ln_q`, :func:`qlex.index.rsj_idf`), so
for a float n_t the ratio equals the factor the rescale applies, bit for bit.
The gamma sharpening ``idf ** gamma`` is the same rescale with column factor
``idf ** (gamma - 1)``.  One step, :func:`_rescaled`, returns either
rescale as a new frozen index that shares the input's structure, and writes
nothing; the public rescales write its scores and header into the index they
are given, all or nothing, and return it, and callers use the returned
index.  A rescale is single-shot; the index header records it.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .corpus_io import Corpus
from .errors import RescaleStateError
from .index import (SCORER_BM25, SCORER_DPH, IndexHeader, SparseScoreIndex, by_column_runs,
                    count_tokens, rsj_idf)
from .tokenizers import TokenizerMode

__all__ = [
    "LNQ_GUARD_EPS", "ln_q", "rsj_odds", "idf_qlog", "idf_lucene",
    "rescale_index", "rescale_index_gamma", "build_dph_index",
]

# Below this distance from q = 1 the closed form loses precision to
# cancellation; the exact limit ln(x) is used instead.
LNQ_GUARD_EPS = 1e-9


def ln_q(x: float | np.ndarray, q: float) -> float | np.ndarray:
    """q-logarithm of ``x`` > 0, a float or an array elementwise; continuous in q at q = 1."""
    x = np.asarray(x, dtype=np.float64)
    if not (x > 0).all():
        raise ValueError(f"ln_q domain is x > 0, got {x}")
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q}")
    if abs(q - 1.0) < LNQ_GUARD_EPS:
        y = np.log(x)
    else:
        y = (np.power(x, 1.0 - q) - 1.0) / (1.0 - q)
    return y if y.ndim else float(y)


def rsj_odds(n_t: int | np.ndarray, num_docs: int) -> float | np.ndarray:
    """Smoothed RSJ odds ``(N - n_t + 0.5) / (n_t + 0.5)``, elementwise.

    Falls below 1 when the term occurs in more than half the corpus; the
    sign convention of the downstream log is kept deliberately.
    """
    n_t = np.asarray(n_t)
    if not ((0 <= n_t) & (n_t <= num_docs)).all():
        raise ValueError(f"n_t must lie in [0, N], got n_t={n_t}, N={num_docs}")
    odds = rsj_idf(n_t, num_docs)[0]
    return odds if odds.ndim else float(odds)


def idf_qlog(n_t: int | np.ndarray, num_docs: int, q: float) -> float | np.ndarray:
    """q-log IDF: ``ln_q`` of the smoothed RSJ odds."""
    return ln_q(rsj_odds(n_t, num_docs), q)


def idf_lucene(n_t: int, num_docs: int) -> float:
    """The baked IDF, shifted log ``log(1 + odds)``; strictly positive for df >= 1."""
    if not 1 <= n_t <= num_docs:
        raise ValueError(f"n_t must lie in [1, N], got n_t={n_t}, N={num_docs}")
    return float(rsj_idf(n_t, num_docs)[1])


def _rescaled(index: SparseScoreIndex, name: str, value: float) -> SparseScoreIndex:
    """``index`` rescaled to ``name`` = ``value``, as a new index; writes nothing.

    ``name`` is "q" (column factor ``ln_q(odds, q) / idf``) or "gamma"
    (``idf ** (gamma - 1)``), with ``odds`` and ``idf`` the build's
    (:func:`qlex.index.rsj_idf`).  Refuses a DPH or rescaled index
    (RescaleStateError), then a value the marked
    :class:`~qlex.index.IndexHeader` refuses (ValueError); ``value == 1.0``
    is the identity and returns ``index`` itself.  Otherwise returns an index
    that shares the structure of ``index`` and holds the marked header and the
    float64 products narrowed run by run (:func:`qlex.index.by_column_runs`)
    into a new float32 array, or raises ValueError if a narrowed score is not finite.
    """
    header = index.header
    if header.scorer != SCORER_BM25:
        raise RescaleStateError(f"{name} rescale applies to bm25 indexes only, "
                                f"this index was built with scorer={header.scorer!r}")
    for done, applied in (("q", header.applied_q), ("gamma", header.applied_gamma)):
        if applied is not None:
            raise RescaleStateError(f"{name} rescale refused: index already rescaled "
                                    f"at {done}={applied}")
    marked = dataclasses.replace(header, **{f"applied_{name}": value})
    if value == 1.0:
        return index
    factors = _column_factors(index.df, index.num_docs, name, value)
    with np.errstate(over="ignore", invalid="ignore"):
        narrowed = by_column_runs(index.col_ptr, lambda at, cols: (
            index.scores[at].astype(np.float64) * np.repeat(factors[cols], index.df[cols])))
    if not np.isfinite(narrowed).all():
        raise ValueError(f"rescale to {name}={value} gives non-finite float32 scores; "
                         "index left unchanged")
    return dataclasses.replace(index, scores=narrowed, header=marked)


def _column_factors(df: np.ndarray, num_docs: int, name: str, value: float) -> np.ndarray:
    """The float64 factor of a ``name`` = ``value`` rescale (see :func:`_rescaled`) for a
    column of each document frequency of ``df`` in ``num_docs`` documents."""
    odds, idf = rsj_idf(df, num_docs)
    with np.errstate(over="ignore", invalid="ignore"):
        return ln_q(odds, value) / idf if name == "q" else np.power(idf, value - 1.0)


def _rescale(index: SparseScoreIndex, name: str, value: float) -> SparseScoreIndex:
    """Write :func:`_rescaled`'s scores and header into ``index``, all or nothing."""
    if (rescaled := _rescaled(index, name, value)) is not index:
        # perfbench/bench.py:314 discards the return; ROADMAP item 7 drops this write after item 0.
        index.scores[...] = rescaled.scores
        object.__setattr__(index, "header", rescaled.header)
    return index


def rescale_index(index: SparseScoreIndex, q: float) -> SparseScoreIndex:
    """Move a baked BM25 index to exponent ``q`` by rescaling each column.

    Each stored entry of column t is multiplied by
    ``idf_qlog(n_t, N, q) / idf_lucene(n_t, N)`` in one O(|V| + nnz) pass.
    q = 1.0 exactly returns the index untouched, bit for bit, and unmarked.
    A second rescale is a state error; a non-finite q, or one whose scores
    overflow float32, is a ValueError that leaves the index untouched.
    """
    return _rescale(index, "q", q)


def rescale_index_gamma(index: SparseScoreIndex, gamma: float) -> SparseScoreIndex:
    """Sharpen the baked IDF to ``idf ** gamma`` (column factor idf^(gamma-1)).

    gamma = 1.0 exactly is the untouched identity; a non-finite or non-positive
    gamma is a domain error.  Same state and overflow rules as :func:`rescale_index`.
    """
    return _rescale(index, "gamma", gamma)


def build_dph_index(corpus: Corpus, mode: TokenizerMode) -> SparseScoreIndex:
    """Build a parameter-free DPH score index (hypergeometric DFR model).

    Per stored entry, with ``f = tf/dl`` clamped to at most 1 - 1e-9,
    ``F`` the collection frequency of the term and ``norm = (1-f)^2/(tf+1)``::

        score = norm * (tf * log2((tf*avg_dl/dl) * (N/F))
                        + 0.5 * log2(2*pi*tf*(1-f)))

    Scores may be negative and are stored as computed.  The query path is
    identical to BM25 indexes; only the header's scorer tag differs.
    """
    counts = count_tokens(corpus, mode)
    df, avg_len, num_docs = counts.df, counts.avg_len, counts.num_docs
    coll_freqs = np.add.reduceat(counts.tfs, counts.col_ptr[:-1], dtype=np.float64)

    def dph(at: slice, cols: slice) -> np.ndarray:
        tfs = counts.tfs[at].astype(np.float64)
        dl = counts.doc_lens[counts.rows[at]].astype(np.float64)
        coll_freq = np.repeat(coll_freqs[cols], df[cols])
        f = np.minimum(tfs / dl, 1.0 - 1e-9)
        norm = (1.0 - f) ** 2 / (tfs + 1.0)
        info = tfs * np.log2((tfs * avg_len / dl) * (num_docs / coll_freq))
        return norm * (info + 0.5 * np.log2(2.0 * math.pi * tfs * (1.0 - f)))
    header = IndexHeader(mode=mode, scorer=SCORER_DPH, k1=None, b=None, avg_len=avg_len)
    return SparseScoreIndex.from_counts(counts, dph, header)
