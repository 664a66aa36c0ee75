"""Query-time scoring and ranking over baked score matrices.

One path serves every index flavor (plain BM25, q-rescaled, gamma
sharpened, DPH): :func:`score_query` states the summation order, and
:func:`rank_from_scores` the ranking order, which ``_position`` also reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus_io import QuerySet
from .errors import ModeMismatchError
from .index import SparseScoreIndex
from .tokenizers import TokenizerMode, tokenize

__all__ = ["RankedList", "score_query", "top_k", "batch_retrieve", "format_trec_run"]


@dataclass
class RankedList:
    """Descending-score ranking for one query."""

    query_id: str
    hits: list[tuple[str, float]]

    def doc_ids(self) -> list[str]:
        return [d for d, _ in self.hits]


def score_query(index: SparseScoreIndex, tokens: Sequence[str]) -> np.ndarray:
    """Dense float64 score vector over all documents.

    Token multiplicity counts: a token appearing twice contributes its
    column twice.  Tokens outside the vocabulary contribute nothing.

    Summation order is part of the contract: each matched column's float32
    scores are widened to float64 (then times the multiplicity, as a float32
    product would round), and a document's score is the left-to-right sum,
    from 0.0, of its entries over the matched columns in first-occurrence
    order of the query tokens.  One ``np.bincount`` adds exactly in that
    order, so the scores are the bytes a column-by-column scatter-add gives.
    """
    return _score(index, _columns(index, tokens))


def _columns(index: SparseScoreIndex, tokens: Sequence[str],
             vocab: Mapping[str, int] | None = None) -> list[tuple]:
    """Each matched column's ``(start, end, multiplicity)``, in first-occurrence order
    of its term in ``tokens``, dropping tokens ``vocab`` (by default ``index.vocab``)
    lacks.  It reads only ``col_ptr`` and ``vocab``, which a rescaled copy shares."""
    counts: dict[str, int] = {}  # a Counter costs more than this on a short query
    for term in tokens:
        counts[term] = counts.get(term, 0) + 1
    col_ptr = index.col_ptr
    if vocab is None:
        vocab = index.vocab
    columns = []
    for term, mult in counts.items():
        tid = vocab.get(term)
        if tid is not None:
            columns.append((col_ptr[tid], col_ptr[tid + 1], mult))
    return columns


def _score(index: SparseScoreIndex, columns: Sequence[tuple]) -> np.ndarray:
    """The :func:`score_query` vector of resolved ``columns``.

    Its intp rows and float64 weights are concatenated straight from views
    into the index, so each posting is copied once, by exact casts; then a
    repeated column's segment of the weights is multiplied in place.
    """
    if not columns:
        return np.zeros(index.num_docs, dtype=np.float64)
    row_idx, data = index.row_idx, index.scores
    rows = np.concatenate([row_idx[start:end] for start, end, _ in columns], dtype=np.intp)
    weights = np.concatenate([data[start:end] for start, end, _ in columns], dtype=np.float64)
    at = 0
    for start, end, mult in columns:
        if mult != 1:
            weights[at:at + end - start] *= mult
        at += end - start
    return np.bincount(rows, weights=weights, minlength=index.num_docs)


# Score classes in the order a stable sort of -scores visits them; ``tied``
# classes hold one value, so their ascending doc order is already ranked.
_SCORE_CLASSES = (
    (lambda s: s > 0, False),
    (lambda s: s == 0, True),
    (lambda s: s < 0, False),
    (np.isnan, True),
)


def _top_of(idx: np.ndarray, vals: np.ndarray, m: int) -> np.ndarray:
    """The first ``m`` of ``idx`` by descending ``vals``, ties by ascending index.

    ``idx`` must be ascending and ``vals`` free of NaN.  The m-th largest
    value is picked from the top (negation is exact): a large tie block
    below the first ``m`` does not slow numpy's selection, one reaching
    into them does.  Everything strictly above that value is kept, then
    its ties in ascending index order, and only the kept entries are sorted.
    """
    if idx.size > m:
        kth = -np.partition(-vals, m - 1)[m - 1]
        keep = vals > kth
        keep[np.flatnonzero(vals == kth)[:m - np.count_nonzero(keep)]] = True
        idx, vals = idx[keep], vals[keep]
    return idx[np.argsort(-vals, kind="stable")]


def _first_of(member, scores: np.ndarray, m: int, stop: int) -> np.ndarray:
    """The first ``m`` documents whose score is a ``member``, in ascending order,
    read from ``scores[:stop]``, doubled until it holds ``m`` of them or all N.
    Any prefix holding ``m`` members has the same first ``m`` as the whole."""
    while True:
        idx = np.flatnonzero(member(scores[:stop]))
        if idx.size >= m or stop >= scores.size:
            return idx[:m]
        stop *= 2


def rank_from_scores(index: SparseScoreIndex, scores: np.ndarray, k: int,
                     query_id: str = "") -> RankedList:
    """Top-k ranking from a dense score vector, ties by ascending doc index.

    The ranking is the first ``k`` of a stable sort of ``-scores``, made
    without sorting all N documents.  Selection goes class by class
    (``_SCORE_CLASSES``) and stops once ``k`` documents are chosen:

    1. positive scores (``+inf`` included), exact top-k as in ``_top_of``;
    2. zero scores (``-0.0`` included), in ascending doc order;
    3. negative scores (``-inf`` included; DPH, or BM25 at q > 1 for a
       term with df > N/2), ranked like the positives;
    4. NaN scores last, in ascending doc order.

    A tied class is reached only when every member of the earlier classes
    is chosen, ``k - need`` of them, so ``scores[:k]`` holds at least
    ``need`` members of it or of a later class.  ``_first_of`` reads the
    class from there and grows the prefix only when negative or NaN scores
    leave it short, so the result is that of a full scan.
    """
    _check_k(k)
    parts = []
    need = k
    for member, tied in _SCORE_CLASSES:
        if tied:
            parts.append(_first_of(member, scores, need, k))
        else:
            idx = np.flatnonzero(member(scores))
            parts.append(_top_of(idx, scores[idx], need))
        need -= parts[-1].size
        if need == 0:
            break
    order = parts[0] if len(parts) == 1 else np.concatenate(parts)
    hits = zip([index.doc_ids[i] for i in order.tolist()], scores[order].tolist())
    return RankedList(query_id, list(hits))


def _check_k(k: int, name: str = "k") -> None:
    """ValueError unless the count ``k`` is >= 1; each CLI count runs it at parse time."""
    if k < 1:
        raise ValueError(f"{name} must be >= 1, got {k}")


def _position(scores: np.ndarray, i: int) -> int:
    """The 0-based place of document ``i`` in the order :func:`rank_from_scores`
    ranks by, a stable sort of ``-scores``: the two functions read one order,
    and a change to it changes both.  A number is preceded by every larger
    score and by its ties (``-0.0 == 0.0``) at a lower index; NaN by every
    number and by the NaNs at a lower index."""
    s = scores[i]
    if s != s:
        nan = np.isnan(scores)
        return scores.size - int(np.count_nonzero(nan)) + int(np.count_nonzero(nan[:i]))
    return int(np.count_nonzero(scores > s)) + int(np.count_nonzero(scores[:i] == s))


def rank_tokens(index: SparseScoreIndex, tokens: Sequence[str], k: int,
                query_id: str = "") -> RankedList:
    """Rank pre-tokenized query tokens: the scoring and ranking step of :func:`top_k`."""
    return rank_from_scores(index, score_query(index, tokens), k, query_id)


def top_k(index: SparseScoreIndex, query_text: str, mode: TokenizerMode,
          k: int, query_id: str = "") -> RankedList:
    """Tokenize ``query_text`` under ``mode`` and rank the top ``k`` documents.

    ``mode`` must equal the mode the index was built with; the query side
    uses the same bundled stopword list as the build side.
    """
    if mode is not index.header.mode:
        raise ModeMismatchError(
            f"query mode {mode.value} does not match index mode {index.header.mode.value}")
    return rank_tokens(index, tokenize(query_text, mode), k, query_id)


def batch_retrieve(index: SparseScoreIndex, queries: QuerySet, k: int) -> list[RankedList]:
    """Rank every query in order under the index's own mode; one RankedList per query.
    ValueError when ``k`` < 1, even with no query."""
    _check_k(k)
    mode = index.header.mode
    return [top_k(index, text, mode, k, query_id=qid) for qid, text in queries]


def format_trec_run(rankings: Iterable[RankedList]) -> str:
    """TREC-style run rows: query_id, doc_id, rank (1-based), score. TSV."""
    return "".join(["".join([f"{ranked.query_id}\t{doc_id}\t{rank}\t{score:.6f}\n"
                             for rank, (doc_id, score) in enumerate(ranked.hits, start=1)])
                    for ranked in rankings])
