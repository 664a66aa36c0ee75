"""Independent reference implementations used as test oracles.

Everything here is deliberately written as plain-Python dict/loop code,
a different code path from the vectorized CSC package internals.  The
per-term products are narrowed to float32 (the index storage width) before
float64 accumulation, mirroring the documented storage contract.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np

from qlex.errors import DuplicateIdError, ParseError
from qlex.index import rsj_idf
from qlex.query import batch_retrieve, rank_tokens
from qlex.stats import CorpusStats
from qlex.tokenizers import (_CAMEL_RE, _SEP_RE, TokenizerMode, default_stopwords,
                             surface_tokens, tokenize)
from qlex.transforms import ln_q, rescale_index


def lucene_idf(df: int, n_docs: int) -> float:
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def qlog_idf(df: int, n_docs: int, q: float) -> float:
    odds = (n_docs - df + 0.5) / (df + 0.5)
    if abs(q - 1.0) < 1e-9:
        return math.log(odds)
    return (odds ** (1.0 - q) - 1.0) / (1.0 - q)


def _doc_stats(doc_tokens: list[list[str]]):
    n_docs = len(doc_tokens)
    dfs: Counter = Counter()
    for toks in doc_tokens:
        dfs.update(set(toks))
    avg_len = sum(len(t) for t in doc_tokens) / n_docs
    return n_docs, dfs, avg_len


def bm25_scores(doc_tokens: list[list[str]], query_tokens: list[str],
                k1: float = 1.5, b: float = 0.75,
                idf_fn=None) -> list[float]:
    """Direct BM25 evaluation; idf_fn defaults to the Lucene shifted IDF."""
    n_docs, dfs, avg_len = _doc_stats(doc_tokens)
    if idf_fn is None:
        idf_fn = lambda df: lucene_idf(df, n_docs)
    out = []
    for toks in doc_tokens:
        counts = Counter(toks)
        dl = len(toks)
        score = 0.0
        for term in query_tokens:
            tf = counts.get(term, 0)
            if tf == 0 or dfs[term] == 0:
                continue
            factor = tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * (dl / avg_len)))
            score += float(np.float32(idf_fn(dfs[term]) * factor))
        out.append(score)
    return out


def qlog_bm25_scores(doc_tokens: list[list[str]], query_tokens: list[str],
                     q: float, k1: float = 1.5, b: float = 0.75) -> list[float]:
    n_docs, _, _ = _doc_stats(doc_tokens)
    return bm25_scores(doc_tokens, query_tokens, k1, b,
                       idf_fn=lambda df: qlog_idf(df, n_docs, q))


def dph_scores(doc_tokens: list[list[str]], query_tokens: list[str]) -> list[float]:
    """Direct DPH evaluation (hypergeometric DFR approximation)."""
    n_docs, dfs, avg_len = _doc_stats(doc_tokens)
    coll_freq: Counter = Counter()
    for toks in doc_tokens:
        coll_freq.update(toks)
    out = []
    for toks in doc_tokens:
        counts = Counter(toks)
        dl = len(toks)
        score = 0.0
        for term in query_tokens:
            tf = counts.get(term, 0)
            if tf == 0:
                continue
            f = min(tf / dl, 1.0 - 1e-9)
            norm = (1.0 - f) ** 2 / (tf + 1.0)
            info = tf * math.log2((tf * avg_len / dl) * (n_docs / coll_freq[term]))
            entry = norm * (info + 0.5 * math.log2(2.0 * math.pi * tf * (1.0 - f)))
            score += float(np.float32(entry))
        out.append(score)
    return out


def bm25_bake_whole(counts, k1: float, b: float) -> np.ndarray:
    """The BM25 bake as one float64 expression over all entries of ``counts``,
    narrowed once; the run-by-run bake must give the same bytes."""
    tfs = counts.tfs.astype(np.float64)
    idf = rsj_idf(counts.df, counts.num_docs)[1]
    length_norm = 1.0 - b + b * (counts.doc_lens[counts.rows] / counts.avg_len)
    weights = np.repeat(idf, counts.df) * (tfs * (k1 + 1.0) / (tfs + k1 * length_norm))
    return weights.astype(np.float32)


def dph_bake_whole(counts) -> np.ndarray:
    """The DPH bake as one float64 expression over all entries, narrowed once."""
    tfs, avg_len, num_docs = counts.tfs.astype(np.float64), counts.avg_len, counts.num_docs
    dl = counts.doc_lens[counts.rows].astype(np.float64)
    coll_freq = np.repeat(np.add.reduceat(tfs, counts.col_ptr[:-1]), counts.df)
    f = np.minimum(tfs / dl, 1.0 - 1e-9)
    norm = (1.0 - f) ** 2 / (tfs + 1.0)
    info = tfs * np.log2((tfs * avg_len / dl) * (num_docs / coll_freq))
    weights = norm * (info + 0.5 * np.log2(2.0 * math.pi * tfs * (1.0 - f)))
    return weights.astype(np.float32)


def rescale_whole(index, name: str, value: float) -> np.ndarray:
    """The ``name`` = ``value`` rescale of every score at once, narrowed once;
    non-finite where the rescale must refuse."""
    odds, idf = rsj_idf(index.df, index.num_docs)
    with np.errstate(over="ignore", invalid="ignore"):
        factors = ln_q(odds, value) / idf if name == "q" else np.power(idf, value - 1.0)
        rescaled = index.scores.astype(np.float64)
        rescaled *= np.repeat(factors, index.df)
        return rescaled.astype(np.float32)


def csc_by_counters(doc_tokens: list[list[str]]):
    """Reference CSC assembly from one ``Counter`` per document.

    Returns ``(terms, col_ptr, row_idx, tfs, doc_lens)`` with a sorted
    vocabulary and, inside each column, ascending document rows.
    """
    counters = [Counter(toks) for toks in doc_tokens]
    terms = sorted(set().union(*counters))
    vocab = {t: i for i, t in enumerate(terms)}
    columns: list[list[tuple[int, int]]] = [[] for _ in terms]
    for d, counter in enumerate(counters):
        for term, tf in counter.items():
            columns[vocab[term]].append((d, tf))
    col_ptr = [0]
    row_idx: list[int] = []
    tfs: list[int] = []
    for entries in columns:
        for d, tf in entries:
            row_idx.append(d)
            tfs.append(tf)
        col_ptr.append(len(row_idx))
    return terms, col_ptr, row_idx, tfs, [len(toks) for toks in doc_tokens]


def corpus_stats_by_counters(doc_tokens: list[list[str]]):
    """Reference ``CorpusStats`` from per-document ``Counter`` totals."""
    type_totals: Counter = Counter()
    for toks in doc_tokens:
        type_totals.update(toks)
    n_tok = sum(len(toks) for toks in doc_tokens)
    hapax_types = sum(1 for c in type_totals.values() if c == 1)
    return CorpusStats(n_tok=n_tok, hapax_types=hapax_types)


def rank_by_full_sort(scores: np.ndarray, k: int) -> np.ndarray:
    """Top-k doc indices by a stable sort of all N negated scores.

    Ties keep ascending doc order and NaN sorts last; the partial top-k
    in ``qlex.query`` must reproduce this order exactly.
    """
    return np.argsort(-scores, kind="stable")[:k]


def score_by_scatter(index, tokens) -> np.ndarray:
    """Dense float64 scores by scatter-adding one matched column at a time.

    Columns are visited in first-occurrence order of the query tokens; the
    vectorized ``qlex.query.score_query`` must give the same bytes.
    """
    scores = np.zeros(index.num_docs, dtype=np.float64)
    for term, mult in Counter(tokens).items():
        tid = index.vocab.get(term)
        if tid is None:
            continue
        start, end = index.col_ptr[tid], index.col_ptr[tid + 1]
        contrib = index.scores[start:end].astype(np.float64)
        if mult != 1:
            contrib *= mult
        scores[index.row_idx[start:end]] += contrib
    return scores


def split_identifier_by_chunks(token: str) -> list[str]:
    """Identifier parts by cutting at separators first, then splitting each
    ASCII chunk on camelCase/digit boundaries; non-ASCII chunks stay whole."""
    if not token:
        raise ValueError("cannot split an empty token")
    parts: list[str] = []
    for chunk in _SEP_RE.split(token):
        if not chunk:
            continue
        if chunk.isascii():
            parts.extend(m.group(0).lower() for m in _CAMEL_RE.finditer(chunk))
        else:
            parts.append(chunk.lower())
    return parts


_WORD_RUN = re.compile(r"\b\w\w+\b")


def word_surfaces_by_regex(text: str) -> list[str]:
    """Word-character runs of length >= 2, by one regex over any text."""
    return _WORD_RUN.findall(text)


def tokenize_by_regex(text: str, mode: TokenizerMode) -> list[str]:
    """Every mode's tokens with words found by the regex alone: T0 over the
    lowercased text, T2/T3 surfaces emitted by ``surface_tokens``."""
    if mode is TokenizerMode.T0:
        sw = default_stopwords()
        return [w for w in _WORD_RUN.findall(text.lower()) if w not in sw]
    if mode is TokenizerMode.T1:
        return text.lower().split()
    return [tok for raw in _WORD_RUN.findall(text) for tok in surface_tokens(raw, mode)]


def jsonl_entries_by_loads(path: Path, id_key: str) -> tuple[list[tuple[str, str]], list[int]]:
    """(id, text) entries and their 1-based lines, one ``json.loads`` per
    non-blank line; a bad line raises the loaders' ParseError for it."""
    entries: list[tuple[str, str]] = []
    lines: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise ParseError(f"invalid JSON ({getattr(exc, 'msg', exc)})", path=str(path),
                                 line=lineno) from None
            if not isinstance(record, dict):
                raise ParseError("record is not a JSON object", path=str(path), line=lineno)
            for key in (id_key, "text"):
                if not isinstance(record.get(key), str):
                    raise ParseError(f"missing or non-string field {key!r}",
                                     path=str(path), line=lineno)
            entries.append((record[id_key], record["text"]))
            lines.append(lineno)
    return entries, lines


def check_ids_by_loop(kind: str, ids, path: str | None, lines) -> None:
    """Check the ids one at a time in order: the first empty id or id holding
    whitespace (ParseError) or repeated id (DuplicateIdError) raises, naming
    ``path`` and its line from ``lines``, or its position when ``lines`` is
    None."""
    seen: set[str] = set()
    for i, ident in enumerate(ids):
        line = None if lines is None else lines[i]
        where = "" if line is not None else f" at position {i}"
        if not ident:
            raise ParseError(f"empty {kind}{where}", path=path, line=line)
        if any(ch.isspace() for ch in ident):
            raise ParseError(f"{kind} {ident!r}{where} holds whitespace", path=path, line=line)
        if ident in seen:
            raise DuplicateIdError(kind, ident, path=path, line=line)
        seen.add(ident)


def ndcg_by_hand(ranked_doc_ids: list[str], rels: dict[str, int], k: int) -> float:
    dcg = sum(rels.get(d, 0) / math.log2(i + 2)
              for i, d in enumerate(ranked_doc_ids[:k]))
    ideal = sorted((r for r in rels.values() if r > 0), reverse=True)[:k]
    idcg = sum(r / math.log2(i + 2) for i, r in enumerate(ideal))
    return dcg / idcg


def sweep_by_batch_retrieve(base, queries, qrels, grid):
    """Sweep rows and q_opt by re-ranking every query through ``batch_retrieve``
    at depth 10 on a rescaled copy of the baseline index at each grid point;
    ties on the mean prefer the larger q.  ``qlex.evaluation.q_sweep`` must
    give the same rows and q_opt exactly."""
    rows = []
    for q in grid:
        index = rescale_index(dataclasses.replace(base, scores=base.scores.copy()), q)
        ndcgs = [ndcg_by_hand(ranked.doc_ids(), qrels.relevant_docs(ranked.query_id), 10)
                 for ranked in batch_retrieve(index, queries, 10)
                 if qrels.has_relevant(ranked.query_id)]
        rows.append((float(q), float(np.mean(ndcgs))))
    q_opt, best = rows[0]
    for q, mean in rows[1:]:
        if mean > best or (mean == best and q > q_opt):
            q_opt, best = q, mean
    return rows, q_opt


def occlusion_by_tokens(index, queries, qrels, bins):
    """Mean NDCG@10 loss per df bin by dropping the bin's query tokens, each
    token's df looked up on its own, and ranking the kept tokens again with
    ``rank_tokens``; a query with no token in a bin adds no loss.
    ``qlex.evaluation.df_bin_occlusion`` must give the same rows exactly."""
    judged = [(qid, text) for qid, text in queries if qrels.has_relevant(qid)]
    losses = {b: 0.0 for b in bins}
    for qid, text in judged:
        rels = qrels.relevant_docs(qid)
        tokens = tokenize(text, index.header.mode)
        full = ndcg_by_hand(rank_tokens(index, tokens, 10, qid).doc_ids(), rels, 10)
        dfs = [index.df[index.vocab[t]] if t in index.vocab else 0 for t in tokens]
        for lo, hi in bins:
            kept = [t for t, d in zip(tokens, dfs) if not (lo <= d and (hi is None or d <= hi))]
            if len(kept) == len(tokens):
                continue
            losses[(lo, hi)] += full - ndcg_by_hand(rank_tokens(index, kept, 10, qid).doc_ids(),
                                                    rels, 10)
    return [((lo, hi), losses[(lo, hi)] / len(judged)) for lo, hi in bins]


def eval_by_batch_retrieve(index, queries, qrels, k, budgets=(), corpus=None):
    """``qlex eval``'s per-query NDCG@10, MRR and recall@k, keyed by report
    name, and its (budget, recall) rows, by plain loops over the
    ``batch_retrieve`` rankings at depth ``max(k, 100)`` of the queries with
    a positive judgment.  A query's token cost is the sum of the
    whitespace-split lengths of ``corpus``'s texts of its hits down to the
    first relevant one; it is never recalled when none is ranked."""
    ndcg, rr, recall, costs = {}, {}, {}, []
    text_of = dict(zip(corpus.ids, corpus.texts)) if budgets else {}
    for ranked in batch_retrieve(index, queries, max(k, 100)):
        rels = qrels.relevant_docs(ranked.query_id)
        if not rels:
            continue
        ids = ranked.doc_ids()
        ndcg[ranked.query_id] = ndcg_by_hand(ids, rels, 10)
        rr[ranked.query_id] = 0.0
        for rank, doc_id in enumerate(ids, start=1):
            if doc_id in rels:
                rr[ranked.query_id] = 1.0 / rank
                break
        recall[ranked.query_id] = sum(1 for doc_id in ids[:k] if doc_id in rels) / len(rels)
        cost, total = math.inf, 0
        for doc_id in ids if budgets else []:
            total += len(text_of[doc_id].split())
            if doc_id in rels:
                cost = total
                break
        costs.append(cost)
    rows = [(budget, sum(1 for cost in costs if cost <= budget) / len(costs))
            for budget in budgets]
    return {"ndcg@10": ndcg, "mrr": rr, f"recall@{k}": recall}, rows
