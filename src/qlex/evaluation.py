"""Retrieval evaluation and the diagnostic harness.

Metrics: NDCG@k with linear gains ``rel / log2(rank + 1)``, MRR, Recall@k.
Queries with no positively judged document are skipped and counted, never
averaged in.

Statistical comparison uses a seeded paired bootstrap over per-query
deltas.  Significance is the opposite-tail count on centered resamples:
a resample counts as a sign reversal when its mean delta falls on the
other side of zero from the observed mean (equivalently, its centered
value is at least as extreme as the observed mean in the opposing
direction).  With zero reversals out of R resamples the harness reports
``p <= 1/R`` and never prints a p below the empirical resolution 1e-4.

Diagnostics: exponent sweeps over copies of one loaded baseline (the
rescale is destructive), document-frequency-bin occlusion, and recall
under a retrieval token budget.  Sweep and occlusion report only NDCG at
``NDCG_CUTOFF``, so they rank each query to that depth and no deeper: the
ranking is exact with ties by ascending doc index, so its first
``NDCG_CUTOFF`` hits are those of any deeper ranking.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .corpus_io import Corpus, QuerySet, QrelSet
from .errors import QlexError, RescaleStateError
from .index import SparseScoreIndex
from .query import RankedList, batch_retrieve, rank_tokens
from .storage import load_index
from .tokenizers import tokenize
from .transforms import rescale_index

__all__ = [
    "EvalReport", "BootstrapResult", "SweepTable",
    "NDCG_CUTOFF", "DEFAULT_Q_GRID", "DEFAULT_DF_BINS", "DEFAULT_TOKEN_BUDGETS",
    "ndcg_at_k", "mrr", "recall_at_k",
    "eval_ndcg", "eval_mrr", "eval_recall",
    "paired_bootstrap", "q_sweep", "df_bin_occlusion",
    "recall_at_token_budget", "whitespace_token_counter",
    "report_to_tsv", "report_to_json", "sweep_to_csv",
]

# The one NDCG depth: eval's ndcg@10, the sweep and the occlusion losses.
NDCG_CUTOFF = 10

DEFAULT_Q_GRID: tuple[float, ...] = (0.05, 0.10, 0.20, 0.30, 0.50, 0.70, 0.90, 1.00)

# Inclusive df ranges; None closes the last bin at infinity.
DEFAULT_DF_BINS: tuple[tuple[int, int | None], ...] = (
    (1, 1), (2, 2), (3, 5), (6, 20), (21, 50),
    (51, 200), (201, 1000), (1001, 5000), (5001, None),
)

DEFAULT_TOKEN_BUDGETS: tuple[int, ...] = (2048, 4096, 8192, 16384)


@dataclass
class EvalReport:
    """Per-query metric values plus their arithmetic mean.

    ``n_queries`` counts evaluated queries; ``n_skipped`` counts queries
    dropped for lack of a positively judged document.
    """

    per_query: dict[str, float]
    mean: float
    n_queries: int
    n_skipped: int = 0


@dataclass
class BootstrapResult:
    """Paired bootstrap outcome for mean(metric_b) - mean(metric_a)."""

    mean_delta: float
    ci_lo: float
    ci_hi: float
    sign_reversals: int
    resamples: int
    seed: int

    def p_label(self) -> str:
        """Human-readable empirical p, floored at the bootstrap resolution."""
        if self.sign_reversals == 0 and self.mean_delta != 0.0:
            return "p <= 1e-4 (empirical resolution)"
        p = max(self.sign_reversals / self.resamples, 1e-4)
        return f"p = {p:.4f}"


@dataclass
class SweepTable:
    """Exponent sweep rows (q, mean NDCG@10) and the winning exponent."""

    rows: list[tuple[float, float]]
    q_opt: float


# ---------------------------------------------------------------- metrics

def _gains(qrels: QrelSet, query_id: str) -> dict[str, int]:
    rels = qrels.relevant_docs(query_id)
    if not rels:
        raise ValueError(f"query {query_id!r} has no positively judged document")
    return rels


def _check_cutoff(k: int) -> None:
    if k < 1:
        raise ValueError(f"metric cutoff k must be >= 1, got {k}")


def ndcg_at_k(ranked: RankedList, qrels: QrelSet, k: int = NDCG_CUTOFF) -> float:
    """NDCG@k with linear gains; the ideal ranking sorts judged relevance."""
    _check_cutoff(k)
    rels = _gains(qrels, ranked.query_id)
    dcg = 0.0
    for i, (doc_id, _) in enumerate(ranked.hits[:k]):
        rel = rels.get(doc_id, 0)
        if rel:
            dcg += rel / math.log2(i + 2)
    idcg = sum(rel / math.log2(i + 2)
               for i, rel in enumerate(sorted(rels.values(), reverse=True)[:k]))
    return dcg / idcg


def mrr(ranked: RankedList, qrels: QrelSet) -> float:
    """Reciprocal rank of the first relevant hit; 0 when none is retrieved."""
    rels = _gains(qrels, ranked.query_id)
    for i, (doc_id, _) in enumerate(ranked.hits):
        if doc_id in rels:
            return 1.0 / (i + 1)
    return 0.0


def recall_at_k(ranked: RankedList, qrels: QrelSet, k: int) -> float:
    """Fraction of judged-relevant documents present in the top k."""
    _check_cutoff(k)
    rels = _gains(qrels, ranked.query_id)
    top = set(doc_id for doc_id, _ in ranked.hits[:k])
    return sum(1 for d in rels if d in top) / len(rels)


def _aggregate(rankings: Iterable[RankedList], qrels: QrelSet,
               scorer: Callable[[RankedList], float]) -> EvalReport:
    per_query: dict[str, float] = {}
    skipped = 0
    for ranked in rankings:
        if not qrels.has_relevant(ranked.query_id):
            skipped += 1
            continue
        per_query[ranked.query_id] = scorer(ranked)
    mean = float(np.mean(list(per_query.values()))) if per_query else 0.0
    return EvalReport(per_query=per_query, mean=mean,
                      n_queries=len(per_query), n_skipped=skipped)


def eval_ndcg(rankings: Iterable[RankedList], qrels: QrelSet,
              k: int = NDCG_CUTOFF) -> EvalReport:
    return _aggregate(rankings, qrels, lambda r: ndcg_at_k(r, qrels, k))


def eval_mrr(rankings: Iterable[RankedList], qrels: QrelSet) -> EvalReport:
    return _aggregate(rankings, qrels, lambda r: mrr(r, qrels))


def eval_recall(rankings: Iterable[RankedList], qrels: QrelSet, k: int) -> EvalReport:
    return _aggregate(rankings, qrels, lambda r: recall_at_k(r, qrels, k))


# -------------------------------------------------------------- bootstrap

def paired_bootstrap(metric_a: Mapping[str, float], metric_b: Mapping[str, float],
                     resamples: int = 10_000, seed: int = 0) -> BootstrapResult:
    """Percentile bootstrap over per-query deltas ``b - a``.

    Both mappings must cover the same query ids.  Queries are resampled
    with replacement in sorted-id order from a single seeded generator, so
    results are reproducible bit for bit regardless of chunking or thread
    count.  The CI is the 2.5/97.5 percentile pair of resample means.
    """
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    keys = sorted(metric_a)
    if set(keys) != set(metric_b):
        raise ValueError("paired bootstrap requires identical query keysets")
    if not keys:
        raise ValueError("paired bootstrap requires at least one query")
    deltas = np.array([metric_b[k] - metric_a[k] for k in keys], dtype=np.float64)
    observed = float(deltas.mean())

    rng = np.random.default_rng(seed)
    n = deltas.shape[0]
    means = np.empty(resamples, dtype=np.float64)
    done = 0
    while done < resamples:
        m = min(1024, resamples - done)
        idx = rng.integers(0, n, size=(m, n))
        means[done:done + m] = deltas[idx].mean(axis=1)
        done += m

    ci_lo, ci_hi = np.percentile(means, [2.5, 97.5])
    if observed > 0.0:
        reversals = int((means <= 0.0).sum())
    elif observed < 0.0:
        reversals = int((means >= 0.0).sum())
    else:
        # No direction to reverse; every resample is as extreme as observed.
        reversals = resamples
    return BootstrapResult(mean_delta=observed, ci_lo=float(ci_lo), ci_hi=float(ci_hi),
                           sign_reversals=reversals, resamples=resamples, seed=seed)


# ------------------------------------------------------------ diagnostics

def q_sweep(base_index_path: str | Path, queries: QuerySet, qrels: QrelSet,
            grid: Sequence[float] = DEFAULT_Q_GRID) -> SweepTable:
    """Mean NDCG@10 across an exponent grid.

    The baseline is loaded once; since the rescale is in place, each grid
    point rescales a copy with its own scores and header, and
    :func:`rescale_index` refuses a DPH or already-rescaled baseline.  Ties
    on the mean prefer the larger exponent (the one closer to plain BM25).
    """
    if not grid:
        raise ValueError("sweep grid must be non-empty")
    base = load_index(base_index_path)
    rows: list[tuple[float, float]] = []
    for q in grid:
        index = dataclasses.replace(base, scores=base.scores.copy(),
                                    header=dataclasses.replace(base.header))
        rescale_index(index, q)
        rankings = batch_retrieve(index, queries, index.header.mode, NDCG_CUTOFF)
        rows.append((float(q), eval_ndcg(rankings, qrels, NDCG_CUTOFF).mean))
    q_opt, best = rows[0]
    for q, mean in rows[1:]:
        if mean > best or (mean == best and q > q_opt):
            q_opt, best = q, mean
    return SweepTable(rows=rows, q_opt=q_opt)


def _bin_contains(lo: int, hi: int | None, df: int) -> bool:
    return df >= lo and (hi is None or df <= hi)


def df_bin_occlusion(index: SparseScoreIndex, queries: QuerySet, qrels: QrelSet,
                     bins: Sequence[tuple[int, int | None]] = DEFAULT_DF_BINS,
                     q: float | None = None) -> list[tuple[tuple[int, int | None], float]]:
    """Mean NDCG@10 loss from removing each df bin's tokens from queries.

    ``q`` moves a pristine index to the requested operating point first (or
    validates an already-rescaled index).  A query with no tokens in a bin
    contributes zero loss for that bin.  Losses are not clamped: a negative
    mean means removing that bin helped.
    """
    if q is not None:
        applied = index.header.applied_q
        if applied is None:
            rescale_index(index, q)  # identity at q = 1.0
        elif applied != q:
            raise RescaleStateError(
                f"index already rescaled at q={applied}, cannot occlude at q={q}")
    mode = index.header.mode
    losses = {b: 0.0 for b in bins}
    n_eval = 0
    for qid, text in queries:
        if not qrels.has_relevant(qid):
            continue
        n_eval += 1
        tokens = tokenize(text, mode)
        full = ndcg_at_k(rank_tokens(index, tokens, NDCG_CUTOFF, qid), qrels, NDCG_CUTOFF)
        dfs = [index.df[index.vocab[t]] if t in index.vocab else 0 for t in tokens]
        for lo, hi in bins:
            kept = [t for t, d in zip(tokens, dfs) if not (d and _bin_contains(lo, hi, d))]
            if len(kept) == len(tokens):
                continue
            occluded = ndcg_at_k(rank_tokens(index, kept, NDCG_CUTOFF, qid), qrels,
                                 NDCG_CUTOFF)
            losses[(lo, hi)] += full - occluded
    if n_eval == 0:
        raise ValueError("no query has a positively judged document")
    return [((lo, hi), losses[(lo, hi)] / n_eval) for lo, hi in bins]


def whitespace_token_counter(corpus: Corpus) -> Callable[[str], int]:
    """Default budget counter: whitespace-split token count per doc id, counted lazily."""
    cache: dict[str, int] = {}

    def count(doc_id: str) -> int:
        if doc_id not in cache:
            try:
                text = corpus.text(doc_id)
            except KeyError:
                raise QlexError(f"ranked doc id {doc_id!r} is not in the budget corpus "
                                f"{corpus.path or '(in memory)'}") from None
            cache[doc_id] = len(text.split())
        return cache[doc_id]

    return count


def recall_at_token_budget(rankings: Iterable[RankedList], qrels: QrelSet,
                           budgets: Sequence[int],
                           counter: Callable[[str], int]) -> list[tuple[int, float]]:
    """Recall under a reading budget of K tokens.

    Walk each ranking top-down accumulating ``counter(doc_id)``; a query is
    recalled at budget K when the cumulative count up to and including the
    first relevant document does not exceed K, so a relevant document below
    the ranking's depth is never recalled.  Budgets must be ascending;
    recall is then monotone in K by construction.
    """
    budgets = list(budgets)
    if not budgets or any(b <= 0 for b in budgets):
        raise ValueError("budgets must be positive")
    if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ValueError("budgets must be strictly ascending")
    costs: list[float] = []
    n_eval = 0
    for ranked in rankings:
        if not qrels.has_relevant(ranked.query_id):
            continue
        n_eval += 1
        rels = qrels.relevant_docs(ranked.query_id)
        cumulative = 0
        cost = math.inf
        for doc_id, _ in ranked.hits:
            cumulative += counter(doc_id)
            if doc_id in rels:
                cost = cumulative
                break
        costs.append(cost)
    if n_eval == 0:
        raise ValueError("no query has a positively judged document")
    return [(int(k_budget), sum(1 for c in costs if c <= k_budget) / n_eval)
            for k_budget in budgets]


# ---------------------------------------------------------------- reports

def report_to_tsv(reports: Mapping[str, EvalReport]) -> str:
    """Per-query TSV with one metric per column plus a mean row."""
    names = list(reports)
    qids = sorted({qid for rep in reports.values() for qid in rep.per_query})
    lines = ["query_id\t" + "\t".join(names)]
    for qid in qids:
        cells = [f"{reports[m].per_query[qid]:.6f}" if qid in reports[m].per_query else ""
                 for m in names]
        lines.append(qid + "\t" + "\t".join(cells))
    lines.append("mean\t" + "\t".join(f"{reports[m].mean:.6f}" for m in names))
    return "\n".join(lines) + "\n"


def report_to_json(reports: Mapping[str, EvalReport],
                   bootstrap: BootstrapResult | None = None) -> str:
    payload: dict = {
        name: {
            "mean": rep.mean,
            "n_queries": rep.n_queries,
            "n_skipped": rep.n_skipped,
            "per_query": rep.per_query,
        }
        for name, rep in reports.items()
    }
    if bootstrap is not None:
        payload["bootstrap"] = {
            "mean_delta": bootstrap.mean_delta,
            "ci_lo": bootstrap.ci_lo,
            "ci_hi": bootstrap.ci_hi,
            "sign_reversals": bootstrap.sign_reversals,
            "resamples": bootstrap.resamples,
            "seed": bootstrap.seed,
            "p": bootstrap.p_label(),
        }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def sweep_to_csv(table: SweepTable) -> str:
    lines = ["q,mean_ndcg"]
    lines.extend(f"{q:.2f},{mean:.6f}" for q, mean in table.rows)
    return "\n".join(lines) + "\n"
