"""Retrieval evaluation and the diagnostic harness.

Metrics: NDCG@k with linear gains ``rel / log2(rank + 1)``, MRR, Recall@k.
Queries with no positively judged document are skipped and counted, never
averaged in; rankings with no judged query at all are a ValueError.

Statistical comparison uses a seeded paired bootstrap over per-query
deltas.  Significance is the opposite-tail count on centered resamples:
a resample counts as a sign reversal when its mean delta falls on the
other side of zero from the observed mean (equivalently, its centered
value is at least as extreme as the observed mean in the opposing
direction).  With zero reversals out of R resamples the harness reports
``p <= 1/R`` and never prints a p below the empirical resolution 1e-4.

Diagnostics: exponent sweeps over one loaded baseline, document-frequency
bin occlusion, and recall under a retrieval token budget.  Sweep and
occlusion report only NDCG at ``NDCG_CUTOFF``, so they build no ranking:
they read each judged document's place in the ranking order from the scores
(``query._position``) and feed those places to the one NDCG body that
:func:`ndcg_at_k` feeds with the places of a ranking's hits.  Both
resolve each judged query once, in one step, to its matched columns and
its judged documents' doc indices.  The columns stay valid because an
index's structure never changes: the sweep scores them against every grid
point's rescaled scores, which share the baseline's structure, and the
occlusion drops a bin's columns, reading a column's df as its extent.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .corpus_io import Corpus, QuerySet, QrelSet
from .errors import QlexError
from .index import SparseScoreIndex
from .query import RankedList, _columns, _position, _score
from .query import batch_retrieve, rank_tokens  # noqa: F401  perfbench traces them here
from .storage import load_index
from .tokenizers import tokenize
from .transforms import _rescaled, rescale_index  # noqa: F401  perfbench traces rescale_index

__all__ = [
    "EvalReport", "BootstrapResult", "SweepTable",
    "NDCG_CUTOFF", "DEFAULT_Q_GRID", "DEFAULT_DF_BINS", "DEFAULT_TOKEN_BUDGETS",
    "ndcg_at_k", "mrr", "recall_at_k",
    "eval_ndcg", "eval_mrr", "eval_recall",
    "paired_bootstrap", "q_sweep", "df_bin_occlusion",
    "recall_at_token_budget",
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
        """Human-readable empirical p, floored at the bootstrap resolution.

        With zero reversals the bound is ``p <= max(1/R, 1e-4)``: 0.01 at
        R = 100, 1e-4 at the default R = 10,000 and beyond.
        """
        if self.sign_reversals == 0 and self.mean_delta != 0.0:
            floor = max(1.0 / self.resamples, 1e-4)
            shown = "1e-4" if floor == 1e-4 else f"{floor:.4g}"
            return f"p <= {shown} (empirical resolution)"
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


def _judged(items: Iterable, qrels: QrelSet,
            query_id: Callable[[object], str] = lambda entry: entry[0]) -> list:
    """The items (by default (query_id, text) pairs) whose query has a
    positively judged document, in order; ValueError when there is none."""
    judged = [item for item in items if qrels.has_relevant(query_id(item))]
    if not judged:
        raise ValueError("no query has a positively judged document")
    return judged


def _check_cutoff(k: int) -> None:
    if k < 1:
        raise ValueError(f"metric cutoff k must be >= 1, got {k}")


def ndcg_at_k(ranked: RankedList, qrels: QrelSet, k: int = NDCG_CUTOFF) -> float:
    """NDCG@k with linear gains; the ideal ranking sorts judged relevance."""
    _check_cutoff(k)
    rels = _gains(qrels, ranked.query_id)
    return _ndcg(((i, rels.get(doc_id, 0)) for i, (doc_id, _) in enumerate(ranked.hits[:k])),
                 rels, k)


def _ndcg(placed: Iterable[tuple[int, int]], rels: Mapping[str, int], k: int) -> float:
    """The one NDCG body: the DCG of ``placed``, (0-based place, relevance)
    pairs in ascending place order with every place below ``k``, over the
    ideal DCG of the positive gains ``rels``."""
    dcg = 0.0
    for place, rel in placed:
        if rel:
            dcg += rel / math.log2(place + 2)
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
    rankings = list(rankings)
    judged = _judged(rankings, qrels, query_id=lambda ranked: ranked.query_id)
    per_query = {ranked.query_id: scorer(ranked) for ranked in judged}
    return EvalReport(per_query=per_query, mean=float(np.mean(list(per_query.values()))),
                      n_queries=len(per_query), n_skipped=len(rankings) - len(judged))


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

    The baseline is loaded once and never written: each grid point scores a
    view of it that holds that point's rescaled scores and header, and a DPH
    or already-rescaled baseline is refused as :func:`rescale_index` refuses
    it.  Ties on the mean prefer the larger exponent (the one closer to plain
    BM25).  ValueError, before any load, when no query has a positively
    judged document.
    """
    if not grid:
        raise ValueError("sweep grid must be non-empty")
    judged = _judged(queries, qrels)
    base = load_index(base_index_path)
    resolved = _resolve(base, qrels, judged)
    rows: list[tuple[float, float]] = []
    index = copy.copy(base)  # not dataclasses.replace: it would rebuild vocab
    for q in grid:
        index.scores, index.header = _rescaled(base, "q", q) or (base.scores, base.header)
        ndcgs = [_ndcg_of_scores(_score(index, columns), docs) for columns, docs in resolved]
        rows.append((float(q), float(np.mean(ndcgs))))
    q_opt, best = rows[0]
    for q, mean in rows[1:]:
        if mean > best or (mean == best and q > q_opt):
            q_opt, best = q, mean
    return SweepTable(rows=rows, q_opt=q_opt)


def df_bin_occlusion(index: SparseScoreIndex, queries: QuerySet, qrels: QrelSet,
                     bins: Sequence[tuple[int, int | None]] = DEFAULT_DF_BINS
                     ) -> list[tuple[tuple[int, int | None], float]]:
    """Mean NDCG@10 loss from removing each df bin's tokens from queries.

    ValueError unless ``bins`` are non-empty, ascending, disjoint inclusive
    ranges from df 1 with only the last one open.  ``index`` is ranked as it
    is and left unchanged; rescale it first to measure another operating
    point.  A query with no tokens in a bin contributes zero loss for that
    bin.  Losses are not clamped: a negative mean means removing that bin
    helped.
    """
    ends = [0] + [hi for _, hi in bins]  # the end of the bin before each bin
    if not bins or not all(end is not None and end < lo and (hi is None or lo <= hi)
                           for (lo, hi), end in zip(bins, ends)):
        raise ValueError("df bins must be non-empty, ascending and disjoint from 1, with "
                         f"only the last one open; got {list(bins)}")
    judged = _judged(queries, qrels)
    losses = {b: 0.0 for b in bins}
    for columns, docs in _resolve(index, qrels, judged):
        full = _ndcg_of_scores(_score(index, columns), docs)
        dfs = [end - start for start, end, _ in columns]
        for lo, hi in bins:
            kept = [column for column, df in zip(columns, dfs)
                    if not (lo <= df and (hi is None or df <= hi))]
            if len(kept) == len(columns):
                continue
            losses[(lo, hi)] += full - _ndcg_of_scores(_score(index, kept), docs)
    return [((lo, hi), losses[(lo, hi)] / len(judged)) for lo, hi in bins]


def _resolve(index: SparseScoreIndex, qrels: QrelSet,
             judged: Sequence[tuple[str, str]]) -> list[tuple]:
    """The one resolution of judged (query_id, text) pairs against ``index``,
    per pair in order: its ``query._columns`` under the index's mode, and its
    positive gains with the doc indices and gains of those judged documents
    that ``index`` holds.  Only the judged doc ids are mapped, in one pass."""
    gains = [_gains(qrels, qid) for qid, _ in judged]
    wanted = set().union(*gains)
    at = {doc_id: i for i, doc_id in enumerate(index.doc_ids) if doc_id in wanted}
    mode = index.header.mode
    out = []
    for (_, text), rels in zip(judged, gains):
        held = [(at[doc_id], rel) for doc_id, rel in rels.items() if doc_id in at]
        out.append((_columns(index, tokenize(text, mode)),
                    (rels, np.array([i for i, _ in held], dtype=np.intp), [r for _, r in held])))
    return out


def _ndcg_of_scores(scores: np.ndarray, docs: tuple) -> float:
    """NDCG@``NDCG_CUTOFF`` of the ranking of ``scores``, read from the places
    of the judged documents (``docs``, from :func:`_resolve`) and not from
    a ranking: they are visited in ranking order, so the walk stops at the
    first whose place is not below the cutoff, after at most
    ``NDCG_CUTOFF + 1`` counting passes over ``scores``."""
    rels, held, gains = docs
    placed = []
    for j in np.lexsort((held, -scores[held])).tolist():
        place = _position(scores, held[j])
        if place >= NDCG_CUTOFF:
            break
        placed.append((place, gains[j]))
    return _ndcg(placed, rels, NDCG_CUTOFF)


def recall_at_token_budget(rankings: Iterable[RankedList], qrels: QrelSet,
                           budgets: Sequence[int], corpus: Corpus) -> list[tuple[int, float]]:
    """Recall under a reading budget of K whitespace-split tokens of ``corpus``.

    Walk each ranking top-down accumulating each hit's token count,
    ``len(corpus.text(doc_id).split())``, read only for the hits walked; a
    ranked doc id missing from ``corpus`` is a QlexError.  A query is
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
    judged = _judged(rankings, qrels, lambda ranked: ranked.query_id)
    costs: list[float] = []
    for ranked in judged:
        rels = qrels.relevant_docs(ranked.query_id)
        cumulative = 0
        cost = math.inf
        for doc_id, _ in ranked.hits:
            try:
                cumulative += len(corpus.text(doc_id).split())
            except KeyError:
                raise QlexError(f"ranked doc id {doc_id!r} is not in the budget corpus "
                                f"{corpus.path or '(in memory)'}") from None
            if doc_id in rels:
                cost = cumulative
                break
        costs.append(cost)
    return [(int(k_budget), sum(1 for c in costs if c <= k_budget) / len(judged))
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


def _q_text(q: float) -> str:
    """A swept q as the CSV and ``q_opt=`` print it: ``.2f`` if that reads
    back to q, else the shortest text that does."""
    text = f"{q:.2f}"
    return text if float(text) == q else repr(float(q))


def sweep_to_csv(table: SweepTable) -> str:
    lines = ["q,mean_ndcg"]
    lines.extend(f"{_q_text(q)},{mean:.6f}" for q, mean in table.rows)
    return "\n".join(lines) + "\n"
