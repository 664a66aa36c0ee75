"""Retrieval evaluation and diagnostics: NDCG@k, MRR and recall@k, read from the
places of each query's positively judged documents in the order ``search`` ranks
by; the paired bootstrap, the q sweep, df-bin occlusion and token-budget recall.
A query with no positively judged document is skipped and counted, and a report
with no judged query is a ValueError.  README's "Evaluation conventions" states the rest.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus_io import Corpus, QuerySet, QrelSet
from .errors import QlexError
from .index import SparseScoreIndex, _check_mark
from .query import RankedList, _check_k, _columns, _position, _score
from .query import batch_retrieve, rank_tokens  # noqa: F401  perfbench traces them here
from .storage import load_index  # noqa: F401  perfbench traces it here
from .tokenizers import tokenize
from .transforms import _column_factors, _rescaled
from .transforms import rescale_index  # noqa: F401  perfbench traces it here

__all__ = [
    "EvalReport", "BootstrapResult", "SweepTable",
    "NDCG_CUTOFF", "DEFAULT_Q_GRID", "DEFAULT_DF_BINS", "DEFAULT_TOKEN_BUDGETS",
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

def _judged(items: Iterable, qrels: QrelSet,
            query_id: Callable[[object], str] = lambda entry: entry[0]) -> list:
    """The items (by default (query_id, text) pairs) whose query has a
    positively judged document, in order; ValueError when there is none."""
    judged = [item for item in items if qrels.has_relevant(query_id(item))]
    if not judged:
        raise ValueError("no query has a positively judged document")
    return judged


def _ndcg(placed: Iterable[tuple[int, int]], rels: Mapping[str, int], k: int) -> float:
    """The one NDCG body: the DCG of the pairs of ``placed``, (0-based place,
    gain) in ascending place order, that are placed below ``k``, over the
    ideal DCG of the positive gains ``rels``."""
    dcg = 0.0
    for place, rel in placed:
        if place >= k:
            break
        dcg += rel / math.log2(place + 2)
    idcg = sum(rel / math.log2(i + 2)
               for i, rel in enumerate(sorted(rels.values(), reverse=True)[:k]))
    return dcg / idcg


def _report(placed: Mapping[str, Sequence[tuple[int, int]]], qrels: QrelSet,
            metric: Callable[[Sequence[tuple[int, int]], dict[str, int]], float]) -> EvalReport:
    judged = _judged(placed.items(), qrels)
    per_query = {qid: metric(places, qrels.relevant_docs(qid)) for qid, places in judged}
    return EvalReport(per_query=per_query, mean=float(np.mean(list(per_query.values()))),
                      n_queries=len(per_query), n_skipped=len(placed) - len(judged))


def eval_ndcg(placed: Mapping[str, Sequence[tuple[int, int]]], qrels: QrelSet,
              k: int = NDCG_CUTOFF) -> EvalReport:
    """NDCG@k per query of ``placed``: each query id's (place, gain) pairs,
    in place order, walked by :func:`_places` to a depth of at least ``k``."""
    _check_k(k)
    return _report(placed, qrels, lambda places, rels: _ndcg(places, rels, k))


def eval_mrr(placed: Mapping[str, Sequence[tuple[int, int]]], qrels: QrelSet) -> EvalReport:
    """1 / (first place + 1) per query; 0 when ``placed`` has no place for it."""
    return _report(placed, qrels, lambda places, rels: 1.0 / (places[0][0] + 1) if places else 0.0)


def eval_recall(placed: Mapping[str, Sequence[tuple[int, int]]], qrels: QrelSet,
                k: int) -> EvalReport:
    """Fraction of the positively judged documents placed below ``k``."""
    _check_k(k)
    return _report(placed, qrels,
                   lambda places, rels: sum(1 for place, _ in places if place < k) / len(rels))


# -------------------------------------------------------------- bootstrap

def paired_bootstrap(metric_a: Mapping[str, float], metric_b: Mapping[str, float],
                     resamples: int = 10_000, seed: int = 0) -> BootstrapResult:
    """Percentile bootstrap over per-query deltas ``b - a``.

    Both mappings must cover the same query ids.  Queries are resampled
    with replacement in sorted-id order from a single seeded generator, so
    results are reproducible bit for bit regardless of chunking or thread
    count.  The CI is the 2.5/97.5 percentile pair of resample means.
    """
    _check_k(resamples, "resamples")
    _check_seed(seed)
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


def _check_seed(seed: int) -> None:
    """ValueError unless ``seed`` is >= 0, as numpy's generator needs; ``--seed``
    runs it at parse time."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


# ------------------------------------------------------------ diagnostics

def q_sweep(base: SparseScoreIndex, queries: QuerySet, qrels: QrelSet,
            grid: Sequence[float] = DEFAULT_Q_GRID) -> SweepTable:
    """Mean NDCG@10 across an exponent grid.

    ``base`` is never written.  The judged queries are resolved once against
    :func:`_judged_index`, the whole columns of ``base`` they read, and each
    grid point scores them on that index rescaled by
    :func:`~qlex.transforms._rescaled`, so a point costs the judged entries.
    The overflow rule is the whole index's: a point raises the rescale's
    ValueError if any column of ``base``, read or not, narrows to a
    non-finite score.  Narrowing is monotone, so ``base`` is rescaled to
    decide only when its peak |score| times the largest |factor| does.  A
    DPH or already-rescaled baseline is refused as :func:`rescale_index`
    refuses it.  Ties on the mean prefer the larger exponent (the one closer
    to plain BM25).  ValueError, before any scoring, when a grid point is not
    a finite q or no query has a positively judged document.
    """
    _check_grid(grid)
    judged = _judged(queries, qrels)
    index = _judged_index(base, judged)
    resolved = _resolve(index, qrels, judged)
    peak = max(float(base.scores.max()), -float(base.scores.min()))
    dfs = np.flatnonzero(np.bincount(base.df))  # a column's factor depends on its df alone
    rows: list[tuple[float, float]] = []
    for q in grid:
        rescaled = _rescaled(index, "q", q)
        if rescaled is not index:  # not the identity, so every column of base is rescaled
            widest = peak * float(np.abs(_column_factors(dfs, base.num_docs, "q", q)).max())
            with np.errstate(over="ignore"):
                if not np.isfinite(np.float32(widest)):
                    _rescaled(base, "q", q)  # raises if any score of base is not finite
        ndcgs = [_ndcg_of_scores(_score(rescaled, columns), docs) for columns, docs in resolved]
        rows.append((float(q), float(np.mean(ndcgs))))
    q_opt, _ = max(rows, key=lambda row: (row[1], row[0]))  # an equal key keeps the first row
    return SweepTable(rows=rows, q_opt=q_opt)


def _judged_index(base: SparseScoreIndex, judged: Sequence[tuple[str, str]]) -> SparseScoreIndex:
    """The index of the whole columns of ``base`` whose terms the judged
    (query_id, text) pairs hold, concatenated in ascending column order, with
    their terms and the doc ids and header of ``base``: a judged query resolves
    against it to the columns it reads in ``base``."""
    tokens = set().union(*(tokenize(text, base.header.mode) for _, text in judged))
    cols = sorted(_term_columns(base.terms, tokens).values())
    spans = [slice(base.col_ptr[c], base.col_ptr[c + 1]) for c in cols]
    # Each concatenation starts from an empty slice, as a judged index may have no column.
    return SparseScoreIndex(
        col_ptr=np.cumsum([0] + [span.stop - span.start for span in spans], dtype=np.int64),
        row_idx=np.concatenate([base.row_idx[:0]] + [base.row_idx[span] for span in spans]),
        scores=np.concatenate([base.scores[:0]] + [base.scores[span] for span in spans]),
        terms=tuple(base.terms[c] for c in cols), doc_ids=base.doc_ids, header=base.header)


def _check_grid(grid: Sequence[float]) -> None:
    """ValueError unless ``grid`` is non-empty and every point is a finite q."""
    if not grid:
        raise ValueError("sweep grid must be non-empty")
    for q in grid:
        _check_mark(q, "q")


def df_bin_occlusion(index: SparseScoreIndex, queries: QuerySet, qrels: QrelSet,
                     bins: Sequence[tuple[int, int | None]] = DEFAULT_DF_BINS
                     ) -> list[tuple[tuple[int, int | None], float]]:
    """Mean NDCG@10 loss from removing each df bin's tokens from queries.

    ValueError unless ``bins`` are non-empty, ascending, disjoint inclusive
    ranges from df 1 with only the last one open.  ``index`` is scored as it
    is and left unchanged; rescale it first to measure another operating
    point.  A query with no tokens in a bin contributes zero loss for that
    bin.  Losses are not clamped: a negative mean means removing that bin
    helped.
    """
    _check_bins(bins)
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


def _check_bins(bins: Sequence[tuple[int, int | None]]) -> None:
    ends = [0] + [hi for _, hi in bins]  # the end of the bin before each bin
    if not bins or not all(end is not None and end < lo and (hi is None or lo <= hi)
                           for (lo, hi), end in zip(bins, ends)):
        raise ValueError("df bins must be non-empty, ascending and disjoint from 1, with "
                         f"only the last one open; got {list(bins)}")


def _resolve(index: SparseScoreIndex, qrels: QrelSet,
             judged: Sequence[tuple[str, str]]) -> list[tuple]:
    """The one resolution of judged (query_id, text) pairs against ``index``,
    per pair in order: its ``query._columns`` under the index's mode, and its
    positive gains with the doc indices and gains of those judged documents
    that ``index`` holds.  Only the judged doc ids are mapped, in one pass, and
    only the distinct judged tokens looked up, by :func:`_term_columns`: that relies
    on ``index.terms`` strictly ascending, which every build guarantees and
    ``check_invariants`` enforces at load."""
    gains = [qrels.relevant_docs(qid) for qid, _ in judged]
    at = _positions(index.doc_ids, set().union(*gains))
    tokens = [tokenize(text, index.header.mode) for _, text in judged]
    found = _term_columns(index.terms, set().union(*tokens))
    out = []
    for toks, rels in zip(tokens, gains):
        held = [(at[doc_id], rel) for doc_id, rel in rels.items() if doc_id in at]
        out.append((_columns(index, toks, found),
                    (rels, np.array([i for i, _ in held], dtype=np.intp), [r for _, r in held])))
    return out


def _term_columns(terms: Sequence[str], tokens: Iterable[str]) -> dict[str, int]:
    """The column of each of ``tokens`` held in the strictly ascending ``terms``, by bisection."""
    return {token: t for token in tokens
            if (t := bisect_left(terms, token)) < len(terms) and terms[t] == token}


def _positions(ids: Sequence[str], wanted: set[str]) -> dict[str, int]:
    """The position in ``ids`` of each id of ``wanted`` that ``ids`` holds, in one pass."""
    return {ident: i for i, ident in enumerate(ids) if ident in wanted}


def _places(scores: np.ndarray, docs: tuple, depth: int) -> list[tuple[int, int]]:
    """The (place, gain) pairs of the judged documents (``docs``, from
    :func:`_resolve`) placed below ``depth`` in the ranking of ``scores``, in
    place order, counted by ``query._position`` without ranking: the walk
    visits the documents in ranking order and stops at the first placed at
    ``depth`` or lower, after at most ``depth + 1`` passes over ``scores``."""
    _, held, gains = docs
    placed = []
    for j in np.lexsort((held, -scores[held])).tolist():
        place = _position(scores, held[j])
        if place >= depth:
            break
        placed.append((place, gains[j]))
    return placed


def _ndcg_of_scores(scores: np.ndarray, docs: tuple) -> float:
    """NDCG@``NDCG_CUTOFF`` of the ranking of ``scores``, from :func:`_places`."""
    return _ndcg(_places(scores, docs, NDCG_CUTOFF), docs[0], NDCG_CUTOFF)


def _walk(index: SparseScoreIndex, qrels: QrelSet, judged: Sequence[tuple[str, str]],
          depth: int) -> Iterator[tuple[str, np.ndarray, list[tuple[int, int]]]]:
    """Per judged (query_id, text) pair in order: its id, its score vector on
    ``index`` and its :func:`_places` below ``depth``, each query scored once."""
    for (qid, _), (columns, docs) in zip(judged, _resolve(index, qrels, judged)):
        scores = _score(index, columns)
        yield qid, scores, _places(scores, docs, depth)


def recall_at_token_budget(rankings: Iterable[RankedList], qrels: QrelSet,
                           budgets: Sequence[int], corpus: Corpus) -> list[tuple[int, float]]:
    """Recall under a reading budget of K whitespace-split tokens of ``corpus``.

    Walk each ranking top-down accumulating each hit's token count, its text
    in ``corpus.texts`` split on whitespace, read only for the hits walked; a
    walked hit missing from ``corpus`` is a QlexError.  A query is
    recalled at budget K when the cumulative count up to and including the
    first relevant document does not exceed K, so a relevant document below
    the ranking's depth is never recalled.  Budgets must be ascending;
    recall is then monotone in K by construction.
    """
    budgets = _check_budgets(budgets)
    judged = _judged(rankings, qrels, lambda ranked: ranked.query_id)
    at = _positions(corpus.ids, {doc_id for ranked in judged for doc_id, _ in ranked.hits})
    costs: list[float] = []
    for ranked in judged:
        rels = qrels.relevant_docs(ranked.query_id)
        cumulative = 0
        cost = math.inf
        for doc_id, _ in ranked.hits:
            if doc_id not in at:
                raise QlexError(f"ranked doc id {doc_id!r} is not in the budget corpus "
                                f"{corpus.path or '(in memory)'}")
            cumulative += len(corpus.texts[at[doc_id]].split())
            if doc_id in rels:
                cost = cumulative
                break
        costs.append(cost)
    return [(int(k_budget), sum(1 for c in costs if c <= k_budget) / len(judged))
            for k_budget in budgets]


def _check_budgets(budgets: Iterable[int]) -> list[int]:
    budgets = list(budgets)
    if not budgets or any(b <= 0 for b in budgets):
        raise ValueError("budgets must be positive")
    if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ValueError("budgets must be strictly ascending")
    return budgets


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
    payload: dict = {name: asdict(rep) for name, rep in reports.items()}
    if bootstrap is not None:
        payload["bootstrap"] = {**asdict(bootstrap), "p": bootstrap.p_label()}
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
