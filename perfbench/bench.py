"""One benchmark run of qlex: set-up, closed-loop queries, the experimenter's CLI path.

Everything is measured from outside the package, by timing calls into the
public functions of ``corpus_io``, ``tokenizers``, ``index``, ``stats``,
``transforms``, ``storage``, ``query``, ``evaluation`` and ``cli``.  One
process, one client, closed loop: the next query is issued only after the
previous one returned.

A run first generates the workload's input files in a child process
(untimed; its memory does not count toward ``peak_rss_mb``), then makes
``SETUP_REPS`` rounds.  Each round:

1. sets up from the corpus file: ``load_corpus`` -> ``build_index`` ->
   ``compute_corpus_stats`` + ``predict_q`` -> ``save_index`` ->
   ``load_index`` -> ``rescale_index(q_pred)`` (plus ``build_dph_index`` and
   its save on ``eval_hapax``); the first round also makes one warm pass
   over every query through ``top_k`` (k=100);
2. issues queries in a closed loop against that round's index, with GC on,
   for a third of ``--seconds`` and at least a third of ``MIN_QUERY_SAMPLES``
   queries; qps, p50 and p99 are taken over the three rounds' queries pooled;
3. runs the experimenter's path through ``cli.main`` for a third of
   ``--seconds`` (at least once): ``sweep`` (default grid), ``occlusion --q
   <q_opt>`` (default bins), ``eval --format json --compare-index ...
   --budgets ... --corpus ...`` (10k bootstrap resamples).

Untraced runs time the fixed reference computation of ``calib.py`` before
and after every set-up, every CLI subcommand and every block of queries,
and report each timing at the reference's nominal speed, so that the host's
drift in speed between runs cancels.  The wall-clock figures are printed
beside them.

Correctness checks count into ``failed``: a query that raises, a sampled
query whose ranking differs from a dense NumPy reference, a loaded index
whose ``dumps_index`` differs from the saved bytes, a non-finite rescaled
score, a TREC run whose sha256 differs between set-ups or between runs of
the same sources, a CLI subcommand that does not return 0, and an
``eval`` NDCG@10 that disagrees with the benchmark's own computation.

With ``trace=True`` the same phases run with spans around every library
call (the query path split into tokenize -> score_query ->
rank_from_scores), and the run reports per-layer metrics instead.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import qlex
from qlex import cli, evaluation
from qlex.corpus_io import load_corpus, load_qrels, load_queries
from qlex.evaluation import DEFAULT_DF_BINS, DEFAULT_Q_GRID, DEFAULT_TOKEN_BUDGETS
from qlex.index import build_index
from qlex.query import format_trec_run, rank_from_scores, score_query, top_k
from qlex.stats import compute_corpus_stats, predict_q
from qlex.storage import dumps_index, load_index, save_index
from qlex.tokenizers import TokenizerMode, tokenize
from qlex.transforms import build_dph_index, rescale_index

from calib import Reference, SpeedLog
from spans import NullTracer, Tracer, instrument

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"

MODES = {
    "search_t0_50k": TokenizerMode.T0,
    "search_t2_20k": TokenizerMode.T2,
    "eval_hapax": TokenizerMode.T0,
}
# The reference computation timed next to each measurement (see calib.py):
# (docs, postings per call, nominal seconds per call), shaped like the
# workload's queries; the nominal figure is its median on the 2-core Xeon
# (2.1 GHz) the baseline was taken on.
REFERENCES = {
    "search_t0_50k": (50_000, 150, 0.00057),
    "search_t2_20k": (20_000, 320_000, 0.0037),
    "eval_hapax": (20_000, 3_700, 0.00085),
}
# eval_hapax compares q_pred against DPH (built during its set-up); the search
# workloads compare q_pred against the plain BM25 baseline they already have.
DPH_IN_SETUP = {"eval_hapax"}

K = 100
SETUP_REPS = 3
# Queries per run at least, over all rounds: p99 needs ten samples beyond it.
MIN_QUERY_SAMPLES = 1000
N_REFERENCE = 32
# Traced runs alternate untraced and traced passes over blocks of this many queries.
TRACE_BLOCK = 200
# Untraced query slices alternate blocks this long with a reference sample.
QUERY_BLOCK_S = 0.4
SPEED_SAMPLE_S = 0.1
BUDGETS = ",".join(str(b) for b in DEFAULT_TOKEN_BUDGETS)

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "query_qps": "1/s", "query_p50_ms": "ms",
    "eval_s": "s", "ndcg10": "ratio",
}
# Printed with the end-to-end metrics but not declared in BENCHMARK.json: on a
# shared 2-core machine the p99 of search_t2_20k follows bursts of neighbouring
# load and moved by 25% between two sets of ten runs of the same code.  The
# wall-clock figures and the machine's speed relative to nominal come with it.
REPORTED_UNITS = {
    "query_p99_ms": "ms", "setup_wall_s": "s", "query_wall_qps": "1/s",
    "query_p50_wall_ms": "ms", "eval_wall_s": "s", "machine_speed": "ratio",
}
PER_LAYER_UNITS = {
    "corpus_io.load_corpus_s": "s", "corpus_io.load_queries_s": "s",
    "tokenizers.corpus_tokenize_s": "s", "tokenizers.tokens": "count",
    "tokenizers.query_tokenize_ms": "ms",
    "index.build_s": "s", "index.nnz": "count", "index.vocab": "count",
    "stats.corpus_stats_s": "s", "stats.q_pred": "q",
    "transforms.rescale_s": "s", "transforms.rescale_ns_per_nnz": "ns",
    "transforms.build_dph_s": "s",
    "storage.save_s": "s", "storage.load_s": "s", "storage.bytes": "bytes",
    "query.tokens_per_query": "count", "query.score_ms": "ms",
    "query.postings_per_query": "count", "query.rank_ms": "ms",
    "query.docs_ranked_per_query": "count", "query.format_ms": "ms",
    "query.oov_token_frac": "ratio", "query.zero_match_frac": "ratio",
    "query.score_share": "ratio", "query.rank_share": "ratio",
    "evaluation.q_sweep_s": "s", "evaluation.occlusion_s": "s",
    "evaluation.occlusion_reranks": "count", "evaluation.bootstrap_s": "s",
    "evaluation.metrics_s": "s", "evaluation.token_budget_s": "s",
    "cli.sweep_s": "s", "cli.occlusion_s": "s", "cli.eval_s": "s",
    "trace.query_overhead_frac": "ratio", "trace.eval_overhead_frac": "ratio",
}

# Library calls the CLI makes, recorded as spans in the traced eval pass.
_CLI_PATCHES = [
    (cli, "load_corpus", "corpus_io.load_corpus"),
    (cli, "load_queries", "corpus_io.load_queries"),
    (cli, "load_qrels", "corpus_io.load_qrels"),
    (cli, "load_index", "storage.load_index"),
    (cli, "q_sweep", "evaluation.q_sweep"),
    (cli, "df_bin_occlusion", "evaluation.df_bin_occlusion"),
    (cli, "batch_retrieve", "query.batch_retrieve"),
    (cli, "eval_ndcg", "evaluation.metrics"),
    (cli, "eval_mrr", "evaluation.metrics"),
    (cli, "eval_recall", "evaluation.metrics"),
    (cli, "paired_bootstrap", "evaluation.paired_bootstrap"),
    (cli, "recall_at_token_budget", "evaluation.recall_at_token_budget"),
    (cli, "report_to_json", "evaluation.report"),
    (cli, "sweep_to_csv", "evaluation.report"),
    (evaluation, "load_index", "storage.load_index"),
    (evaluation, "rescale_index", "transforms.rescale_index"),
    (evaluation, "batch_retrieve", "query.batch_retrieve"),
    (evaluation, "eval_ndcg", "evaluation.metrics"),
    (evaluation, "rank_tokens", "query.rank_tokens"),
]


@dataclass
class Outcome:
    """Operations attempted and failed; ``problems`` says what failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        """Record that an already counted operation failed."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


@dataclass
class Files:
    corpus: Path
    queries: Path
    eval_queries: Path
    qrels: Path
    base: Path
    pred: Path
    dph: Path

    @classmethod
    def under(cls, root: Path) -> "Files":
        inputs = root / "inputs"
        return cls(inputs / "corpus.jsonl", inputs / "queries.jsonl",
                   inputs / "eval_queries.jsonl", inputs / "qrels.tsv",
                   root / "base.qlx", root / "pred.qlx", root / "dph.qlx")


def _sha256(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def source_hash() -> str:
    """sha256 over the qlex package sources: the identity of "one commit"."""
    pkg = Path(qlex.__file__).resolve().parent
    files = sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(pkg)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


class Ledger:
    """sha256 values that must repeat across runs, kept in the work directory."""

    def __init__(self, path: Path):
        self.path = path
        try:
            self.data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.data = {}

    def agrees(self, key: str, value: str) -> bool:
        """Record ``value`` under ``key``; False if a different value was recorded."""
        if key not in self.data:
            self.data[key] = value
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True), encoding="utf-8")
            tmp.replace(self.path)
        return self.data[key] == value


# ------------------------------------------------------------ references

def reference_ranking(index, tokens: list[str], k: int) -> tuple[list[int], np.ndarray]:
    """Dense reference for ``top_k``: bincount over the matched columns.

    Columns are visited in first-occurrence order with their multiplicity,
    so every document's float64 sum is formed in the same order as the
    library's; ties go to the ascending document index via ``np.lexsort``.
    """
    rows, weights = [], []
    for term in dict.fromkeys(tokens):
        tid = index.vocab.get(term)
        if tid is None:
            continue
        lo, hi = int(index.col_ptr[tid]), int(index.col_ptr[tid + 1])
        rows.append(index.row_idx[lo:hi])
        weights.append(index.scores[lo:hi].astype(np.float64) * tokens.count(term))
    n = index.num_docs
    if rows:
        dense = np.bincount(np.concatenate(rows), weights=np.concatenate(weights), minlength=n)
    else:
        dense = np.zeros(n, dtype=np.float64)
    order = np.lexsort((np.arange(n), -dense))[:k]
    return order.tolist(), dense


def _matches_reference(index, mode, ranked, text: str) -> bool:
    order, dense = reference_ranking(index, tokenize(text, mode), K)
    return (ranked.doc_ids() == [index.doc_ids[i] for i in order]
            and all(score == dense[i] for (_, score), i in zip(ranked.hits, order)))


def reference_ndcg10(rankings, qrels) -> float:
    """Mean NDCG@10 with linear gains over queries that have a relevant doc."""
    values = []
    for ranked in rankings:
        rels = qrels.relevant_docs(ranked.query_id)
        if not rels:
            continue
        dcg = sum(rels.get(d, 0) / math.log2(i + 2) for i, d in enumerate(ranked.doc_ids()[:10]))
        ideal = sorted(rels.values(), reverse=True)[:10]
        values.append(dcg / sum(r / math.log2(i + 2) for i, r in enumerate(ideal)))
    return sum(values) / len(values)


# ------------------------------------------------------------------ phases

@dataclass
class Setup:
    seconds: float
    corpus: object
    index: object      # rescaled to q_pred
    q_pred: float
    root: int          # span index of this set-up (-1 untraced)


def _setup(files: Files, mode: TokenizerMode, with_dph: bool, tracer) -> Setup:
    start = perf_counter()
    with tracer.span("setup") as root:
        corpus = tracer.call("corpus_io.load_corpus", load_corpus, files.corpus)
        index = tracer.call("index.build_index", build_index, corpus, mode)
        stats = tracer.call("stats.compute_corpus_stats", compute_corpus_stats, corpus, mode)
        q_pred = tracer.call("stats.predict_q", predict_q, stats)
        tracer.call("storage.save_index", save_index, index, files.base)
        del index
        loaded = tracer.call("storage.load_index", load_index, files.base)
        tracer.call("transforms.rescale_index", rescale_index, loaded, q_pred)
        if with_dph:
            dph = tracer.call("transforms.build_dph_index", build_dph_index, corpus, mode)
            tracer.call("storage.save_index", save_index, dph, files.dph)
            del dph
    return Setup(perf_counter() - start, corpus, loaded, q_pred, root)


def _check_setup(setup: Setup, files: Files, outcome: Outcome, with_dph: bool) -> None:
    saved = files.base.read_bytes()
    outcome.check(dumps_index(load_index(files.base)) == saved,
                  "dumps_index(load_index(f)) differs from the saved bytes")
    outcome.check(bool(np.isfinite(setup.index.scores).all()),
                  f"non-finite score after rescale to q={setup.q_pred}")
    outcome.check(0.0 < setup.q_pred <= 1.0, f"q_pred={setup.q_pred} outside (0, 1]")
    if with_dph:
        outcome.check(bool(np.isfinite(load_index(files.dph).scores).all()),
                      "non-finite DPH score")


def _run_query(index, mode, qid: str, text: str, outcome: Outcome):
    outcome.attempted += 1
    try:
        return top_k(index, text, mode, K, qid)
    except Exception:
        outcome.fail(f"query {qid} raised: {traceback.format_exc(limit=2)}")
        return None


def _closed_loop(index, mode, entries, seconds: float, min_samples: int, offset: int,
                 outcome: Outcome, speed: SpeedLog) -> tuple[np.ndarray, np.ndarray]:
    """Issue queries back to back, cycling from ``offset``, for ``seconds`` and at
    least ``min_samples`` queries, in blocks of ``QUERY_BLOCK_S`` between
    reference samples; return (latencies, each one's factor to nominal speed)."""
    laps: list[float] = []
    factors: list[float] = []
    n = len(entries)
    i = 0
    start = perf_counter()
    speed.sample()
    while True:
        block = len(laps)
        block_end = perf_counter() + QUERY_BLOCK_S
        while True:
            qid, text = entries[(offset + i) % n]
            t = perf_counter()
            try:
                top_k(index, text, mode, K, qid)
            except Exception:
                outcome.fail(f"query {qid} raised: {traceback.format_exc(limit=2)}")
            end = perf_counter()
            laps.append(end - t)
            i += 1
            if end >= block_end:
                break
        factors.extend([speed.factor()] * (len(laps) - block))
        if perf_counter() - start >= seconds and i >= min_samples:
            break
    outcome.attempted += i
    return np.array(laps), np.array(factors)


def _query_figures(laps: np.ndarray) -> tuple[float, float, float]:
    """(qps, p50 ms, p99 ms) of closed-loop latencies."""
    p50, p99 = np.percentile(laps * 1e3, [50, 99])
    return len(laps) / float(laps.sum()), float(p50), float(p99)


def _cli(name: str, argv: list[str], outcome: Outcome, tracer) -> tuple[str, float]:
    """Run one subcommand in-process; return its stderr and wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with tracer.span(f"cli.{name}"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = traceback.format_exc(limit=3)
    elapsed = perf_counter() - start
    outcome.check(rc == 0, f"qlex {name} returned {rc}: {err.getvalue()[-300:]}")
    return err.getvalue(), elapsed


def _eval_pipeline(files: Files, workload: str, rundir: Path, outcome: Outcome, tracer,
                   speed: SpeedLog | None = None) -> tuple[float, float, float | None]:
    """sweep -> occlusion at q_opt -> eval; return (wall seconds, the same at
    nominal speed, NDCG@10 of q_pred).  With ``speed``, each subcommand is
    followed by a reference sample (the caller takes the one before the first)."""
    common = ["--queries", str(files.eval_queries), "--qrels", str(files.qrels)]
    other = files.dph if workload in DPH_IN_SETUP else files.base
    sweep_csv, occ_tsv, eval_json = rundir / "sweep.csv", rundir / "occ.tsv", rundir / "eval.json"
    for p in (sweep_csv, occ_tsv, eval_json):
        p.unlink(missing_ok=True)
    elapsed = nominal = 0.0

    def run(name: str, argv: list[str]) -> str:
        nonlocal elapsed, nominal
        err, seconds = _cli(name, [name, *argv], outcome, tracer)
        elapsed += seconds
        nominal += seconds * (speed.factor() if speed else 1.0)
        return err

    err = run("sweep", ["--index", str(files.base), *common, "--out", str(sweep_csv)])
    found = re.search(r"q_opt=([0-9.]+)", err)
    q_opt = found.group(1) if found else "1.0"
    run("occlusion", ["--index", str(files.base), *common, "--q", q_opt, "--out", str(occ_tsv)])
    run("eval", ["--index", str(files.pred), *common, "--format", "json",
                 "--compare-index", str(other), "--budgets", BUDGETS,
                 "--corpus", str(files.corpus), "--out", str(eval_json)])

    outcome.check(found is not None and float(q_opt) in DEFAULT_Q_GRID,
                  f"sweep q_opt {q_opt} not on the default grid")
    outcome.check(sweep_csv.is_file() and len(sweep_csv.read_text().splitlines())
                  == len(DEFAULT_Q_GRID) + 1, "sweep CSV lacks a row per grid point")
    outcome.check(occ_tsv.is_file() and len(occ_tsv.read_text().splitlines())
                  == len(DEFAULT_DF_BINS) + 1, "occlusion table lacks a row per bin")
    try:
        report = json.loads(eval_json.read_text(encoding="utf-8"))
        ndcg = float(report["ndcg@10"]["mean"])
        outcome.check(report["bootstrap"]["resamples"] == 10_000,
                      "eval bootstrap did not use 10k resamples")
    except (OSError, ValueError, KeyError, TypeError):
        outcome.check(False, "eval JSON missing or malformed")
        ndcg = None
    return elapsed, nominal, ndcg


# ------------------------------------------------------------------ runs

def _generate(workload: str, seed: int, smoke: bool, rundir: Path, ledger: Ledger,
              outcome: Outcome) -> tuple[Files, str]:
    """Write the inputs in a child process; return their paths and sha256."""
    files = Files.under(rundir)
    cmd = [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed),
           "--out", str(files.corpus.parent)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"input generator failed: {proc.stderr[-500:]}")
    digest = _sha256(files.corpus, files.queries, files.eval_queries, files.qrels)
    key = f"inputs/{workload}/{seed}/{'smoke' if smoke else 'full'}/{_sha256(HERE / 'gen.py')}"
    outcome.check(ledger.agrees(key, digest),
                  "generator gave different bytes for the same seed")
    return files, digest


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        work: Path = WORK) -> dict:
    """One run; returns the result object the benchmark prints last."""
    if workload not in MODES:
        raise ValueError(f"unknown workload {workload!r}")
    work.mkdir(parents=True, exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=work))
    try:
        return _run(workload, seed, seconds, trace, smoke, work, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _run(workload, seed, seconds, trace, smoke, work: Path, rundir: Path) -> dict:
    mode = MODES[workload]
    outcome = Outcome()
    ledger = Ledger(work / "ledger.json")
    files, input_sha = _generate(workload, seed, smoke, rundir, ledger, outcome)
    tracer = Tracer() if trace else NullTracer()
    with_dph = workload in DPH_IN_SETUP
    layer: dict[str, float] = {}

    entries = list(tracer.call("corpus_io.load_queries", load_queries, files.queries))
    sample_queries = entries[::max(1, len(entries) // N_REFERENCE)][:N_REFERENCE]
    qrels = load_qrels(files.qrels)
    setup_roots, sample_shas = [], []
    # Timings as (wall seconds, seconds at the reference's nominal speed).
    setup_times: list[tuple[float, float]] = []
    eval_times: list[tuple[float, float]] = []
    # Per round: closed-loop latencies and each one's factor to nominal speed.
    rounds: list[tuple[np.ndarray, np.ndarray]] = []
    ndcgs = []
    speed = SpeedLog(Reference(*REFERENCES[workload]), SPEED_SAMPLE_S)
    speed.reference.sample(SPEED_SAMPLE_S)  # warm-up, not logged
    query_trace = _QueryTrace(mode, entries, tracer, outcome) if trace else None

    # Each round sets up from the corpus file again, then spends a third of
    # the measuring time on queries against that round's index and a third on
    # the CLI path.  Spreading the slices over the whole run evens out the
    # slow drift in machine speed that a single contiguous window would catch.
    for rnd in range(SETUP_REPS):
        gc.collect()
        speed.sample()
        setup = _setup(files, mode, with_dph, tracer)
        setup_times.append((setup.seconds, setup.seconds * speed.factor()))
        setup_roots.append(setup.root)
        index = setup.index
        _check_setup(setup, files, outcome, with_dph)
        sample = [_run_query(index, mode, qid, text, outcome) for qid, text in sample_queries]
        sample_shas.append(hashlib.sha256(format_trec_run(r for r in sample if r).encode())
                           .hexdigest())
        if rnd == 0:
            save_index(index, files.pred)
            if trace:
                _first_round_layers(setup, files, mode, with_dph, tracer, layer)
            for ranked, (qid, text) in zip(sample, sample_queries):
                if ranked is not None:
                    outcome.check(_matches_reference(index, mode, ranked, text),
                                  f"query {qid} differs from the dense reference")
            # The warm pass; its TREC run must repeat across runs of the same sources.
            warm = [_run_query(index, mode, qid, text, outcome) for qid, text in entries]
            trec = format_trec_run(r for r in warm if r is not None)
            outcome.check(ledger.agrees(f"trec/{input_sha}/{source_hash()}",
                                        hashlib.sha256(trec.encode()).hexdigest()),
                          "TREC run sha256 differs from an earlier run of the same sources")
            evals = [_run_query(index, mode, qid, text, outcome)
                     for qid, text in load_queries(files.eval_queries)]
            expected_ndcg = reference_ndcg10([r for r in evals if r], qrels)
            if query_trace:
                query_trace.warm = warm
            del warm, trec, evals
        setup = None
        gc.collect()

        if query_trace:
            query_trace.slice(index, seconds / SETUP_REPS)
        else:
            rounds.append(_closed_loop(index, mode, entries, seconds / SETUP_REPS,
                                       -(-MIN_QUERY_SAMPLES // SETUP_REPS),
                                       sum(len(r[0]) for r in rounds), outcome, speed))
        del index
        gc.collect()

        if trace:
            # One pass a round: two untraced (the first is cold), then one traced.
            if rnd < SETUP_REPS - 1:
                elapsed, _, ndcg = _eval_pipeline(files, workload, rundir, outcome, NullTracer())
                eval_times.append((elapsed, elapsed))
                ndcgs.append(ndcg)
            else:
                first = len(tracer.spans)
                with instrument(tracer, _CLI_PATCHES):
                    elapsed, _, _ = _eval_pipeline(files, workload, rundir, outcome, tracer)
                _eval_layers(tracer, first, elapsed, eval_times[-1][0], layer)
            continue
        slice_start = perf_counter()
        speed.sample()
        while True:
            elapsed, nominal, ndcg = _eval_pipeline(files, workload, rundir, outcome,
                                                    NullTracer(), speed)
            eval_times.append((elapsed, nominal))
            ndcgs.append(ndcg)
            if perf_counter() - slice_start >= seconds / SETUP_REPS:
                break

    outcome.check(len(set(sample_shas)) == 1, "TREC run differs between set-ups")
    for ndcg in ndcgs:
        outcome.check(ndcg is not None and abs(ndcg - expected_ndcg) <= 1e-9,
                      f"eval NDCG@10 {ndcg} != reference {expected_ndcg}")

    if trace:
        layer.update(query_trace.layers())
        _setup_layers(tracer, setup_roots, layer)
        tracer.write(work / f"{workload}.spans.jsonl")
        _print_span_table(tracer)
        metrics = {name: layer[name] for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        laps = np.concatenate([r[0] for r in rounds])
        factors = np.concatenate([r[1] for r in rounds])
        print(f"queries per round: {[len(r[0]) for r in rounds]} (p99 has "
              f"{len(laps) // 100} samples beyond it); CLI passes: {len(eval_times)}; "
              f"reference samples: {len(speed.samples)}", file=sys.stderr)
        qps, p50, p99 = _query_figures(laps * factors)
        wall_qps, wall_p50, _ = _query_figures(laps)
        metrics = {
            "setup_s": statistics.median(t[1] for t in setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "query_qps": qps,
            "query_p50_ms": p50,
            "query_p99_ms": p99,
            "eval_s": statistics.median(t[1] for t in eval_times),
            "ndcg10": ndcgs[0] if ndcgs[0] is not None else 0.0,
            "setup_wall_s": statistics.median(t[0] for t in setup_times),
            "query_wall_qps": wall_qps,
            "query_p50_wall_ms": wall_p50,
            "eval_wall_s": statistics.median(t[0] for t in eval_times),
            "machine_speed": speed.speed(),
        }
        units = END_TO_END_UNITS
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "reported": {} if trace else {name: {"value": metrics[name], "unit": unit}
                                      for name, unit in REPORTED_UNITS.items()},
        "problems": outcome.problems,
    }


# ----------------------------------------------------------- traced layers

def _first_round_layers(setup: Setup, files: Files, mode, with_dph: bool, tracer: Tracer,
                        layer: dict) -> None:
    """Counts of the built index, plus the layers timed as separate passes."""
    if not with_dph:
        # Timed on its own so the layer has a figure on every workload.
        tracer.call("transforms.build_dph_index", build_dph_index, setup.corpus, mode)
    with tracer.span("tokenizers.corpus_tokenize"):
        streams = [tokenize(doc.text, mode) for doc in setup.corpus]
    layer.update({
        "tokenizers.tokens": float(sum(map(len, streams))),
        "index.nnz": float(setup.index.nnz),
        "index.vocab": float(setup.index.vocab_size),
        "stats.q_pred": setup.q_pred,
        "storage.bytes": float(files.base.stat().st_size),
    })


class _QueryTrace:
    """Traced query slices: untraced ``top_k`` and the traced split path
    (tokenize -> score_query -> rank_from_scores) alternate over the same
    blocks, so their difference is the tracing overhead."""

    def __init__(self, mode, entries, tracer: Tracer, outcome: Outcome):
        self.mode, self.entries, self.tracer, self.outcome = mode, entries, tracer, outcome
        self.warm: list = []
        self.plain: list[float] = []
        self.roots: list[int] = []
        self.pos = 0
        self.tokens = self.postings = self.oov = self.zero = self.ranked_docs = 0

    def slice(self, index, seconds: float) -> None:
        tracer, mode, n = self.tracer, self.mode, len(self.entries)
        start = perf_counter()
        while True:
            block = [j % n for j in range(self.pos, self.pos + min(TRACE_BLOCK, n))]
            self.pos += len(block)
            for j in block:
                qid, text = self.entries[j]
                t = perf_counter()
                top_k(index, text, mode, K, qid)
                self.plain.append(perf_counter() - t)
            for j in block:
                qid, text = self.entries[j]
                with tracer.span("query", qid) as root:
                    toks = tracer.call("tokenizers.tokenize", tokenize, text, mode, qid=qid)
                    scores = tracer.call("query.score_query", score_query, index, toks, qid=qid)
                    ranked = tracer.call("query.rank_from_scores", rank_from_scores, index,
                                         scores, K, qid, qid=qid)
                tracer.call("query.format_trec_run", format_trec_run, [ranked], qid=qid)
                self.roots.append(root)
                self.outcome.check(self.warm[j] is not None and ranked.hits == self.warm[j].hits,
                                   f"traced ranking of {qid} differs from top_k's")
                self._count(index, toks, scores)
            if perf_counter() - start >= seconds:
                break

    def _count(self, index, toks: list[str], scores: np.ndarray) -> None:
        known = [index.vocab[t] for t in set(toks) if t in index.vocab]
        self.tokens += len(toks)
        self.oov += sum(1 for t in toks if t not in index.vocab)
        self.zero += not known
        self.postings += int(index.df[known].sum()) if known else 0
        self.ranked_docs += int(np.count_nonzero(scores))

    def layers(self) -> dict[str, float]:
        spans, own, n = self.tracer.spans, self.tracer.self_times(), len(self.roots)
        per = Counter()
        for i, span in enumerate(spans):
            per[span[0]] += own[i]
        traced_mean = sum(spans[r][2] - spans[r][1] for r in self.roots) / n
        plain_mean = sum(self.plain) / len(self.plain)
        tok, score, rank = (per["tokenizers.tokenize"], per["query.score_query"],
                            per["query.rank_from_scores"])
        return {
            "tokenizers.query_tokenize_ms": tok / n * 1e3,
            "query.score_ms": score / n * 1e3,
            "query.rank_ms": rank / n * 1e3,
            "query.format_ms": per["query.format_trec_run"] / n * 1e3,
            "query.score_share": score / (tok + score + rank),
            "query.rank_share": rank / (tok + score + rank),
            "query.tokens_per_query": self.tokens / n,
            "query.postings_per_query": self.postings / n,
            "query.docs_ranked_per_query": self.ranked_docs / n,
            "query.oov_token_frac": self.oov / max(self.tokens, 1),
            "query.zero_match_frac": self.zero / n,
            "trace.query_overhead_frac": (traced_mean - plain_mean) / plain_mean,
        }


def _span_sum(tracer: Tracer, indices, name: str, own: list[float] | None = None) -> float:
    spans = tracer.spans
    if own is None:
        return sum(spans[i][2] - spans[i][1] for i in indices if spans[i][0] == name)
    return sum(own[i] for i in indices if spans[i][0] == name)


def _setup_layers(tracer: Tracer, roots: list[int], layer: dict) -> None:
    own = tracer.self_times()
    per_rep = [tracer.within(root) for root in roots]

    def median_of(name: str) -> float:
        return statistics.median(_span_sum(tracer, rep, name, own) for rep in per_rep)

    every = range(len(tracer.spans))
    dph = [tracer.spans[i][2] - tracer.spans[i][1] for i in every
           if tracer.spans[i][0] == "transforms.build_dph_index"]
    rescale_s = median_of("transforms.rescale_index")
    layer.update({
        "transforms.rescale_ns_per_nnz": rescale_s / layer["index.nnz"] * 1e9,
        "corpus_io.load_corpus_s": median_of("corpus_io.load_corpus"),
        "index.build_s": median_of("index.build_index"),
        "stats.corpus_stats_s": median_of("stats.compute_corpus_stats"),
        "storage.save_s": median_of("storage.save_index"),
        "storage.load_s": median_of("storage.load_index"),
        "transforms.rescale_s": rescale_s,
        "transforms.build_dph_s": statistics.median(dph),
        "tokenizers.corpus_tokenize_s": _span_sum(tracer, every, "tokenizers.corpus_tokenize"),
        "corpus_io.load_queries_s": _span_sum(tracer, every, "corpus_io.load_queries"),
    })


def _eval_layers(tracer: Tracer, first: int, traced_s: float, plain_s: float,
                 layer: dict) -> None:
    own = tracer.self_times()
    inside = range(first, len(tracer.spans))
    occlusions = [i for i in inside if tracer.spans[i][0] == "evaluation.df_bin_occlusion"]
    reranks = sum(1 for o in occlusions for i in tracer.within(o)
                  if tracer.spans[i][0] == "query.rank_tokens")
    layer.update({
        "evaluation.q_sweep_s": _span_sum(tracer, inside, "evaluation.q_sweep"),
        "evaluation.occlusion_s": _span_sum(tracer, inside, "evaluation.df_bin_occlusion"),
        "evaluation.occlusion_reranks": float(reranks),
        "evaluation.bootstrap_s": _span_sum(tracer, inside, "evaluation.paired_bootstrap"),
        "evaluation.metrics_s": _span_sum(tracer, inside, "evaluation.metrics"),
        "evaluation.token_budget_s": _span_sum(tracer, inside,
                                               "evaluation.recall_at_token_budget"),
        "cli.sweep_s": _span_sum(tracer, inside, "cli.sweep", own),
        "cli.occlusion_s": _span_sum(tracer, inside, "cli.occlusion", own),
        "cli.eval_s": _span_sum(tracer, inside, "cli.eval", own),
        "trace.eval_overhead_frac": (traced_s - plain_s) / plain_s,
    })


def _print_span_table(tracer: Tracer) -> None:
    print(f"{'span':34} {'count':>7} {'total_s':>10} {'self_s':>10}")
    for name, row in sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:34} {row['count']:7d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
