"""Acceptance gate: one test per shipped guarantee.

Every test carries a ``criterion`` marker and prints exactly one
``[criterion NN] PASS/FAIL`` line, emitted outside pytest's capture so the
gate is auditable straight from the run log.  Tolerances are pinned in the
assertions, not configurable.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qlex import (IndexHeader, QrelSet, QuerySet, SparseScoreIndex, build_dph_index,
                  build_index, df_bin_occlusion, dumps_index, eval_ndcg, idf_qlog,
                  ln_q, load_index, paired_bootstrap, predict_q, q_sweep, recovery,
                  rescale_index, rescale_index_gamma, save_index, score_query)
from qlex.evaluation import DEFAULT_Q_GRID
from qlex.index import SCORER_BM25
from qlex.query import rank_tokens, top_k
from qlex.stats import CorpusStats
from qlex.tokenizers import TokenizerMode

from conftest import hapax_mechanism_corpus, make_corpus, random_corpus
from oracles import bm25_scores, dph_scores


@pytest.fixture(autouse=True)
def announce(request, capfd):
    yield
    marker = request.node.get_closest_marker("criterion")
    if marker is None:
        return
    num, desc = marker.args
    rep = getattr(request.node, "rep_call", None)
    if rep is None:
        status = "FAIL"
    elif rep.passed:
        status = "PASS"
    elif rep.skipped:
        status = "SKIP"
    else:
        status = "FAIL"
    with capfd.disabled():
        print(f"[criterion {num:>2}] {status}  {desc}")


def _stats_with_htok(htok: float) -> CorpusStats:
    return CorpusStats(n_tok=1_000_000, hapax_types=round(htok * 1_000_000))


def _synthetic_index(nnz: int, rows_per_col: int = 100,
                     num_docs: int = 10_000, seed: int = 0) -> SparseScoreIndex:
    """Structurally valid BM25-shaped index assembled directly from arrays."""
    v = nnz // rows_per_col
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, num_docs - rows_per_col, size=v, dtype=np.int64)
    row_idx = (starts[:, None] + np.arange(rows_per_col)).astype(np.int32).ravel()
    terms = [f"t{i:0{len(str(v))}d}" for i in range(v)]  # zero-padded, so they ascend
    index = SparseScoreIndex(
        col_ptr=np.arange(v + 1, dtype=np.int64) * rows_per_col,
        row_idx=row_idx,
        scores=rng.uniform(0.1, 5.0, size=v * rows_per_col).astype(np.float32),
        terms=terms,
        doc_ids=[f"d{i}" for i in range(num_docs)],
        header=IndexHeader(mode=TokenizerMode.T1, scorer=SCORER_BM25, k1=1.5, b=0.75,
                           avg_len=float(rows_per_col)),
    )
    index.check_invariants()
    return index


@pytest.mark.criterion(1, "q=1.0 rescale is a bit-identity no-op on scores and rankings")
def test_criterion_01_bit_identity_gate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    corpus = random_corpus(rng, n_docs=100, vocab=120, min_len=5, max_len=40)
    index = build_index(corpus, TokenizerMode.T1)
    before_bytes = dumps_index(index)
    before_scores = index.scores.copy()
    queries = [" ".join(rng.choice([f"w{i}" for i in range(120)], size=4))
               for _ in range(100)]
    before_top = [top_k(index, q, TokenizerMode.T1, 10).doc_ids() for q in queries]

    index = rescale_index(index, 1.0)

    diff = np.abs(index.scores.astype(np.float64) - before_scores.astype(np.float64))
    assert float(diff.max()) == 0.0
    after_top = [top_k(index, q, TokenizerMode.T1, 10).doc_ids() for q in queries]
    assert after_top == before_top
    assert dumps_index(index) == before_bytes
    assert index.header.applied_q is None
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.criterion(2, "case-study IDF table reproduced at q=1 and q=0.1")
def test_criterion_02_case_study_idf_values():
    t0 = time.perf_counter()
    n_docs = 182_440
    # (df, displayed value, displayed decimals)
    table = {
        1.0: [(1, 11.7, 1), (1820, 4.6, 1), (3714, 3.9, 1), (14203, 2.5, 1)],
        0.1: [(1, 41_933.0, 0), (1820, 68.8, 1), (3714, 35.2, 1), (14203, 9.2, 1)],
    }
    for q, rows in table.items():
        for df, displayed, ndigits in rows:
            value = idf_qlog(df, n_docs, q)
            within = abs(value - displayed) / displayed <= 0.005
            rounds_to = round(value, ndigits) == displayed
            assert within or rounds_to, (q, df, value, displayed)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.criterion(3, "predictor reproduces the published htok -> q_pred column")
def test_criterion_03_predictor_arithmetic():
    t0 = time.perf_counter()
    published = [(0.0630, 0.54), (0.0156, 0.89), (0.0244, 0.82),
                 (0.0160, 0.88), (0.0133, 0.90), (0.0206, 0.85)]
    for htok, expected in published:
        assert round(predict_q(_stats_with_htok(htok)), 2) == expected
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.criterion(4, "recovery(0.258, 0.448, 0.487) lands on the published 0.827")
def test_criterion_04_recovery_metric():
    value = recovery(0.258, 0.448, 0.487)
    assert value == pytest.approx(0.8297, abs=0.005)
    assert 0.80 <= value <= 0.85


@pytest.mark.criterion(5, "sparse scoring equals the dense oracle within 1e-9 relative")
def test_criterion_05_dense_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    for trial in range(20):
        n_docs = int(rng.integers(5, 51))
        vocab = int(rng.integers(10, 201))
        corpus = random_corpus(rng, n_docs, vocab, min_len=3, max_len=25)
        index = build_index(corpus, TokenizerMode.T1)
        doc_tokens = [doc.text.split() for doc in corpus]
        words = [f"w{i}" for i in range(vocab)] + ["zz_out_of_vocab"]
        for _ in range(5):
            q_toks = list(rng.choice(words, size=int(rng.integers(1, 7))))
            got = score_query(index, q_toks)
            want = np.array(bm25_scores(doc_tokens, q_toks), dtype=np.float64)
            assert np.allclose(got, want, rtol=1e-9, atol=0.0), (trial, q_toks)
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.criterion(6, "IDF strictly decreasing in df; ln_q saturates below 1/(q-1)")
def test_criterion_06_monotonicity_and_saturation():
    n_docs = 100_000
    for q in (0.05, 0.5, 1.0, 1.5):
        values = idf_qlog(np.arange(1, n_docs + 1), n_docs, q)
        assert np.all(np.diff(values) < 0.0), f"non-monotone at q={q}"
    for x in np.logspace(0.1, 12, 40):
        assert ln_q(float(x), 1.5) < 2.0
    assert ln_q(1e12, 1.5) > 1.99


@pytest.mark.criterion(7, "q within 1e-12 of 1 falls back to the exact natural log")
def test_criterion_07_lhopital_guard():
    for x in (1.001, 2.0, 10.0, 1e3, 1e6):
        for q in (1.0 - 1e-12, 1.0 + 1e-12):
            assert abs(ln_q(x, q) - math.log(x)) < 1e-6


@pytest.mark.criterion(8, "hapax mechanism: low q_opt, >=0.2 NDCG gain, loss in the df=1 bin")
def test_criterion_08_synthetic_mechanism(tmp_path):
    corpus, queries, qrels = hapax_mechanism_corpus(
        n_docs=1000, group_size=100, mids_per_group=16, n_queries=100)
    base = build_index(corpus, TokenizerMode.T0)
    path = tmp_path / "mech.qlx"
    save_index(base, path)

    table = q_sweep(load_index(path), queries, qrels, grid=DEFAULT_Q_GRID)
    means = dict(table.rows)
    assert table.q_opt <= 0.5
    assert means[table.q_opt] - means[1.00] >= 0.2

    rows = df_bin_occlusion(rescale_index(base, table.q_opt), queries, qrels)
    losses = {bin_: loss for bin_, loss in rows}
    assert max(losses, key=losses.get) == (1, 1)
    assert losses[(1, 1)] > 0.0


@pytest.mark.criterion(9, "bootstrap: degenerate CI is [0,0]; seeded runs reproduce exactly")
def test_criterion_09_bootstrap_determinism():
    metric = {f"q{i}": 0.1 * (i % 7) for i in range(40)}
    res = paired_bootstrap(metric, dict(metric), resamples=2000, seed=5)
    assert (res.mean_delta, res.ci_lo, res.ci_hi) == (0.0, 0.0, 0.0)

    rng = np.random.default_rng(90)
    a = {f"q{i}": float(v) for i, v in enumerate(rng.uniform(0, 1, 60))}
    b = {f"q{i}": float(v) for i, v in enumerate(rng.uniform(0, 1, 60))}
    serial = paired_bootstrap(a, b, resamples=4000, seed=123)
    repeat = paired_bootstrap(a, b, resamples=4000, seed=123)
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = [f.result() for f in
                    [pool.submit(paired_bootstrap, a, b, 4000, 123) for _ in range(8)]]
    assert serial == repeat
    assert all(t == serial for t in threaded)


@pytest.mark.criterion(10, "gamma=1.0 sharpening leaves the matrix bit-identical")
def test_criterion_10_gamma_gate():
    rng = np.random.default_rng(33)
    corpus = random_corpus(rng, 60, 80)
    index = build_index(corpus, TokenizerMode.T1)
    before = dumps_index(index)
    index = rescale_index_gamma(index, 1.0)
    assert dumps_index(index) == before
    assert index.header.applied_gamma is None


@pytest.mark.criterion(11, "DPH agrees with an independent reference at median tau = 1.00")
def test_criterion_11_dph_cross_validation():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(70)
    corpus = random_corpus(rng, n_docs=500, vocab=300, min_len=5, max_len=60)
    index = build_dph_index(corpus, TokenizerMode.T1)
    doc_tokens = [doc.text.split() for doc in corpus]
    words = [f"w{i}" for i in range(300)]
    taus = []
    for _ in range(40):
        q_toks = list(rng.choice(words, size=int(rng.integers(3, 7)), replace=False))
        ours = score_query(index, q_toks)
        reference = np.array(dph_scores(doc_tokens, q_toks))
        tau = scipy_stats.kendalltau(ours, reference).statistic
        taus.append(tau)
    assert float(np.median(taus)) >= 1.0 - 1e-12


@pytest.mark.criterion(12, "rescale cost linear in nnz (R^2 >= 0.98); query p50 within 5%")
def test_criterion_12_systems_overhead_shape():
    sizes = [100_000, 300_000, 1_000_000, 3_000_000, 10_000_000]
    pristines = [_synthetic_index(nnz) for nnz in sizes]
    times = [math.inf] * len(sizes)
    # Each round times every size once, so a slow stretch of the host reaches
    # all sizes alike instead of the one that happens to run in it.
    for _ in range(3):
        for at, pristine in enumerate(pristines):
            index = dataclasses.replace(pristine, scores=pristine.scores.copy())
            t0 = time.perf_counter()
            index = rescale_index(index, 0.5)
            times[at] = min(times[at], time.perf_counter() - t0)
    x = np.array(sizes, dtype=np.float64)
    y = np.array(times)
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    r2 = 1.0 - np.sum((y - predicted) ** 2) / np.sum((y - np.mean(y)) ** 2)
    assert slope > 0
    assert r2 >= 0.98, f"R^2 = {r2:.4f}, times = {times}"

    # Same code path on both sides: only the stored values differ.
    plain = _synthetic_index(1_000_000, seed=7)
    transformed = _synthetic_index(1_000_000, seed=7)
    transformed = rescale_index(transformed, 0.5)
    rng = np.random.default_rng(12)
    queries = [list(rng.choice(plain.terms, size=20, replace=False))
               for _ in range(50)]
    laps: dict[str, list[float]] = {"plain": [], "transformed": []}
    for toks in queries:  # warm both before timing
        rank_tokens(plain, toks, 100)
        rank_tokens(transformed, toks, 100)
    # Each query's two calls run back to back, and the side that goes first
    # alternates by round, so machine-speed drift reaches both sides alike.
    sides = (("plain", plain), ("transformed", transformed))
    for round_no in range(11):
        for toks in queries:
            for name, idx in sides[::-1] if round_no % 2 else sides:
                t0 = time.perf_counter()
                rank_tokens(idx, toks, 100)
                laps[name].append(time.perf_counter() - t0)
    p50_plain = float(np.percentile(laps["plain"], 50))
    p50_transformed = float(np.percentile(laps["transformed"], 50))
    assert abs(p50_transformed - p50_plain) / p50_plain < 0.05


@pytest.mark.criterion(13, "full-scale CoIR-Go reproduction (optional, needs fetched data)")
def test_criterion_13_full_scale_optional(tmp_path):
    root = os.environ.get("QLEX_COIR_GO_DIR")
    if not root:
        pytest.skip("optional full-scale check; set QLEX_COIR_GO_DIR to a directory "
                    "holding corpus.jsonl, queries.jsonl, qrels.tsv")
    from qlex import load_corpus, load_qrels, load_queries
    from qlex.evaluation import _walk

    corpus = load_corpus(os.path.join(root, "corpus.jsonl"))
    queries = load_queries(os.path.join(root, "queries.jsonl"))
    qrels = load_qrels(os.path.join(root, "qrels.tsv"))
    judged = [(qid, text) for qid, text in queries if qrels.has_relevant(qid)]

    def ndcg10(index):
        return eval_ndcg({qid: places for qid, _, places in _walk(index, qrels, judged, 10)},
                         qrels)

    index = build_index(corpus, TokenizerMode.T0)
    assert ndcg10(index).mean == pytest.approx(0.2575, abs=0.01)
    index = rescale_index(index, 0.05)
    assert ndcg10(index).mean == pytest.approx(0.4874, abs=0.01)
