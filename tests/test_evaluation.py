"""Metrics, bootstrap, sweep, occlusion, and budget recall."""

import contextlib
import io
import json
import math
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlex import (Corpus, QlexError, QrelSet, QuerySet, RescaleStateError, cli, batch_retrieve,
                  build_dph_index, build_index, df_bin_occlusion, dumps_index, load_corpus,
                  load_index, load_qrels, load_queries, eval_mrr, eval_ndcg, eval_recall,
                  paired_bootstrap, q_sweep, recall_at_token_budget, rescale_index,
                  rescale_index_gamma, save_index, sweep_to_csv, report_to_tsv, report_to_json,
                  tokenize)
from qlex.evaluation import DEFAULT_DF_BINS, DEFAULT_Q_GRID, SweepTable
from qlex.index import SparseScoreIndex
from qlex.query import rank_tokens
from qlex.tokenizers import TokenizerMode

from conftest import (hapax_mechanism_corpus, make_corpus, random_corpus, write_jsonl_corpus,
                      write_jsonl_queries, write_qrels)
from oracles import (eval_by_batch_retrieve, ndcg_by_hand, occlusion_by_tokens,
                     sweep_by_batch_retrieve)


def placed(qrels, **rankings):
    """Per query id, the (place, gain) pairs of its positively judged documents
    in ``rankings[query_id]``, a ranked list of doc ids: the input of the reports."""
    return {qid: [(i, rel) for i, doc_id in enumerate(doc_ids)
                  if (rel := qrels.for_query(qid).get(doc_id, 0)) > 0]
            for qid, doc_ids in rankings.items()}


def qrels_of(**per_query):
    return QrelSet(judgments={q: dict(rels) for q, rels in per_query.items()})


def ndcg_at_k(qrels, doc_ids, k=10):
    return eval_ndcg(placed(qrels, q1=doc_ids), qrels, k).per_query["q1"]


class TestNdcg:
    def test_single_relevant_at_rank_one(self):
        qrels = qrels_of(q1={"d0": 1})
        assert ndcg_at_k(qrels, ["d0", "d1"], 10) == 1.0

    def test_relevant_below_cutoff_scores_zero(self):
        qrels = qrels_of(q1={"d22": 1})
        hits = [f"d{i}" for i in range(30)]
        assert ndcg_at_k(qrels, hits, 10) == 0.0

    def test_two_relevant_at_ranks_two_and_three(self):
        qrels = qrels_of(q1={"a": 1, "b": 1})
        value = ndcg_at_k(qrels, ["x", "a", "b"], 10)
        expected = (1 / math.log2(3) + 1 / math.log2(4)) / (1 + 1 / math.log2(3))
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(0.6934264, abs=1e-6)

    def test_linear_gains_respect_graded_relevance(self):
        qrels = qrels_of(q1={"a": 3, "b": 1})
        better = ndcg_at_k(qrels, ["a", "b"], 10)
        worse = ndcg_at_k(qrels, ["b", "a"], 10)
        assert better == 1.0 and worse < 1.0

    def test_matches_hand_oracle_on_random_rankings(self):
        # Places run to 40, past the cutoff: only those below 10 may count.
        rng = np.random.default_rng(17)
        docs = [f"d{i}" for i in range(40)]
        for _ in range(50):
            rels = {d: int(r) for d, r in
                    zip(rng.choice(docs, 8, replace=False), rng.integers(0, 4, 8))}
            if not any(v > 0 for v in rels.values()):
                continue
            order = list(rng.permutation(docs))
            qrels = qrels_of(q1=rels)
            got = ndcg_at_k(qrels, order, 10)
            assert got == pytest.approx(ndcg_by_hand(order, rels, 10), rel=1e-12)

    def test_no_relevant_docs_raises(self):
        qrels = qrels_of(q1={"d0": 0})
        with pytest.raises(ValueError):
            ndcg_at_k(qrels, ["d0"], 10)

    @pytest.mark.parametrize("k", [0, -95])
    def test_cutoff_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            ndcg_at_k(qrels_of(q1={"d0": 1}), ["d0"], k)


class TestMrrRecall:
    def test_mrr_first_relevant_at_rank_four(self):
        qrels = qrels_of(q1={"d9": 1})
        assert eval_mrr(placed(qrels, q1=["a", "b", "c", "d9"]), qrels).per_query["q1"] == 0.25

    def test_mrr_zero_when_never_retrieved(self):
        qrels = qrels_of(q1={"gone": 1})
        assert eval_mrr(placed(qrels, q1=["a", "b"]), qrels).per_query["q1"] == 0.0

    def test_recall_fraction(self):
        qrels = qrels_of(q1={"a": 1, "b": 1, "c": 1, "d": 2})
        report = eval_recall(placed(qrels, q1=["a", "x", "d", "y"]), qrels, 3)
        assert report.per_query["q1"] == 0.5

    @pytest.mark.parametrize("k", [0, -95])
    def test_recall_cutoff_below_one_rejected(self, k):
        # A cutoff below one would count no place at all and report 0.0.
        qrels = qrels_of(q1={"d0": 1})
        with pytest.raises(ValueError, match="k must be >= 1"):
            eval_recall(placed(qrels, q1=["d0"]), qrels, k)

    def test_aggregate_skips_and_counts_unjudged_queries(self):
        qrels = qrels_of(q1={"a": 1}, q2={"b": 0})
        report = eval_ndcg(placed(qrels, q1=["a"], q2=["b"], q3=["c"]), qrels, 10)
        assert report.n_queries == 1
        assert report.n_skipped == 2
        assert report.mean == 1.0
        assert list(report.per_query) == ["q1"]

    @pytest.mark.parametrize("metric", [lambda r, q: eval_ndcg(r, q, 10), eval_mrr,
                                        lambda r, q: eval_recall(r, q, 10)],
                             ids=["ndcg", "mrr", "recall"])
    def test_no_judged_query_is_an_error_not_a_zero_mean(self, metric):
        qrels = qrels_of(absent={"d0": 1}, q2={"d0": 0})
        with pytest.raises(ValueError, match="no query has a positively judged document"):
            metric(placed(qrels, q1=["d0"], q2=["d0"]), qrels)

    def test_report_mean_is_arithmetic_mean(self):
        qrels = qrels_of(q1={"a": 1}, q2={"b": 1})
        report = eval_ndcg(placed(qrels, q1=["a"], q2=["x", "b"]), qrels, 10)
        assert report.mean == pytest.approx(
            sum(report.per_query.values()) / 2, rel=1e-15)


class TestBootstrap:
    def test_identical_inputs_give_zero_ci(self):
        metric = {f"q{i}": 0.5 + 0.01 * i for i in range(20)}
        res = paired_bootstrap(metric, dict(metric), resamples=2000, seed=1)
        assert res.mean_delta == 0.0
        assert (res.ci_lo, res.ci_hi) == (0.0, 0.0)

    def test_constant_positive_delta(self):
        a = {f"q{i}": 0.5 for i in range(10)}
        b = {f"q{i}": 0.7 for i in range(10)}
        res = paired_bootstrap(a, b, resamples=2000, seed=3)
        assert res.mean_delta == pytest.approx(0.2)
        assert res.ci_lo == pytest.approx(0.2) and res.ci_hi == pytest.approx(0.2)
        assert res.sign_reversals == 0
        assert res.p_label() == "p <= 0.0005 (empirical resolution)"

    def test_seed_reproducibility_and_thread_independence(self):
        rng = np.random.default_rng(0)
        a = {f"q{i}": float(v) for i, v in enumerate(rng.uniform(0, 1, 50))}
        b = {f"q{i}": float(v) for i, v in enumerate(rng.uniform(0, 1, 50))}
        r1 = paired_bootstrap(a, b, resamples=5000, seed=42)
        r2 = paired_bootstrap(a, b, resamples=5000, seed=42)
        with ThreadPoolExecutor(max_workers=4) as pool:
            r3 = pool.submit(paired_bootstrap, a, b, 5000, 42).result()
        assert r1 == r2 == r3

    def test_different_seed_changes_resamples(self):
        rng = np.random.default_rng(1)
        a = {f"q{i}": float(v) for i, v in enumerate(rng.uniform(0, 1, 30))}
        b = {f"q{i}": float(a[f"q{i}"] + rng.normal(0, 0.2)) for i in range(30)}
        r1 = paired_bootstrap(a, b, resamples=3000, seed=1)
        r2 = paired_bootstrap(a, b, resamples=3000, seed=2)
        assert (r1.ci_lo, r1.ci_hi) != (r2.ci_lo, r2.ci_hi)

    def test_ci_brackets_observed_mean(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            a = {f"q{i}": float(v) for i, v in enumerate(rng.uniform(0, 1, 40))}
            b = {f"q{i}": float(v) for i, v in enumerate(rng.uniform(0, 1, 40))}
            res = paired_bootstrap(a, b, resamples=2000, seed=7)
            assert res.ci_lo <= res.mean_delta <= res.ci_hi

    def test_sign_reversals_counted_against_observed_direction(self):
        # Mostly-positive deltas with one large negative: reversals happen
        # exactly when a resample mean crosses zero.
        a = {f"q{i}": 0.0 for i in range(8)}
        b = {f"q{i}": (-1.0 if i == 0 else 0.3) for i in range(8)}
        res = paired_bootstrap(a, b, resamples=4000, seed=11)
        assert res.mean_delta > 0
        assert 0 < res.sign_reversals < 4000
        assert res.p_label().startswith("p = ")

    def test_keyset_mismatch_rejected(self):
        with pytest.raises(ValueError):
            paired_bootstrap({"a": 1.0}, {"b": 1.0})

    @pytest.mark.parametrize("resamples", [0, -5])
    def test_resamples_below_one_rejected(self, resamples):
        with pytest.raises(ValueError, match="resamples must be >= 1"):
            paired_bootstrap({"a": 0.0}, {"a": 1.0}, resamples=resamples)

    def test_empty_mappings_rejected(self):
        with pytest.raises(ValueError, match="at least one query"):
            paired_bootstrap({}, {})

    def test_p_never_printed_below_resolution(self):
        a = {f"q{i}": 0.0 for i in range(5)}
        b = {f"q{i}": 1.0 for i in range(5)}
        res = paired_bootstrap(a, b, resamples=10_000, seed=0)
        assert res.p_label() == "p <= 1e-4 (empirical resolution)"

    @pytest.mark.parametrize("resamples, label", [
        (100, "p <= 0.01 (empirical resolution)"),
        (1_000, "p <= 0.001 (empirical resolution)"),
        (20_000, "p <= 1e-4 (empirical resolution)"),
    ], ids=["R100", "R1000", "R20000"])
    def test_zero_reversals_bound_is_one_over_resamples(self, resamples, label):
        a = {f"q{i}": 0.0 for i in range(5)}
        b = {f"q{i}": 1.0 for i in range(5)}
        res = paired_bootstrap(a, b, resamples=resamples, seed=0)
        assert res.sign_reversals == 0
        assert res.p_label() == label


class TestSweep:
    def build_base(self, tmp_path):
        corpus, queries, qrels = hapax_mechanism_corpus(
            n_docs=400, group_size=100, mids_per_group=16, n_queries=30)
        index = build_index(corpus, TokenizerMode.T0)
        path = tmp_path / "base.qlx"
        save_index(index, path)
        return load_index(path), queries, qrels

    def test_grid_of_one(self, tmp_path):
        base, queries, qrels = self.build_base(tmp_path)
        table = q_sweep(base, queries, qrels, grid=[1.0])
        assert table.q_opt == 1.0
        assert len(table.rows) == 1

    def test_ties_prefer_larger_q(self, tmp_path):
        base, queries, qrels = self.build_base(tmp_path)
        table = q_sweep(base, queries, qrels, grid=[0.05, 0.10, 0.20])
        means = [m for _, m in table.rows]
        assert means[0] == means[1] == means[2] == 1.0
        assert table.q_opt == 0.20

    def test_empty_grid_rejected(self, tmp_path):
        base, queries, qrels = self.build_base(tmp_path)
        with pytest.raises(ValueError):
            q_sweep(base, queries, qrels, grid=[])

    def test_no_judged_query_rejected(self, tmp_path):
        base, queries, _ = self.build_base(tmp_path)
        with pytest.raises(ValueError, match="no query has a positively judged document"):
            q_sweep(base, queries, qrels_of(absent={"d0": 1}))

    @pytest.mark.parametrize("make_baseline", [
        lambda corpus: rescale_index(build_index(corpus, TokenizerMode.T0), 0.5),
        lambda corpus: rescale_index_gamma(build_index(corpus, TokenizerMode.T0), 2.0),
        lambda corpus: build_dph_index(corpus, TokenizerMode.T0),
    ], ids=["q", "gamma", "dph"])
    def test_transformed_or_dph_baseline_refused(self, tmp_path, make_baseline):
        corpus, queries, qrels = hapax_mechanism_corpus(100, 10, 4, 10)
        path = tmp_path / "base.qlx"
        save_index(make_baseline(corpus), path)
        with pytest.raises(RescaleStateError):
            q_sweep(load_index(path), queries, qrels, grid=[0.3, 1.0])

    @staticmethod
    def common_and_hapaxes():
        """2,000 documents "common wordNNNNN", and a query judged on "common" alone."""
        base = build_index(make_corpus([f"common word{i:05d}" for i in range(2000)]),
                           TokenizerMode.T0)
        return base, QuerySet([("q0", "common")]), qrels_of(q0={"d0": 1})

    @pytest.mark.parametrize("grid", [(-12.0,), (0.5, -12.0)], ids=["alone", "after_a_point"])
    def test_overflow_outside_the_judged_columns_raises(self, grid):
        # At q = -12 each hapax column (df 1) narrows past float32's range, while
        # "common", the only column the judged query reads, stays finite.
        with pytest.raises(ValueError,
                           match=r"rescale to q=-12\.0 gives non-finite float32 scores"):
            q_sweep(*self.common_and_hapaxes(), grid)

    def test_a_loose_overflow_bound_is_no_error(self):
        # At q = 11 the peak |score| (a hapax's) times the largest |factor| ("common"'s)
        # passes float32's range, but no column's own scores do.
        base, queries, qrels = self.common_and_hapaxes()
        assert (q_sweep(base, queries, qrels, [11.0]).rows
                == sweep_by_batch_retrieve(base, queries, qrels, [11.0])[0])

    def test_matches_reload_per_point_and_leaves_the_base_unwritten(self, tmp_path):
        base, queries, qrels = self.build_base(tmp_path)
        path = tmp_path / "base.qlx"
        grid = [0.05, 0.5, 0.7, 1.0, 1.5]
        reference = []
        for q in grid:
            index = rescale_index(load_index(path), q)
            per_query = eval_by_batch_retrieve(index, queries, qrels, 10)[0]["ndcg@10"]
            reference.append((q, float(np.mean(list(per_query.values())))))
        assert len({mean for _, mean in reference}) > 1

        header = base.header
        table = q_sweep(base, queries, qrels, grid=grid)
        assert table.rows == reference
        assert base.header is header and dumps_index(base) == path.read_bytes()

    def test_csv_output_shape(self, tmp_path):
        base, queries, qrels = self.build_base(tmp_path)
        table = q_sweep(base, queries, qrels, grid=[0.3, 1.0])
        csv = sweep_to_csv(table)
        lines = csv.strip().split("\n")
        assert lines[0] == "q,mean_ndcg"
        assert len(lines) == 3

    def test_csv_prints_each_q_as_swept(self):
        # .2f text is kept where it reads back to q; elsewhere it named another q.
        grid = [0.05, 0.125, 0.375, 0.385, 1.0, 2.0, 1e-5]
        table = SweepTable(rows=[(q, 0.5) for q in grid], q_opt=0.125)
        texts = [line.split(",")[0] for line in sweep_to_csv(table).splitlines()[1:]]
        assert texts == ["0.05", "0.125", "0.375", "0.385", "1.00", "2.00", "1e-05"]
        assert [float(text) for text in texts] == grid


class TestOcclusion:
    def test_hapax_bin_carries_the_gain(self, tmp_path):
        corpus, queries, qrels = hapax_mechanism_corpus(
            n_docs=400, group_size=100, mids_per_group=16, n_queries=30)
        index = rescale_index(build_index(corpus, TokenizerMode.T0), 0.1)
        rows = df_bin_occlusion(index, queries, qrels)
        by_bin = {b: loss for b, loss in rows}
        assert index.header.applied_q == 0.1
        hapax_loss = by_bin[(1, 1)]
        assert hapax_loss == max(by_bin.values())
        assert hapax_loss > 0.9
        # Bins with no query tokens contribute exactly zero.
        assert by_bin[(1001, 5000)] == 0.0

    def test_losses_not_clamped(self):
        # "rare" drags the gold doc d1 below d0; occluding the df=1 bin
        # removes it and the run improves, so the loss must go negative.
        corpus = make_corpus(["gold rare", "noise common common", "noise common other"])
        queries = QuerySet([("q1", "rare common")])
        qrels = qrels_of(q1={"d1": 1})
        index = build_index(corpus, TokenizerMode.T1)
        rows = df_bin_occlusion(index, queries, qrels, bins=[(1, 1), (2, 2)])
        by_bin = dict(rows)
        assert by_bin[(1, 1)] < 0.0
        assert by_bin[(2, 2)] == pytest.approx(0.0, abs=1e-12)

    def test_matches_a_depth_100_reference(self):
        # Occlusion ranks to depth 10 only; NDCG@10 must read the same there.
        corpus, queries, qrels = hapax_mechanism_corpus(
            n_docs=400, group_size=100, mids_per_group=16, n_queries=30)
        index = rescale_index(build_index(corpus, TokenizerMode.T0), 0.3)

        def df(token):
            return int(index.df[index.vocab[token]]) if token in index.vocab else 0

        judged = [(qid, tokenize(text, TokenizerMode.T0)) for qid, text in queries
                  if qrels.has_relevant(qid)]
        expected = []
        for lo, hi in DEFAULT_DF_BINS:
            total = 0.0
            for qid, tokens in judged:
                kept = [t for t in tokens if not lo <= df(t) <= (hi or math.inf)]
                rels = qrels.relevant_docs(qid)
                total += (ndcg_by_hand(rank_tokens(index, tokens, 100, qid).doc_ids(), rels, 10)
                          - ndcg_by_hand(rank_tokens(index, kept, 100, qid).doc_ids(), rels, 10))
            expected.append(((lo, hi), total / len(judged)))
        assert any(loss != 0.0 for _, loss in expected)
        assert df_bin_occlusion(index, queries, qrels) == expected

    @pytest.mark.parametrize("bins", [
        [], [(0, 3)], [(5, 2)], [(1, 1), (1, None)], [(1, 5), (3, 8)], [(3, 5), (1, 2)],
        [(1, None), (2, 5)], [(1, 1), (2, None), (3, None)],
    ], ids=["empty", "lo_zero", "hi_below_lo", "open_overlaps", "overlap", "descending",
            "open_not_last", "two_open"])
    def test_invalid_bins_rejected(self, bins):
        corpus, queries, qrels = hapax_mechanism_corpus(100, 10, 4, 10)
        index = build_index(corpus, TokenizerMode.T0)
        with pytest.raises(ValueError, match="df bins"):
            df_bin_occlusion(index, queries, qrels, bins=bins)
        assert index.header.applied_q is None

    def test_no_judged_query_rejected(self):
        corpus, queries, _ = hapax_mechanism_corpus(100, 10, 4, 10)
        index = build_index(corpus, TokenizerMode.T0)
        with pytest.raises(ValueError, match="no query has a positively judged document"):
            df_bin_occlusion(index, queries, qrels_of(absent={"d0": 1}))
        assert index.header.applied_q is None

    def test_gapped_and_single_open_bins_accepted(self):
        corpus, queries, qrels = hapax_mechanism_corpus(100, 10, 4, 10)
        index = build_index(corpus, TokenizerMode.T0)
        assert len(df_bin_occlusion(index, queries, qrels, bins=[(1, None)])) == 1
        assert len(df_bin_occlusion(index, queries, qrels, bins=[(1, 1), (5, None)])) == 2

    def test_default_bins_partition(self):
        lows = [lo for lo, _ in DEFAULT_DF_BINS]
        his = [hi for _, hi in DEFAULT_DF_BINS]
        assert lows[0] == 1 and his[-1] is None
        for (lo, hi), (lo2, _) in zip(DEFAULT_DF_BINS, DEFAULT_DF_BINS[1:]):
            assert lo2 == hi + 1


# Word wK is drawn with probability 2^(K-13), so document frequencies spread
# over the low df bins; hK is document K's own word, a hapax.
_WORD = st.integers(1, 2**12 - 1).map(lambda x: f"w{x.bit_length()}")


@st.composite
def _judged_collection(draw):
    """A corpus, queries and qrels.  Queries repeat tokens, mix in hapaxes and
    an out-of-vocabulary word, and always include an empty query and an
    OOV-only one; every query is judged, the first positively.  A query
    judges up to 15 documents, more than NDCG_CUTOFF, with grade 0 mixed
    among the positive grades, and some judged ids are not in the corpus."""
    n_docs = draw(st.integers(2, 30))
    texts = []
    for i in range(n_docs):
        words = draw(st.lists(_WORD, min_size=1, max_size=8))
        texts.append(" ".join(words + [f"h{i}"] * draw(st.integers(0, 2))))
    query_word = st.one_of(_WORD, st.integers(0, n_docs - 1).map(lambda i: f"h{i}"),
                           st.just("zzoov"))
    drawn = draw(st.lists(st.lists(st.tuples(query_word, st.integers(1, 3)), max_size=8),
                          min_size=1, max_size=8))
    texts_q = [" ".join(w for w, mult in pairs for _ in range(mult)) for pairs in drawn]
    texts_q += ["", "zzoov zzoov"]
    queries = QuerySet([(f"q{j}", text) for j, text in enumerate(texts_q)])
    judgments = {}
    for j in range(len(texts_q)):
        docs = draw(st.lists(st.integers(0, n_docs + 2), min_size=1, max_size=15, unique=True))
        judgments[f"q{j}"] = {f"d{d}": draw(st.integers(int(j == 0), 2)) for d in docs}
    return make_corpus(texts), queries, QrelSet(judgments=judgments)


class TestAgainstTheTokenBodies:
    """The sweep and the occlusion equal the bodies that re-tokenized per grid
    point and per bin (``tests/oracles.py``), exactly."""

    @settings(deadline=None, max_examples=200)  # the deep profile's 2,000 take 2 minutes
    @given(data=_judged_collection(), mode=st.sampled_from([TokenizerMode.T0, TokenizerMode.T1]),
           grid=st.lists(st.sampled_from([0.05, 0.3, 0.7, 1.0, 2.0]), min_size=1, max_size=4),
           only_oov=st.booleans())
    def test_sweep_equals_batch_retrieve_per_point(self, data, mode, grid, only_oov):
        corpus, queries, qrels = data
        grid = grid + [1.5]  # every grid has a q > 1
        # A judged query "qs" repeats q0's tokens and adds a document's, so judged
        # queries share columns; the OOV-only query is judged too, and with only_oov
        # it is the only judged one, so the sweep's judged columns are none.
        oov = queries.ids[-1]
        queries = QuerySet([*queries, ("qs", f"{queries.texts[0]} " * 2 + corpus.texts[0])])
        qrels = QrelSet(judgments={oov: {"d0": 1}} if only_oov else
                        {**qrels.judgments, oov: {"d0": 1}, "qs": {"d1": 2, "d0": 0}})
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "base.qlx"
            save_index(build_index(corpus, mode), path)
            base = load_index(path)
            table = q_sweep(base, queries, qrels, grid)
            rows, q_opt = sweep_by_batch_retrieve(base, queries, qrels, grid)
        assert table.rows == rows
        assert table.q_opt == q_opt

    @settings(deadline=None, max_examples=200)  # the deep profile's 2,000 take 2 minutes
    @given(data=_judged_collection(), mode=st.sampled_from([TokenizerMode.T0, TokenizerMode.T1]),
           make=st.sampled_from(["bm25", "q0.3", "q1.5", "dph"]),
           bins=st.sampled_from([DEFAULT_DF_BINS, ((1, 1), (2, None)), ((2, 3), (6, None))]))
    def test_occlusion_equals_the_token_filter(self, data, mode, make, bins):
        corpus, queries, qrels = data
        if make == "dph":
            index = build_dph_index(corpus, mode)
        else:
            index = build_index(corpus, mode)
            if make != "bm25":
                index = rescale_index(index, float(make[1:]))
        assert (df_bin_occlusion(index, queries, qrels, bins)
                == occlusion_by_tokens(index, queries, qrels, bins))


class TestEvalAgainstTheRankings:
    """``qlex eval`` equals plain loops over ``batch_retrieve`` rankings
    (``tests/oracles.py``), exactly: its report reads places, not rankings."""

    @settings(deadline=None, max_examples=200)
    @given(data=_judged_collection(), mode=st.sampled_from([TokenizerMode.T0, TokenizerMode.T1]),
           make=st.sampled_from(["bm25", "q0.3", "q1.5", "dph"]), k=st.sampled_from([1, 5, 10, 150]),
           budgets=st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True).map(sorted))
    def test_report_budget_rows_and_bootstrap_equal_the_reference(self, data, mode, make, k,
                                                                 budgets):
        corpus, queries, qrels = data
        base = build_index(corpus, mode)
        if make == "dph":
            index = build_dph_index(corpus, mode)
        else:
            index = build_index(corpus, mode)
            if make != "bm25":
                index = rescale_index(index, float(make[1:]))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_index(index, tmp / "index.qlx")
            save_index(base, tmp / "base.qlx")
            write_jsonl_corpus(tmp / "corpus.jsonl", corpus)
            write_jsonl_queries(tmp / "queries.jsonl", list(queries))
            write_qrels(tmp / "qrels.tsv", [(qid, doc_id, rel) for qid, by in qrels.judgments.items()
                                            for doc_id, rel in by.items()])
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main([str(arg) for arg in (
                    "eval", "--index", tmp / "index.qlx", "--queries", tmp / "queries.jsonl",
                    "--qrels", tmp / "qrels.tsv", "--k", k, "--format", "json",
                    "--out", tmp / "report.json", "--compare-index", tmp / "base.qlx",
                    "--resamples", 20, "--seed", 3, "--budgets", ",".join(map(str, budgets)),
                    "--corpus", tmp / "corpus.jsonl")])
            assert rc == 0, err.getvalue()
            report = json.loads((tmp / "report.json").read_text(encoding="utf-8"))

        expected, rows = eval_by_batch_retrieve(index, queries, qrels, k, budgets, corpus)
        for name, per_query in expected.items():
            assert report[name] == {"per_query": per_query, "n_queries": len(per_query),
                                    "n_skipped": len(queries) - len(per_query),
                                    "mean": float(np.mean(list(per_query.values())))}
        base_ndcg = eval_by_batch_retrieve(base, queries, qrels, 10)[0]["ndcg@10"]
        boot = paired_bootstrap(expected["ndcg@10"], base_ndcg, resamples=20, seed=3)
        assert report["bootstrap"] == json.loads(report_to_json({}, boot))["bootstrap"]
        # At most 10 judged queries: distinct recalls differ in the 4 printed digits.
        assert ([line for line in err.getvalue().splitlines() if "tok\t" in line]
                == [f"recall@{budget}tok\t{rec:.4f}" for budget, rec in rows])


class TestEvalPathReadsNoTermMap:
    """The sweep, the occlusion and ``qlex eval`` find their judged tokens'
    columns without reading ``SparseScoreIndex.vocab``, to the same outputs."""

    @staticmethod
    def _judged(tmp):
        return load_queries(tmp / "queries.jsonl"), load_qrels(tmp / "qrels.tsv")

    def _sweep(self, tmp):
        return sweep_to_csv(q_sweep(load_index(tmp / "base.qlx"), *self._judged(tmp),
                                    [0.05, 0.3, 1.0, 2.0]))

    def _occlusion(self, tmp):
        return df_bin_occlusion(rescale_index(load_index(tmp / "base.qlx"), 0.3),
                                *self._judged(tmp))

    @staticmethod
    def _eval(tmp):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main([str(arg) for arg in (
                "eval", "--index", tmp / "q03.qlx", "--queries", tmp / "queries.jsonl",
                "--qrels", tmp / "qrels.tsv", "--format", "json", "--compare-index",
                tmp / "base.qlx", "--resamples", 50, "--budgets", "16,32,64,128",
                "--corpus", tmp / "corpus.jsonl", "--out", tmp / "report.json")])
        return rc, err.getvalue(), (tmp / "report.json").read_text(encoding="utf-8")

    @pytest.mark.parametrize("run", ["_sweep", "_occlusion", "_eval"])
    def test_same_output_with_vocab_unreadable(self, tmp_path, monkeypatch, run):
        corpus, queries, qrels = hapax_mechanism_corpus(
            n_docs=400, group_size=100, mids_per_group=16, n_queries=30)
        base = build_index(corpus, TokenizerMode.T0)
        save_index(base, tmp_path / "base.qlx")
        save_index(rescale_index(base, 0.3), tmp_path / "q03.qlx")
        write_jsonl_corpus(tmp_path / "corpus.jsonl", corpus)
        # Every query also holds a word outside the vocabulary.
        write_jsonl_queries(tmp_path / "queries.jsonl",
                            [(qid, text + " zzoov") for qid, text in queries])
        write_qrels(tmp_path / "qrels.tsv", [(qid, doc_id, rel)
                                             for qid, by in qrels.judgments.items()
                                             for doc_id, rel in by.items()])
        want = getattr(self, run)(tmp_path)

        def unreadable(index):
            raise AssertionError("the eval path read SparseScoreIndex.vocab")
        monkeypatch.setattr(SparseScoreIndex, "vocab", property(unreadable))
        assert getattr(self, run)(tmp_path) == want


class TestTokenBudgetRecall:
    def build(self, depth=3):
        # d0: 4 tokens, d1: 6 tokens, d2: 2 tokens. Query hits d0 then d1.
        corpus = make_corpus(["gold gold gold shared", "shared b c d e f", "tiny doc"])
        index = build_index(corpus, TokenizerMode.T1)
        queries = QuerySet([("q1", "gold shared")])
        rankings = batch_retrieve(index, queries, depth)
        return corpus, rankings

    def test_budget_must_cover_gold_prefix(self):
        corpus, rankings = self.build()
        qrels = qrels_of(q1={"d1": 1})  # gold at rank 2, behind d0's 4 tokens
        rows = recall_at_token_budget(rankings, qrels, [4, 9, 10, 16], corpus)
        assert rows == [(4, 0.0), (9, 0.0), (10, 1.0), (16, 1.0)]

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(12)
        corpus = random_corpus(rng, 30, 20, min_len=3, max_len=12)
        index = build_index(corpus, TokenizerMode.T1)
        queries = QuerySet([(f"q{i}", f"w{i} w{i+1}") for i in range(10)])
        qrels = QrelSet(judgments={f"q{i}": {f"d{i}": 1} for i in range(10)})
        rankings = batch_retrieve(index, queries, 100)
        rows = recall_at_token_budget(rankings, qrels, [8, 32, 128, 512], corpus)
        values = [r for _, r in rows]
        assert values == sorted(values)

    def test_unrecalled_when_gold_missing_from_ranking(self):
        corpus, rankings = self.build(depth=2)
        qrels = qrels_of(q1={"d2": 1})  # d2 never matches the query
        rows = recall_at_token_budget(rankings, qrels, [10_000], corpus)
        assert rows == [(10_000, 0.0)]

    def lacking(self, tmp_path, corpus, doc_id):
        """``corpus`` without ``doc_id``, loaded from a file."""
        kept = Corpus(doc for doc in corpus if doc.doc_id != doc_id)
        return load_corpus(write_jsonl_corpus(tmp_path / "lacking.jsonl", kept))

    def test_walked_hit_missing_from_the_corpus_is_refused(self, tmp_path):
        corpus, rankings = self.build()
        qrels = qrels_of(q1={"d1": 1})  # the walk reads d0 before d1
        lacking = self.lacking(tmp_path, corpus, "d0")
        with pytest.raises(QlexError) as refused:
            recall_at_token_budget(rankings, qrels, [16], lacking)
        assert "'d0'" in str(refused.value) and lacking.path in str(refused.value)

    def test_hit_below_the_first_relevant_one_may_be_missing(self, tmp_path):
        corpus, rankings = self.build()
        qrels = qrels_of(q1={"d0": 1})  # the walk stops at d0, above d1
        lacking = self.lacking(tmp_path, corpus, "d1")
        rows = recall_at_token_budget(rankings, qrels, [3, 4], lacking)
        assert rows == [(3, 0.0), (4, 1.0)]

    def test_budgets_validated(self):
        corpus, rankings = self.build()
        qrels = qrels_of(q1={"d0": 1})
        with pytest.raises(ValueError):
            recall_at_token_budget(rankings, qrels, [16, 8], corpus)
        with pytest.raises(ValueError):
            recall_at_token_budget(rankings, qrels, [], corpus)


class TestReportWriters:
    def test_tsv_and_json_shapes(self):
        qrels = qrels_of(q1={"a": 1}, q2={"b": 1})
        places = placed(qrels, q1=["a"], q2=["x", "b"])
        reports = {"ndcg@10": eval_ndcg(places, qrels, 10), "mrr": eval_mrr(places, qrels)}
        tsv = report_to_tsv(reports)
        assert tsv.startswith("query_id\tndcg@10\tmrr")
        assert tsv.strip().split("\n")[-1].startswith("mean\t")
        payload = json.loads(report_to_json(reports))
        assert payload["mrr"]["n_queries"] == 2
        assert "per_query" in payload["ndcg@10"]
