"""Index construction against hand arithmetic and a dense oracle."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qlex import (BuildError, BuildParams, build_dph_index, build_index, compute_corpus_stats,
                  load_corpus)
from qlex.index import count_tokens
from qlex.tokenizers import TokenizerMode, tokenize

from conftest import make_corpus, random_corpus
from oracles import bm25_scores, corpus_stats_by_counters, csc_by_counters, lucene_idf

# Stopwords, length-1 words, punctuation, camel/snake identifiers and
# non-ASCII identifiers, so some documents tokenize to nothing in some modes.
# Also a case mapping that changes length ("İ" lowercases to two code points),
# mixed-case stopwords, underscore-only parts and identifiers joined by
# punctuation, where splitting a surface before or after lowercasing differs.
_WORDS = ["the", "of", "and", "a", "x", "ab", "aa0", "parseHTTPServer", "snake_case_id",
          "get2Value", "naïveÜber", "日本語", "ÆgirSøk", "..", "--", "İDfoo", "The", "OF",
          "__init__", "x__y", "fooBar.bazQux"]
# The benchmark's input generator, read-only: the identity gate also runs on
# benchmark-shaped text at smoke size.
_GEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
_gen_spec = importlib.util.spec_from_file_location("perfbench_gen", _GEN_PATH)
perfbench_gen = importlib.util.module_from_spec(_gen_spec)
_gen_spec.loader.exec_module(perfbench_gen)

_TEXTS = st.lists(st.lists(st.sampled_from(_WORDS), max_size=8).map(" ".join),
                  min_size=1, max_size=8)


class TestHandValues:
    def test_single_doc_tf_factor_and_idf(self):
        # One doc "a a b" under T1: tf(a)=2, |d|=3=avgdl, so the tf factor is
        # 2*(k1+1)/(2+k1) = 10/7, and idf = log(1 + 0.5/1.5) = log(4/3).
        corpus = make_corpus(["a a b"])
        index = build_index(corpus, TokenizerMode.T1)
        tid = index.vocab["a"]
        rows, scores = index.column(tid)
        assert rows.tolist() == [0]
        expected = np.float32(math.log(4.0 / 3.0) * (10.0 / 7.0))
        assert scores[0] == expected

    def test_term_in_every_doc_gets_shifted_idf(self):
        corpus = make_corpus(["common alpha", "common beta"])
        index = build_index(corpus, TokenizerMode.T0)
        df, n = index.df, index.num_docs
        tid = index.vocab["common"]
        assert df[tid] == 2 and n == 2
        # Lucene shift keeps the weight strictly positive: log(1 + 0.5/2.5).
        _, scores = index.column(tid)
        assert scores.min() > 0
        expected_idf = math.log(1.2)
        assert math.isclose(
            float(scores[0]),
            np.float32(expected_idf * 1.0), rel_tol=1e-6)

    def test_doc_length_is_post_tokenization(self):
        # Stopwords and length-1 tokens do not count toward |d| under T0.
        corpus = make_corpus(["the a of parser", "parser state machine"])
        index = build_index(corpus, TokenizerMode.T0)
        assert index.doc_lens.tolist() == [1, 3]
        assert index.avg_len == 2.0


class TestStructure:
    def test_csc_invariants_on_random_corpus(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            corpus = random_corpus(rng, n_docs=40, vocab=60)
            index = build_index(corpus, TokenizerMode.T0)
            index.check_invariants()

    def test_zero_df_terms_absent(self):
        corpus = make_corpus(["alpha beta", "beta gamma"])
        index = build_index(corpus, TokenizerMode.T0)
        assert set(index.terms) == {"alpha", "beta", "gamma"}
        assert index.df.min() >= 1

    def test_empty_corpus_rejected(self):
        with pytest.raises(BuildError):
            build_index(make_corpus([]), TokenizerMode.T0)

    def test_tokenless_corpus_rejected(self):
        with pytest.raises(BuildError):
            build_index(make_corpus(["the of a", ". .."]), TokenizerMode.T0)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            BuildParams(k1=-1.0)
        with pytest.raises(ValueError):
            BuildParams(b=1.5)
        with pytest.raises(TypeError):  # the RSJ smoothing constant is fixed at 0.5
            BuildParams(delta=0.4)

    def test_scores_float32_colptr_int64(self):
        index = build_index(make_corpus(["x y", "y z"]), TokenizerMode.T1)
        assert index.scores.dtype == np.float32
        assert index.col_ptr.dtype == np.int64
        assert index.row_idx.dtype == np.int32


class TestDenseOracle:
    """Matrix entries must reproduce a direct dense evaluation."""

    def test_matrix_matches_dense_bm25(self):
        rng = np.random.default_rng(123)
        corpus = random_corpus(rng, n_docs=30, vocab=40)
        index = build_index(corpus, TokenizerMode.T1)
        doc_tokens = [tokenize(d.text, TokenizerMode.T1) for d in corpus]
        for term in index.terms:
            dense = bm25_scores(doc_tokens, [term])
            col_rows, col_scores = index.column(index.vocab[term])
            sparse = np.zeros(len(doc_tokens))
            sparse[col_rows] = col_scores
            np.testing.assert_allclose(sparse, dense, rtol=1e-9, atol=0)

    def test_idf_definition_matches_oracle(self):
        rng = np.random.default_rng(5)
        corpus = random_corpus(rng, 25, 30)
        index = build_index(corpus, TokenizerMode.T1)
        df, n = index.df, index.num_docs
        for tid in range(index.vocab_size):
            assert lucene_idf(int(df[tid]), n) > 0


class TestSharedPass:
    """The one tokenize-and-count pass against per-document Counters."""

    @given(texts=_TEXTS, mode=st.sampled_from(list(TokenizerMode)))
    @example(texts=["the of", "", "parseHTTPServer naïveÜber", "..", "ÆgirSøk the"],
             mode=TokenizerMode.T2)
    @example(texts=["İDfoo The", "__init__ x__y", "fooBar.bazQux OF"], mode=TokenizerMode.T0)
    @settings(max_examples=200, deadline=None)
    def test_matches_counter_oracle(self, texts, mode):
        corpus = make_corpus(texts)
        doc_tokens = [tokenize(t, mode) for t in texts]
        if not any(doc_tokens):
            for build in (count_tokens, build_index, build_dph_index, compute_corpus_stats):
                with pytest.raises(BuildError):
                    build(corpus, mode)
            return
        terms, col_ptr, row_idx, tfs, doc_lens = csc_by_counters(doc_tokens)
        counts = count_tokens(corpus, mode)
        assert counts.tfs.tolist() == tfs
        for index in (build_index(corpus, mode), build_dph_index(corpus, mode)):
            assert index.terms == terms
            assert index.col_ptr.tolist() == col_ptr
            assert index.row_idx.tolist() == row_idx
            assert index.doc_lens.tolist() == doc_lens
            index.check_invariants()
        assert compute_corpus_stats(corpus, mode) == corpus_stats_by_counters(doc_tokens)


class TestBenchmarkText:
    """The shared pass against the Counter oracles on each benchmark workload's corpus."""

    @pytest.mark.parametrize("workload", perfbench_gen.WORKLOADS)
    def test_matches_counter_oracle(self, tmp_path, workload):
        perfbench_gen.generate(workload, 7, tmp_path, smoke=True)
        corpus = load_corpus(tmp_path / "corpus.jsonl")
        for mode in TokenizerMode:
            doc_tokens = [tokenize(doc.text, mode) for doc in corpus]
            terms, col_ptr, row_idx, tfs, doc_lens = csc_by_counters(doc_tokens)
            counts = count_tokens(corpus, mode)
            assert counts.terms == terms
            assert counts.col_ptr.tolist() == col_ptr
            assert counts.rows.tolist() == row_idx
            assert counts.tfs.tolist() == tfs
            assert counts.doc_lens.tolist() == doc_lens
            assert compute_corpus_stats(corpus, mode) == corpus_stats_by_counters(doc_tokens)
