"""Query scoring, ranking determinism, and the run-file surface."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qlex import (ModeMismatchError, batch_retrieve, build_dph_index, build_index,
                  format_trec_run, rescale_index, rescale_index_gamma, score_query,
                  top_k, QuerySet)
from qlex.query import RankedList, _position, rank_from_scores
from qlex.tokenizers import TokenizerMode, tokenize

from conftest import hapax_mechanism_corpus, make_corpus, random_corpus
from oracles import bm25_scores, rank_by_full_sort, score_by_scatter


class TestScoreQuery:
    def test_matches_dense_oracle_on_multi_token_queries(self):
        rng = np.random.default_rng(31)
        corpus = random_corpus(rng, 40, 30)
        index = build_index(corpus, TokenizerMode.T1)
        doc_tokens = [tokenize(d.text, TokenizerMode.T1) for d in corpus]
        for _ in range(20):
            qtoks = list(rng.choice([f"w{i}" for i in range(30)], size=rng.integers(1, 6)))
            got = score_query(index, qtoks)
            want = bm25_scores(doc_tokens, qtoks)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    def test_unknown_tokens_contribute_nothing(self):
        index = build_index(make_corpus(["x y", "y z"]), TokenizerMode.T1)
        assert np.array_equal(score_query(index, ["nope"]), np.zeros(2))

    def test_token_multiplicity_counts(self):
        index = build_index(make_corpus(["x y", "y z"]), TokenizerMode.T1)
        once = score_query(index, ["y"])
        twice = score_query(index, ["y", "y"])
        np.testing.assert_allclose(twice, 2.0 * once, rtol=1e-15)

    def test_accumulator_is_float64(self):
        index = build_index(make_corpus(["x y"]), TokenizerMode.T1)
        assert score_query(index, ["x"]).dtype == np.float64

    def test_same_code_path_serves_all_scorers(self):
        corpus = random_corpus(np.random.default_rng(8), 20, 15)
        plain = build_index(corpus, TokenizerMode.T1)
        qlog = build_index(corpus, TokenizerMode.T1)
        qlog = rescale_index(qlog, 0.3)
        gamma = build_index(corpus, TokenizerMode.T1)
        gamma = rescale_index_gamma(gamma, 2.0)
        dph = build_dph_index(corpus, TokenizerMode.T1)
        for index in (plain, qlog, gamma, dph):
            scores = score_query(index, ["w0", "w1"])
            assert scores.shape == (20,) and np.all(np.isfinite(scores))


class TestTopK:
    def test_ties_break_by_ascending_doc_index(self):
        # Identical docs get identical scores; order must follow doc index.
        index = build_index(make_corpus(["same text", "same text", "same text"]),
                            TokenizerMode.T1)
        ranked = top_k(index, "same", TokenizerMode.T1, 3)
        assert ranked.doc_ids() == ["d0", "d1", "d2"]

    def test_all_zero_scores_yield_index_order(self):
        index = build_index(make_corpus(["aa bb", "cc dd", "ee ff"]), TokenizerMode.T1)
        ranked = top_k(index, "zz", TokenizerMode.T1, 2)
        assert ranked.doc_ids() == ["d0", "d1"]
        assert all(s == 0.0 for _, s in ranked.hits)

    def test_k_caps_at_corpus_size(self):
        index = build_index(make_corpus(["aa", "bb"]), TokenizerMode.T1)
        assert len(top_k(index, "aa", TokenizerMode.T1, 10).hits) == 2

    def test_k_must_be_positive(self):
        index = build_index(make_corpus(["aa"]), TokenizerMode.T1)
        with pytest.raises(ValueError):
            top_k(index, "aa", TokenizerMode.T1, 0)

    def test_mode_mismatch_rejected(self):
        index = build_index(make_corpus(["aa bb"]), TokenizerMode.T0)
        with pytest.raises(ModeMismatchError):
            top_k(index, "aa", TokenizerMode.T1, 1)

    def test_scores_descending(self):
        rng = np.random.default_rng(4)
        corpus = random_corpus(rng, 50, 20)
        index = build_index(corpus, TokenizerMode.T1)
        ranked = top_k(index, "w0 w1 w2", TokenizerMode.T1, 50)
        scores = [s for _, s in ranked.hits]
        assert scores == sorted(scores, reverse=True)


def _docs(n: int) -> SimpleNamespace:
    return SimpleNamespace(doc_ids=[f"d{i}" for i in range(n)])


# Identifier-like words: camel/snake/acronym/digit surfaces split under t2/t3,
# and parts shared between surfaces ("user", "parse") repeat inside one query.
_WORDS = ["getUser", "user_id", "HTTPServer", "parseJSON2", "Parse", "i18n", "data",
          "userData", "sha256sum", "fooBar_baz", "über_Name"]
_SCORERS = {
    "bm25": build_index,
    "dph": build_dph_index,
    "q2": lambda c, m: rescale_index(build_index(c, m), 2.0),
    "q0.3": lambda c, m: rescale_index(build_index(c, m), 0.3),
    "gamma2": lambda c, m: rescale_index_gamma(build_index(c, m), 2.0),
}


def _assert_scores_match_scatter(index, tokens) -> None:
    got = score_query(index, tokens)
    assert got.dtype == np.float64
    assert got.tobytes() == score_by_scatter(index, tokens).tobytes()


class TestScoreQueryByteIdentity:
    """``score_query`` gives the bytes of the column-by-column scatter-add."""

    @settings(deadline=None)
    @given(docs=st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=12),
                         min_size=1, max_size=25),
           query=st.lists(st.sampled_from(_WORDS + ["the", "oov_Term"]), max_size=30),
           picks=st.lists(st.integers(0, 99), max_size=40),
           mode=st.sampled_from(list(TokenizerMode)),
           scorer=st.sampled_from(sorted(_SCORERS)))
    def test_matches_scatter_add(self, docs, query, picks, mode, scorer):
        index = _SCORERS[scorer](make_corpus([" ".join(d) for d in docs]), mode)
        _assert_scores_match_scatter(index, tokenize(" ".join(query), mode))
        # Raw vocabulary terms in the drawn order, repeats included.
        _assert_scores_match_scatter(index, [index.terms[i % index.vocab_size] for i in picks])
        # Most terms repeated, up to 4 times, so repeated columns sit between single ones.
        _assert_scores_match_scatter(index, [index.terms[i % index.vocab_size]
                                             for i in picks for _ in range(1 + i % 4)])

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(0, 30))
    def test_long_query_keeps_the_summation_order(self, seed, exponent):
        # BM25 sums of float32 scores are often exact in float64, whatever the
        # order; scores spread over many magnitudes make the order visible.
        rng = np.random.default_rng(seed)
        index = build_index(random_corpus(rng, 30, 25, min_len=10, max_len=30), TokenizerMode.T1)
        magnitudes = 10.0 ** rng.uniform(-exponent, exponent, index.nnz)
        index.scores[...] = rng.standard_normal(index.nnz) * magnitudes
        terms = list(rng.permutation(index.terms))
        _assert_scores_match_scatter(index, terms + terms[:5])

    @pytest.mark.parametrize("mult", [3, 7])
    def test_repeated_token_is_widened_before_it_is_multiplied(self, mult):
        # A float32 product by 3 or 7 rounds (by 2 it is exact), so the
        # repeated column must be widened to float64 first.
        rng = np.random.default_rng(mult)
        index = build_index(random_corpus(rng, 40, 20, min_len=10, max_len=30), TokenizerMode.T1)
        magnitudes = 10.0 ** rng.uniform(-20, 20, index.nnz)
        index.scores[...] = rng.standard_normal(index.nnz) * magnitudes
        tid, other_tid = np.argsort(-index.df, kind="stable")[:2]
        term, other = index.terms[tid], index.terms[other_tid]
        col = index.scores[index.col_ptr[tid]:index.col_ptr[tid + 1]]
        assert np.any((col * np.float32(mult)).astype(np.float64) != col.astype(np.float64) * mult)
        _assert_scores_match_scatter(index, [term] * mult)
        _assert_scores_match_scatter(index, [other, term] * mult + [other])

    def test_single_column_query(self):
        index = build_index(make_corpus(["aa bb", "bb cc", "cc", "bb"]), TokenizerMode.T1)
        scores = score_query(index, ["bb", "oov"])
        start, end = index.col_ptr[index.vocab["bb"]:index.vocab["bb"] + 2]
        want = np.zeros(4)
        want[index.row_idx[start:end]] = index.scores[start:end]
        assert scores.tobytes() == want.tobytes()
        _assert_scores_match_scatter(index, ["bb", "oov"])

    @pytest.mark.parametrize("tokens", [[], ["oov"], ["oov", "oov", "nope"]],
                             ids=["empty", "oov", "oov-repeated"])
    def test_no_match_is_all_zero(self, tokens):
        index = build_index(make_corpus(["aa bb", "bb cc", "cc"]), TokenizerMode.T1)
        scores = score_query(index, tokens)
        assert scores.tobytes() == np.zeros(3).tobytes()
        _assert_scores_match_scatter(index, tokens)


def _assert_matches_full_sort(index, scores: np.ndarray, k: int) -> None:
    """Same doc order and the same float64 scores, bit for bit (NaN, -0.0)."""
    ranked = rank_from_scores(index, scores, k)
    want = rank_by_full_sort(scores, k)
    assert ranked.doc_ids() == [index.doc_ids[i] for i in want]
    got = np.array([s for _, s in ranked.hits], dtype=np.float64)
    assert got.tobytes() == scores[want].tobytes()


# A small pool of values makes ties, signed zeros and non-finite entries common.
_TIE_POOL = [0.0, -0.0, 1.0, 2.5, 2.5000000000000004, -1.0, -3.0,
             math.inf, -math.inf, math.nan]
_SCORES = hnp.arrays(
    np.float64, st.integers(1, 60),
    elements=st.one_of(st.sampled_from(_TIE_POOL),
                       st.floats(allow_nan=True, allow_infinity=True)))



@st.composite
def _mass_ties(draw):
    """Mostly-zero vectors with a few tied levels either side of zero."""
    n, n_pos, n_neg = (draw(st.integers(lo, 300)) for lo in (1, 0, 0))
    levels = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = np.zeros(n)
    scores[rng.integers(0, n, n_pos)] = rng.integers(1, levels + 1, n_pos)
    scores[rng.integers(0, n, n_neg)] = -rng.integers(1, levels + 1, n_neg)
    return scores


_MASS_TIES = _mass_ties()


class TestRankFromScores:
    @given(scores=_SCORES, k=st.integers(1, 70))
    def test_matches_stable_full_sort(self, scores, k):
        _assert_matches_full_sort(_docs(scores.size), scores, k)

    @given(scores=_MASS_TIES, k=st.integers(1, 310))
    def test_mass_ties_at_the_kth_value(self, scores, k):
        _assert_matches_full_sort(_docs(scores.size), scores, k)

    @pytest.mark.parametrize("k", [1, 7, 10, 11, 100])
    @pytest.mark.parametrize("scores", [
        np.zeros(10),
        np.array([-0.0, 0.0, -0.0, 1.0, 0.0, -0.0, -1.0, 0.0, -0.0, 0.0]),
        np.array([math.nan, -math.inf, 0.0, math.inf, -0.0, 1.0, math.inf, math.nan, -2.0,
                  -math.inf]),
        np.array([3.0, 3.0, 1.0, 3.0, 0.0, 3.0, -1.0, 3.0, 3.0, 3.0]),
    ], ids=["all-zero", "signed-zeros", "non-finite", "ties-at-kth"])
    def test_edge_vectors(self, scores, k):
        _assert_matches_full_sort(_docs(scores.size), scores, k)

    # Non-zero values packed at the front of a mostly-zero vector: negatives
    # and NaN there leave the first k entries short of zeros, so the prefix
    # the zero class is read from must grow, once or up to the whole vector.
    _FRONT_POOL = [1.0, 2.5, math.inf, -1.0, -3.0, -math.inf, math.nan, -0.0, 0.0]

    @settings(deadline=None)
    @given(n=st.integers(1, 3000), front=st.floats(0.0, 1.0),
           mix=st.lists(st.sampled_from(_FRONT_POOL), min_size=1, max_size=6),
           small_k=st.integers(1, 40), k_frac=st.one_of(st.none(), st.floats(0.0, 1.0)),
           seed=st.integers(0, 2**32 - 1))
    def test_long_vectors_with_a_packed_front(self, n, front, mix, small_k, k_frac, seed):
        rng = np.random.default_rng(seed)
        scores = np.zeros(n)
        head = int(front * n)
        scores[:head] = rng.choice(np.array(mix), head)
        k = small_k if k_frac is None else 1 + int(k_frac * (n + 4))
        _assert_matches_full_sort(_docs(n), scores, k)

    def test_dph_index_with_negative_scores(self):
        rng = np.random.default_rng(8)
        index = build_dph_index(random_corpus(rng, 40, 12), TokenizerMode.T1)
        assert (index.scores < 0).any()
        words = [f"w{i}" for i in range(12)]
        for _ in range(30):
            tokens = list(rng.choice(words, size=rng.integers(1, 5)))
            _assert_scores_match_scatter(index, tokens)
            scores = score_query(index, tokens)
            for k in (1, 10, 40, 45):
                _assert_matches_full_sort(index, scores, k)

    def test_bm25_beyond_q1_with_a_majority_term(self):
        # "common" sits in 30 of 40 docs (df > N/2): its IDF turns negative at q > 1.
        rng = np.random.default_rng(12)
        texts = [("common " if i < 30 else "") + " ".join(rng.choice(["a", "b", "c", "d"], 3))
                 for i in range(40)]
        index = build_index(make_corpus(texts), TokenizerMode.T1)
        index = rescale_index(index, 2.0)
        for query in (["common"], ["common", "a"], ["common", "b", "b"], ["zz"]):
            _assert_scores_match_scatter(index, query)
            scores = score_query(index, query)
            for k in (1, 5, 40, 41):
                _assert_matches_full_sort(index, scores, k)
        assert (score_query(index, ["common"]) < 0).any()

    def test_hapax_corpus_run_file_is_byte_identical(self):
        corpus, queries, _ = hapax_mechanism_corpus(
            n_docs=1000, group_size=100, mids_per_group=16, n_queries=100)
        for q in (None, 0.3):
            index = build_index(corpus, TokenizerMode.T0)
            if q is not None:
                index = rescale_index(index, q)
            oracle = []
            for qid, text in queries:
                scores = score_query(index, tokenize(text, TokenizerMode.T0))
                order = rank_by_full_sort(scores, 100)
                oracle.append(RankedList(qid, [(index.doc_ids[i], float(scores[i]))
                                               for i in order]))
            got = batch_retrieve(index, queries, 100)
            assert format_trec_run(got) == format_trec_run(oracle)


def _run_by_full_sort(index, queries: QuerySet, mode: TokenizerMode, k: int) -> str:
    """The TREC run of ``queries`` ranked by the stable full sort oracle."""
    rankings = []
    for qid, text in queries:
        scores = score_query(index, tokenize(text, mode))
        rankings.append(RankedList(qid, [(index.doc_ids[i], float(scores[i]))
                                         for i in rank_by_full_sort(scores, k)]))
    return format_trec_run(rankings)


class TestPosition:
    """``_position`` reads the order ``rank_from_scores`` ranks by: every
    document's place in a stable sort of all N negated scores."""

    @staticmethod
    def _assert_places(scores):
        places = np.empty(scores.size, dtype=np.intp)
        places[rank_by_full_sort(scores, scores.size)] = np.arange(scores.size)
        assert [_position(scores, i) for i in range(scores.size)] == places.tolist()

    @given(scores=_SCORES)
    def test_matches_stable_full_sort(self, scores):
        self._assert_places(scores)

    @given(scores=_MASS_TIES)
    def test_mass_ties(self, scores):
        self._assert_places(scores)


class TestBatchAndRunFile:
    @pytest.mark.parametrize("scorer", sorted(_SCORERS))
    def test_run_file_when_most_queries_match_fewer_than_k(self, scorer):
        # 600 documents over a 3,000-word vocabulary, so a query of 1-3 words
        # matches a handful; "common" sits in two thirds of them, so at q = 0.3
        # and q = 2 its negative scores sit among the zeros that fill k.
        rng = np.random.default_rng(41)
        words = [f"w{i}" for i in range(3000)]
        texts = [("common " if rng.random() < 2 / 3 else "")
                 + " ".join(rng.choice(words, size=rng.integers(3, 8))) for _ in range(600)]
        index = _SCORERS[scorer](make_corpus(texts), TokenizerMode.T1)
        queries = QuerySet([(f"q{j}", " ".join(rng.choice(words + ["common"] * 300,
                                                           size=rng.integers(1, 4))))
                            for j in range(60)])
        k = 100
        matched = [np.count_nonzero(score_query(index, tokenize(t, TokenizerMode.T1)) != 0)
                   for _, t in queries]
        assert sum(m < k for m in matched) > len(matched) / 2
        got = format_trec_run(batch_retrieve(index, queries, k))
        assert got == _run_by_full_sort(index, queries, TokenizerMode.T1, k)

    def test_batch_preserves_query_order(self):
        index = build_index(make_corpus(["aa bb", "bb cc"]), TokenizerMode.T1)
        queries = QuerySet([("q2", "bb"), ("q1", "aa")])
        rankings = batch_retrieve(index, queries, 2)
        assert [r.query_id for r in rankings] == ["q2", "q1"]

    def test_trec_run_format(self):
        index = build_index(make_corpus(["aa bb", "bb cc"]), TokenizerMode.T1)
        rankings = batch_retrieve(index, QuerySet([("q1", "bb aa")]), 2)
        text = format_trec_run(rankings)
        lines = [l.split("\t") for l in text.strip().split("\n")]
        assert [l[0] for l in lines] == ["q1", "q1"]
        assert [l[2] for l in lines] == ["1", "2"]
        assert float(lines[0][3]) >= float(lines[1][3])
