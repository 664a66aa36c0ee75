"""Index construction against hand arithmetic and a dense oracle."""

import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qlex import (BuildError, Document, IndexHeader, QrelSet, QuerySet, RescaleStateError,
                  build_dph_index, build_index, compute_corpus_stats, df_bin_occlusion, evaluation,
                  load_corpus, q_sweep, top_k)
from qlex import index as index_module
from qlex.index import SparseScoreIndex, by_column_runs, count_tokens
from qlex.storage import dumps_index, load_index, loads_index, save_index
from qlex.transforms import rescale_index, rescale_index_gamma
from qlex.tokenizers import TokenizerMode, tokenize, word_split

from conftest import (IMPOSSIBLE_HEADER_IDS, IMPOSSIBLE_HEADERS, IN_MEMORY_IMPOSSIBLE_HEADER_IDS,
                      IN_MEMORY_IMPOSSIBLE_HEADERS, RUN_TEXTS, column_slice, make_corpus,
                      perfbench_gen, random_corpus, run_length, write_jsonl_corpus)
from oracles import (bm25_bake_whole, bm25_scores, corpus_stats_by_counters, csc_by_counters,
                     dph_bake_whole, lucene_idf)

# Stopwords, length-1 words, punctuation, camel/snake identifiers and
# non-ASCII identifiers, so some documents tokenize to nothing in some modes.
# Also a case mapping that changes length ("İ" lowercases to two code points),
# mixed-case stopwords, underscore-only parts and identifiers joined by
# punctuation, where splitting a surface before or after lowercasing differs.
_WORDS = ["the", "of", "and", "a", "x", "ab", "aa0", "parseHTTPServer", "snake_case_id",
          "get2Value", "naïveÜber", "日本語", "ÆgirSøk", "..", "--", "İDfoo", "The", "OF",
          "__init__", "x__y", "fooBar.bazQux"]

_TEXTS = st.lists(st.lists(st.sampled_from(_WORDS), max_size=8).map(" ".join),
                  min_size=1, max_size=8)


class TestHandValues:
    def test_single_doc_tf_factor_and_idf(self):
        # One doc "a a b" under T1: tf(a)=2, |d|=3=avgdl, so the tf factor is
        # 2*(k1+1)/(2+k1) = 10/7, and idf = log(1 + 0.5/1.5) = log(4/3).
        corpus = make_corpus(["a a b"])
        index = build_index(corpus, TokenizerMode.T1)
        tid = index.vocab["a"]
        rows, scores = column_slice(index, tid)
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
        _, scores = column_slice(index, tid)
        assert scores.min() > 0
        expected_idf = math.log(1.2)
        assert math.isclose(
            float(scores[0]),
            np.float32(expected_idf * 1.0), rel_tol=1e-6)

    def test_doc_length_is_post_tokenization(self):
        # Stopwords and length-1 tokens do not count toward |d| under T0.
        corpus = make_corpus(["the a of parser", "parser state machine"])
        index = build_index(corpus, TokenizerMode.T0)
        assert count_tokens(corpus, TokenizerMode.T0).doc_lens.tolist() == [1, 3]
        assert index.header.avg_len == 2.0


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
        corpus = make_corpus(["x y", "y z"])
        with pytest.raises(ValueError):
            build_index(corpus, TokenizerMode.T1, k1=-1.0)
        with pytest.raises(ValueError):
            build_index(corpus, TokenizerMode.T1, b=1.5)
        with pytest.raises(TypeError):  # the RSJ smoothing constant is fixed at 0.5
            build_index(corpus, TokenizerMode.T1, delta=0.4)

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
            col_rows, col_scores = column_slice(index, index.vocab[term])
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


class TestColumnRuns:
    """The bakes walk runs of whole columns, to the bytes of one whole-array
    expression (the rescale's test is in test_transforms.py)."""

    def test_runs_are_whole_columns_that_tile_the_entries(self):
        col_ptr = np.array([0, 1, 9, 10, 12, 13, 20])
        runs = []

        def formula(at, cols):
            runs.append(((at.start, at.stop), (cols.start, cols.stop)))
            return np.arange(at.start, at.stop, dtype=np.float64)
        with run_length(3):
            out = by_column_runs(col_ptr, formula)
        assert out.dtype == np.float32 and out.tolist() == list(range(20))
        # Each run ends at the first column boundary at or past 3, 6, 9, ...
        assert runs == [((0, 9), (0, 2)), ((9, 12), (2, 4)), ((12, 20), (4, 6))]
        runs.clear()
        assert by_column_runs(col_ptr, formula).tolist() == list(range(20))
        assert runs == [((0, 20), (0, 6))]  # one run at the module's length

    @given(texts=RUN_TEXTS, mode=st.sampled_from(list(TokenizerMode)),
           length=st.integers(min_value=1, max_value=5))
    @settings(deadline=None)
    def test_bakes_equal_the_whole_array_expressions(self, texts, mode, length):
        corpus = make_corpus(texts)
        with run_length(length):
            built = [build_index(corpus, mode), build_index(corpus, mode, k1=0.9, b=0.3),
                     build_dph_index(corpus, mode)]
        counts = count_tokens(corpus, mode)
        assert counts.df.max() > length
        expected = [bm25_bake_whole(counts, 1.5, 0.75), bm25_bake_whole(counts, 0.9, 0.3),
                    dph_bake_whole(counts)]
        for index, scores in zip(built, expected):
            assert index.scores.tobytes() == scores.tobytes()


def _transient_bytes(call):
    """What ``call()`` allocated at its peak beyond what is left when it returns
    (tracemalloc, which numpy reports its arrays to), and its result."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - current, result


def _runs_corpus():
    """8,000 documents of 20 words from 20,000: ~160k entries in many column runs."""
    words = np.random.default_rng(0).integers(20_000, size=(8000, 20)).tolist()
    return make_corpus([" ".join(f"w{w}" for w in doc) for doc in words])


def test_set_up_scratch_per_entry_is_bounded():
    """The count, both bakes and a rescale of a corpus of many runs stay under
    a bound of transient bytes per entry; the whole-array forms each went over."""
    corpus = _runs_corpus()
    mode = TokenizerMode.T1
    count_scratch, counts = _transient_bytes(lambda: count_tokens(corpus, mode))
    nnz = len(counts.tfs)
    assert nnz >= 4 * index_module._RUN_ENTRIES
    bm25_scratch, index = _transient_bytes(lambda: build_index(corpus, mode))
    dph_scratch, _ = _transient_bytes(lambda: build_dph_index(corpus, mode))
    rescale_scratch, _ = _transient_bytes(lambda: rescale_index(index, 0.3))
    per_entry = {name: round(scratch / nnz, 1) for name, scratch in [
        ("count", count_scratch), ("bm25", bm25_scratch), ("dph", dph_scratch),
        ("rescale", rescale_scratch)]}
    bounds = {"count": 27.5, "bm25": 16.0, "dph": 32.0, "rescale": 16.0}
    assert all(per_entry[name] < bounds[name] for name in bounds), per_entry


def test_load_scratch_per_entry_is_bounded(tmp_path):
    """A load reads each array once, into the buffer the index keeps: what
    ``load_index`` allocates beyond the index it returns stays under a bound per
    entry.  Reading the whole file first and copying each array out of it took
    over 17 bytes per entry on this corpus."""
    index = build_index(_runs_corpus(), TokenizerMode.T1)
    path = tmp_path / "i.qlx"
    save_index(index, path)
    scratch, loaded = _transient_bytes(lambda: load_index(path))
    assert loaded.nnz == index.nnz
    assert scratch / index.nnz < 8.0, round(scratch / index.nnz, 1)


def test_a_load_keeps_no_term_map(tmp_path):
    """What ``load_index`` keeps is its arrays, terms and doc ids, under a bound
    per entry: about 21 bytes on this corpus, and 27 when every load also
    built the term-to-column map."""
    index = build_index(_runs_corpus(), TokenizerMode.T1)
    path = tmp_path / "i.qlx"
    save_index(index, path)
    gc.collect()
    tracemalloc.start()
    try:
        loaded = load_index(path)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert loaded.nnz == index.nnz
    assert kept / index.nnz < 23.0, round(kept / index.nnz, 1)


class TestSharedPass:
    """The one tokenize-and-count pass against per-document Counters."""

    @given(texts=_TEXTS, mode=st.sampled_from(list(TokenizerMode)))
    @example(texts=["the of", "", "parseHTTPServer naïveÜber", "..", "ÆgirSøk the"],
             mode=TokenizerMode.T2)
    @example(texts=["İDfoo The", "__init__ x__y", "fooBar.bazQux OF"], mode=TokenizerMode.T0)
    @example(texts=["The OF a", "parseHTTPServer"], mode=TokenizerMode.T0)
    @example(texts=["snake_case_id the", "x .."], mode=TokenizerMode.T0)
    @example(texts=["fooBar foo_bar", "foo bar fooBar"], mode=TokenizerMode.T2)
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
        assert counts.doc_lens.tolist() == doc_lens
        assert (counts.num_docs, counts.n_tok) == (len(texts), sum(doc_lens))
        assert counts.avg_len == sum(doc_lens) / len(texts)
        assert counts.df.dtype == np.int64 and counts.df.tolist() == np.diff(col_ptr).tolist()
        for index in (build_index(corpus, mode), build_dph_index(corpus, mode)):
            assert index.terms == tuple(terms)
            assert index.col_ptr.tolist() == col_ptr
            assert index.row_idx.tolist() == row_idx
            index.check_invariants()
        assert compute_corpus_stats(corpus, mode) == corpus_stats_by_counters(doc_tokens)


_MEMO_TEXTS = ["parseHTTPServer reads the config", "snake_case_id and get2Value",
               "the config reader parses aa0", "aa0 aa0 parseHTTPServer"]


@pytest.fixture
def tokenizer_calls(monkeypatch):
    """Count the per-document word-split calls of ``count_tokens``, by mode."""
    calls = {}

    def counting(mode):
        split = word_split(mode)

        def wrapper(text):
            calls[mode] = calls.get(mode, 0) + 1
            return split(text)
        return wrapper
    monkeypatch.setattr(index_module, "word_split", counting)
    return calls


class TestCountsMemo:
    """One tokenize-and-count pass per corpus object and mode."""

    @pytest.mark.parametrize("mode", [TokenizerMode.T0, TokenizerMode.T2])
    def test_build_stats_and_dph_tokenize_once(self, tokenizer_calls, mode):
        corpus = make_corpus(_MEMO_TEXTS)
        build_index(corpus, mode)
        compute_corpus_stats(corpus, mode)
        build_dph_index(corpus, mode)
        assert tokenizer_calls[mode] == len(corpus)
        assert sum(tokenizer_calls.values()) == len(corpus)

    def test_modes_are_separate_entries(self, tokenizer_calls):
        corpus = make_corpus(_MEMO_TEXTS)
        t0 = count_tokens(corpus, TokenizerMode.T0)
        t2 = count_tokens(corpus, TokenizerMode.T2)
        assert t0 is not t2 and t0.terms != t2.terms
        assert count_tokens(corpus, TokenizerMode.T0) is t0
        assert count_tokens(corpus, TokenizerMode.T2) is t2
        assert tokenizer_calls == {TokenizerMode.T0: len(corpus), TokenizerMode.T2: len(corpus)}

    def test_equal_corpus_counts_again_to_the_same_bytes(self, tokenizer_calls):
        first, second = make_corpus(_MEMO_TEXTS), make_corpus(_MEMO_TEXTS)
        for mode in (TokenizerMode.T0, TokenizerMode.T2):
            assert dumps_index(build_index(first, mode)) == dumps_index(build_index(second, mode))
            assert (dumps_index(build_dph_index(first, mode))
                    == dumps_index(build_dph_index(second, mode)))
            assert compute_corpus_stats(first, mode) == compute_corpus_stats(second, mode)
        assert tokenizer_calls == {TokenizerMode.T0: 2 * len(first),
                                   TokenizerMode.T2: 2 * len(first)}

    def test_build_error_is_raised_on_every_call(self, tokenizer_calls):
        corpus = make_corpus(["the of a", ". .."])
        for _ in range(2):
            with pytest.raises(BuildError):
                count_tokens(corpus, TokenizerMode.T0)
        assert tokenizer_calls[TokenizerMode.T0] == 2 * len(corpus)

    def test_entry_lives_as_long_as_its_corpus(self):
        corpus = make_corpus(_MEMO_TEXTS)
        counts = weakref.ref(count_tokens(corpus, TokenizerMode.T0))
        build_index(corpus, TokenizerMode.T0)
        gc.collect()
        assert counts() is not None
        del corpus
        gc.collect()
        assert counts() is None

    def test_mutating_an_index_leaves_later_builds_unchanged(self):
        corpus = make_corpus(_MEMO_TEXTS)
        for build in (build_index, build_dph_index):
            expected = dumps_index(build(corpus, TokenizerMode.T0))
            index = build(corpus, TokenizerMode.T0)
            for array in (index.col_ptr, index.row_idx,
                          count_tokens(corpus, TokenizerMode.T0).doc_lens):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] += 1
            with pytest.raises(ValueError, match="read-only"):
                index.df[0] += 1  # derived per index, and read-only like the structure
            with pytest.raises(TypeError):
                index.terms[0] = "mutated"  # a tuple, shared with the counts
            with pytest.raises(AttributeError):
                index.doc_ids.reverse()
            index.scores[:] = 0.0
            assert dumps_index(build(corpus, TokenizerMode.T0)) == expected
        rescale_index(build_index(corpus, TokenizerMode.T0), 0.3)
        assert dumps_index(build_index(corpus, TokenizerMode.T0)) == dumps_index(
            build_index(make_corpus(_MEMO_TEXTS), TokenizerMode.T0))

    def test_corpus_documents_cannot_be_reassigned(self):
        corpus = make_corpus(_MEMO_TEXTS)
        for column in ("ids", "texts"):
            with pytest.raises(AttributeError):
                setattr(corpus, column, ())
        assert corpus.texts == tuple(_MEMO_TEXTS) and len(corpus.ids) == len(_MEMO_TEXTS)

    def test_loading_and_counting_make_no_document(self, tmp_path, monkeypatch):
        path = write_jsonl_corpus(tmp_path / "c.jsonl", make_corpus(_MEMO_TEXTS))

        def refuse(self, *args):
            raise AssertionError("a Document was built")

        monkeypatch.setattr(Document, "__init__", refuse)
        for mode in TokenizerMode:
            corpus = load_corpus(path)
            build_index(corpus, mode)
            build_dph_index(corpus, mode)
            compute_corpus_stats(corpus, mode)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _legal_headers(draw):
    mode = draw(st.sampled_from(list(TokenizerMode)))
    avg_len = draw(_POSITIVE)
    if draw(st.booleans()):
        return IndexHeader(mode=mode, scorer="dph", k1=None, b=None, avg_len=avg_len)
    mark = draw(st.one_of(st.just({}), st.fixed_dictionaries({"applied_q": _FINITE}),
                          st.fixed_dictionaries({"applied_gamma": _POSITIVE})))
    return IndexHeader(mode=mode, scorer="bm25", k1=draw(_POSITIVE),
                       b=draw(st.floats(min_value=0.0, max_value=1.0)), avg_len=avg_len, **mark)


class TestIndexHeader:
    """IndexHeader is the one definition of a legal index state."""

    @pytest.mark.parametrize("scorer, fields", IMPOSSIBLE_HEADERS + IN_MEMORY_IMPOSSIBLE_HEADERS,
                             ids=IMPOSSIBLE_HEADER_IDS + IN_MEMORY_IMPOSSIBLE_HEADER_IDS)
    def test_impossible_state_refused_at_construction(self, scorer, fields):
        corpus = make_corpus(["alpha beta gamma", "beta gamma delta"])
        header = (build_index if scorer == "bm25" else build_dph_index)(
            corpus, TokenizerMode.T0).header
        with pytest.raises(ValueError):
            IndexHeader(**{**vars(header), **fields})

    def test_fields_cannot_be_assigned(self):
        header = build_index(make_corpus(["alpha beta"]), TokenizerMode.T0).header
        for name, value in [("applied_q", 0.5), ("k1", 2.0), ("avg_len", 3.0)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(header, name, value)

    @settings(max_examples=200, deadline=None)
    @given(header=_legal_headers())
    def test_legal_header_survives_a_file_round_trip(self, header):
        index = build_index(make_corpus(["alpha beta", "beta gamma"]), TokenizerMode.T0)
        loaded = loads_index(dumps_index(dataclasses.replace(index, header=header)))
        assert loaded.header == header and hash(loaded.header) == hash(header)

    def test_equal_dph_headers_compare_equal(self):
        corpus = make_corpus(["alpha beta", "beta gamma"])
        dph = build_dph_index(corpus, TokenizerMode.T0)
        loaded = loads_index(dumps_index(dph)).header
        assert loaded.k1 is None and loaded.b is None
        assert loaded == dph.header and len({loaded, dph.header}) == 1
        bm25 = build_index(corpus, TokenizerMode.T0).header
        others = [bm25, dataclasses.replace(dph.header, avg_len=dph.header.avg_len + 1),
                  dataclasses.replace(dph.header, mode=TokenizerMode.T1)]
        assert all(other != dph.header for other in others)

    def test_overflowing_rescale_keeps_the_header_object(self):
        index = build_index(make_corpus([f"uniq{i} shared{i % 7}" for i in range(2000)]),
                            TokenizerMode.T1)
        header = index.header
        with pytest.raises(ValueError, match="non-finite"):
            rescale_index(index, -12.0)
        assert index.header is header

    def test_rescaling_a_copy_leaves_the_original_unmarked(self):
        index = build_index(make_corpus(["alpha beta", "beta gamma", "gamma delta"]),
                            TokenizerMode.T0)
        header = index.header
        copy = rescale_index(dataclasses.replace(index, scores=index.scores.copy()), 0.3)
        assert copy.header.applied_q == 0.3
        assert index.header is header and header.applied_q is None

    def test_state_is_checked_before_value(self):
        dph = build_dph_index(make_corpus(["alpha beta", "beta gamma"]), TokenizerMode.T0)
        with pytest.raises(RescaleStateError):
            rescale_index(dph, math.nan)


class TestBuiltIndexEqualsItsFile:
    """A build fills in no field that its file does not hold."""

    @pytest.mark.parametrize("make", [
        lambda corpus: build_index(corpus, TokenizerMode.T0),
        lambda corpus: rescale_index(build_index(corpus, TokenizerMode.T0), 0.3),
        lambda corpus: rescale_index_gamma(build_index(corpus, TokenizerMode.T0), 2.0),
        lambda corpus: build_dph_index(corpus, TokenizerMode.T0),
    ], ids=["bm25", "q_rescaled", "gamma_rescaled", "dph"])
    def test_every_field_survives_a_round_trip(self, make):
        index = make(make_corpus(_MEMO_TEXTS))
        loaded = loads_index(dumps_index(index))
        for name in (f.name for f in dataclasses.fields(index)):
            built, read = getattr(index, name), getattr(loaded, name)
            if isinstance(built, np.ndarray):
                assert isinstance(read, np.ndarray) and read.dtype == built.dtype, name
                assert np.array_equal(read, built), name
            else:
                assert read == built, name
        assert hash(loaded.header) == hash(index.header)
        assert loaded.vocab == index.vocab


class TestFixedFacts:
    """An index's arrays and the facts derived from them cannot drift apart."""

    @pytest.mark.parametrize("name", ["col_ptr", "row_idx", "terms", "doc_ids",
                                      "vocab", "df", "num_docs", "scores", "header"])
    def test_reassignment_is_refused(self, name):
        index = build_index(make_corpus(_MEMO_TEXTS), TokenizerMode.T0)
        blob = dumps_index(index)
        value = getattr(index, name)
        shorter = value[:1] if isinstance(value, (tuple, np.ndarray)) else value
        with pytest.raises(AttributeError, match=name):
            setattr(index, name, shorter)
        assert getattr(index, name) is value
        assert dumps_index(index) == blob

    @pytest.mark.parametrize("make", ["built", "loaded", "from_lists"])
    def test_terms_and_doc_ids_cannot_be_edited_in_place(self, make):
        corpus = make_corpus(_MEMO_TEXTS)
        index = build_index(corpus, TokenizerMode.T0)
        if make == "loaded":
            index = loads_index(dumps_index(index))
        elif make == "from_lists":
            index = SparseScoreIndex(col_ptr=index.col_ptr, row_idx=index.row_idx,
                                     scores=index.scores, terms=list(index.terms),
                                     doc_ids=list(index.doc_ids), header=index.header)
        else:  # a build shares the tuples of its counts
            counts = count_tokens(corpus, TokenizerMode.T0)
            assert index.terms is counts.terms and index.doc_ids is counts.doc_ids
        blob = dumps_index(index)
        with pytest.raises(TypeError):
            index.terms[0] = "zz"
        with pytest.raises(AttributeError):
            index.doc_ids.append("d9")
        assert type(index.terms) is tuple and type(index.doc_ids) is tuple
        assert index.vocab == {t: i for i, t in enumerate(index.terms)}
        assert dumps_index(index) == blob

    @pytest.mark.parametrize("make", ["built", "loaded", "from_lists"])
    def test_structure_is_read_only_and_scores_are_not(self, make):
        index = build_index(make_corpus(_MEMO_TEXTS), TokenizerMode.T0)
        if make == "loaded":
            index = loads_index(dumps_index(index))
        elif make == "from_lists":  # writeable arrays of its own
            index = SparseScoreIndex(col_ptr=index.col_ptr.copy(), row_idx=index.row_idx.copy(),
                                     scores=index.scores.copy(), terms=list(index.terms),
                                     doc_ids=list(index.doc_ids), header=index.header)
        blob = dumps_index(index)
        for array in (index.col_ptr, index.row_idx, index.df):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] += 1
        assert dumps_index(index) == blob
        assert np.array_equal(index.df, np.diff(index.col_ptr))
        assert index.scores.flags.writeable  # a rescale writes its result into them
        index.scores[0] += 1.0


class TestTermMap:
    """``vocab`` is built on an index's first query lookup, once, and never
    before it; the eval path never builds it."""

    @pytest.mark.parametrize("make", [
        lambda corpus, path: build_index(corpus, TokenizerMode.T0),
        lambda corpus, path: build_dph_index(corpus, TokenizerMode.T0),
        lambda corpus, path: rescale_index(build_index(corpus, TokenizerMode.T0), 0.3),
        lambda corpus, path: rescale_index_gamma(build_index(corpus, TokenizerMode.T0), 2.0),
        lambda corpus, path: loads_index(dumps_index(build_index(corpus, TokenizerMode.T0))),
        lambda corpus, path: save_index(build_index(corpus, TokenizerMode.T0), path)
        or load_index(path),
    ], ids=["bm25", "dph", "q_rescaled", "gamma_rescaled", "loads_index", "load_index"])
    def test_no_map_before_a_lookup(self, tmp_path, make):
        index = make(make_corpus(_MEMO_TEXTS), tmp_path / "i.qlx")
        dumps_index(index)
        index.check_invariants()
        with pytest.raises(AttributeError, match="vocab"):
            index.vocab = {}
        assert index._vocab is None

    @pytest.mark.parametrize("run", [
        lambda path, queries, qrels: q_sweep(evaluation.load_index(path), queries, qrels,
                                             [0.3, 1.0]),
        lambda path, queries, qrels: df_bin_occlusion(evaluation.load_index(path), queries, qrels),
        lambda path, queries, qrels: list(evaluation._walk(
            evaluation.load_index(path), qrels, evaluation._judged(queries, qrels), 10)),
    ], ids=["sweep", "occlusion", "eval_walk"])
    def test_no_map_after_the_eval_path(self, tmp_path, monkeypatch, run):
        path = tmp_path / "i.qlx"
        save_index(build_index(make_corpus(_MEMO_TEXTS), TokenizerMode.T0), path)
        loaded = []
        monkeypatch.setattr(evaluation, "load_index",
                            lambda p: loaded.append(load_index(p)) or loaded[-1])
        queries = QuerySet([("q0", "config aa0 nope"), ("q1", "parseHTTPServer parseHTTPServer")])
        run(path, queries, QrelSet(judgments={"q0": {"d2": 1}, "q1": {"d0": 2, "d3": 1}}))
        assert [index._vocab for index in loaded] == [None]

    def test_the_first_lookup_builds_the_map_once(self):
        index = build_index(make_corpus(_MEMO_TEXTS), TokenizerMode.T0)
        top_k(index, "config aa0", TokenizerMode.T0, 2)
        vocab = index._vocab
        assert vocab == {t: i for i, t in enumerate(index.terms)}
        assert index.vocab is vocab
        for name in ("vocab", "_vocab"):
            with pytest.raises(AttributeError, match=name):
                setattr(index, name, {})
        assert index.vocab is vocab


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
            assert list(counts.terms) == terms
            assert counts.col_ptr.tolist() == col_ptr
            assert counts.rows.tolist() == row_idx
            assert counts.tfs.tolist() == tfs
            assert counts.doc_lens.tolist() == doc_lens
            assert compute_corpus_stats(corpus, mode) == corpus_stats_by_counters(doc_tokens)
