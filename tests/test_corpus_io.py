"""File loading, validation, and index serialization surfaces."""

import dataclasses
import json
import os
import struct
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qlex import (BuildError, Corpus, Document, DuplicateIdError, IndexFormatError, ParseError,
                  QlexError, QuerySet, SparseScoreIndex, build_dph_index, build_index,
                  load_corpus, load_qrels, load_queries, load_index, save_index, dumps_index,
                  loads_index, rescale_index, rescale_index_gamma, top_k)
from qlex import storage
from qlex.cli import _write_or_print
from qlex.storage import INDEX_FORMAT_VERSION, _MAGIC, write_atomic
from qlex.tokenizers import TokenizerMode

from conftest import (IMPOSSIBLE_HEADER_IDS, IMPOSSIBLE_HEADERS, make_corpus,
                      write_jsonl_corpus)
from oracles import check_ids_by_loop, jsonl_entries_by_loads


class TestCorpusLoading:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "a", "text": "x y"}\n{"doc_id": "b", "text": "z"}\n')
        corpus = load_corpus(path)
        assert len(corpus) == 2
        assert corpus.ids == ("a", "b")
        assert corpus.texts == ("x y", "z")

    @pytest.mark.parametrize("load, key", [(load_corpus, "doc_id"), (load_queries, "query_id")],
                             ids=["corpus", "queries"])
    def test_a_load_keeps_no_per_id_map(self, tmp_path, load, key):
        # Beyond its strings a load keeps two tuple slots per record (16
        # bytes); an id-to-position dict would keep ~50 more.
        n = 20_000
        path = tmp_path / "in.jsonl"
        path.write_text("".join(json.dumps({key: f"id{i}", "text": f"w{i % 97} x{i}"}) + "\n"
                                for i in range(n)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            records = load(path)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        strings = sum(map(sys.getsizeof, records.ids + records.texts))
        assert (kept - strings) / n <= 24

    def test_duplicate_doc_id_names_id_and_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [{"doc_id": "a", "text": "1"}, {"doc_id": "b", "text": "2"},
                {"doc_id": "c", "text": "3"}, {"doc_id": "d", "text": "4"},
                {"doc_id": "a", "text": "5"}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(DuplicateIdError) as exc:
            load_corpus(path)
        assert exc.value.ident == "a"
        assert exc.value.line == 5
        assert "line 5" in str(exc.value)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "a", "text": "1"}\nnot json\n')
        with pytest.raises(ParseError) as exc:
            load_corpus(path)
        assert exc.value.line == 2

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "a"}\n')
        with pytest.raises(ParseError):
            load_corpus(path)


class TestQueryLoading:
    def test_jsonl_queries(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"query_id": "q1", "text": "find auth"}\n')
        queries = load_queries(path)
        assert list(queries) == [("q1", "find auth")]

    def test_duplicate_query_id_rejected(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"query_id": "q1", "text": "a"}\n{"query_id": "q1", "text": "b"}\n')
        with pytest.raises(DuplicateIdError):
            load_queries(path)

    def test_empty_query_id_names_path_and_line(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"query_id": "q1", "text": "a"}\n\n{"query_id": "", "text": "b"}\n')
        with pytest.raises(ParseError, match="empty query_id") as exc:
            load_queries(path)
        assert (exc.value.path, exc.value.line) == (str(path), 3)
        assert f"{path}:line 3: " in str(exc.value)


class TestJsonlFastPath:
    """One ``raw_decode`` per line gives what one ``json.loads`` per line gives."""

    ID = st.one_of(st.sampled_from(["a", "b", "", "é"]), st.text(max_size=4))
    # Records both loaders accept, so that later lines are reached, and
    # records with missing or non-string fields.
    RECORD = st.one_of(
        st.fixed_dictionaries({"doc_id": ID, "query_id": ID, "text": st.text(max_size=8)}),
        st.dictionaries(st.sampled_from(["doc_id", "query_id", "text", "x"]),
                        st.one_of(ID, st.integers(), st.none()), max_size=4),
    )
    # Whitespace json.loads strips (" \t\r") next to what only str.strip
    # strips ("\x0c"), a BOM, and trailing data.
    LEAD = st.sampled_from(["", "", " ", "\t", "\r", "\x0c", "\ufeff"])
    TAIL = st.sampled_from(["", "", " ", "\t", "\r", "\x0c", " x", "{}", ","])
    LINE = st.one_of(
        st.builds(lambda lead, record, ascii_only, tail:
                  lead + json.dumps(record, ensure_ascii=ascii_only) + tail,
                  LEAD, RECORD, st.booleans(), TAIL),
        st.sampled_from(["", " ", "\x0c", "[1]", "3", '"s"', "null", "{", "NaN", "{}{}"]),
        st.text(max_size=20),
    )

    GOOD = '{"doc_id": "a", "query_id": "a", "text": "x"}'

    @staticmethod
    def _outcome(load):
        try:
            return load()
        except ParseError as exc:
            return type(exc), str(exc), exc.line

    @settings(deadline=None, max_examples=300)
    @given(st.lists(LINE, max_size=8), st.sampled_from(["corpus", "queries"]))
    @example([GOOD + " \t\r", GOOD.replace("a", "b") + "\x0c"], "corpus")
    @example(["\ufeff" + GOOD, " " + GOOD + " x"], "queries")
    @example([GOOD.replace('"x"', "7" * 5000), "[" * 100_000], "corpus")
    @example([GOOD, '{"doc_id": "b", "text": }'], "corpus")  # the C scanner's StopIteration
    @example([GOOD, GOOD.replace("a", "b")], "queries")  # the last line has no newline
    @example([GOOD + "\x0c", GOOD.replace("a", "b")], "corpus")
    def test_same_records_or_error_as_loads_per_line(self, tmp_path_factory, lines, kind):
        path = tmp_path_factory.mktemp("jsonl") / "in.jsonl"
        path.write_bytes("\n".join(lines).encode("utf-8"))
        if kind == "corpus":
            got = self._outcome(lambda: [(d.doc_id, d.text) for d in load_corpus(path)])

            def want():
                entries, at = jsonl_entries_by_loads(path, "doc_id")
                check_ids_by_loop("doc_id", [i for i, _ in entries], str(path), at)
                corpus = Corpus([Document(*e) for e in entries])
                return [(d.doc_id, d.text) for d in corpus]
        else:
            got = self._outcome(lambda: list(load_queries(path)))

            def want():
                entries, at = jsonl_entries_by_loads(path, "query_id")
                check_ids_by_loop("query_id", [i for i, _ in entries], str(path), at)
                return list(QuerySet(entries))
        assert got == self._outcome(want)


class TestUndecodableBytes:
    """A byte that is not UTF-8 is a ParseError naming the file and its line."""

    # (loader, a good line, the same line with a byte that is not UTF-8)
    FILES = {
        "corpus": (load_corpus, b'{"doc_id": "a", "text": "x"}', b'{"doc_id": "b", "text": "\xff"}'),
        "queries": (load_queries, b'{"query_id": "q", "text": "x"}',
                    b'{"query_id": "r", "text": "\xc3("}'),
        "qrels": (load_qrels, b"q1 d1 1", b"q1 d\xe2\x82 1"),
    }

    @pytest.mark.parametrize("kind", FILES)
    def test_names_path_and_line(self, tmp_path, kind):
        load, good, bad = self.FILES[kind]
        path = tmp_path / f"{kind}.txt"
        # A lone CR ends a line in text mode too; 500 lines put the bad
        # byte past the decoder's first chunk.
        path.write_bytes(good + b"\r" + (good + b"\n") * 500 + bad + b"\n" + good + b"\n")
        with pytest.raises(ParseError, match="is not UTF-8") as exc:
            load(path)
        assert (exc.value.path, exc.value.line) == (str(path), 502)
        assert f"{path}:line 502: byte 0x" in str(exc.value)


class TestLoneSurrogates:
    """A JSON escape that leaves a lone surrogate in a field is a ParseError
    naming the file, the line and the field; UTF-8 cannot encode it."""

    # (loader, a good line with escapes and its (id, text), a line with a
    # lone surrogate, the field that holds it)
    CASES = {
        "doc_id": (load_corpus, r'{"doc_id": "a\u00e9", "text": "x"}', ("a\u00e9", "x"),
                   r'{"doc_id": "ab\ud800c", "text": "x"}', "doc_id"),
        "corpus_text": (load_corpus, r'{"doc_id": "a", "text": "\ud83d\ude00 pair"}',
                        ("a", "\U0001f600 pair"), r'{"doc_id": "b", "text": "ok \udc00"}', "text"),
        "query_id": (load_queries, r'{"query_id": "q\u00e9", "text": "x"}', ("q\u00e9", "x"),
                     r'{"query_id": "r\udfff", "text": "x"}', "query_id"),
        "query_text": (load_queries, r'{"query_id": "q", "text": "\\ud800 is text"}',
                       ("q", "\\ud800 is text"), r'{"query_id": "r", "text": "\ud83d"}', "text"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_names_path_line_and_field(self, tmp_path, case):
        load, good, entry, bad, field = self.CASES[case]
        path = tmp_path / "in.jsonl"
        path.write_text(good + "\n")
        loaded = load(path)
        entries = [(d.doc_id, d.text) for d in loaded] if load is load_corpus else list(loaded)
        assert entries == [entry]
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ParseError, match=f"field '{field}' holds a lone surrogate") as exc:
            load(path)
        assert (exc.value.path, exc.value.line) == (str(path), 2)
        assert str(exc.value).startswith(f"{path}:line 2: ")

    # Any code point, surrogates included, often enough to be drawn.
    TEXT = st.text(st.one_of(st.characters(categories=["Cs"]), st.sampled_from("ab_X1 "),
                             st.characters(exclude_categories=())), max_size=12)

    @settings(deadline=None)
    @given(records=st.lists(st.tuples(TEXT, TEXT), min_size=1, max_size=5),
           ascii_only=st.booleans())
    def test_corpus_loads_or_names_the_path(self, tmp_path_factory, records, ascii_only):
        # Unescaped, a surrogate is written as the bytes UTF-8 forbids for it.
        path = tmp_path_factory.mktemp("surrogates") / "corpus.jsonl"
        lines = ['{"doc_id": "anchor", "text": "anchor"}']
        lines += [json.dumps({"doc_id": d, "text": t}, ensure_ascii=ascii_only)
                  for d, t in records]
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogatepass"))
        try:
            corpus = load_corpus(path)
        except QlexError as exc:
            assert str(path) in str(exc)
            return
        for mode in TokenizerMode:
            index = build_index(corpus, mode)
            save_index(index, path.with_suffix(".qlx"))
            loaded = load_index(path.with_suffix(".qlx"))
            assert loaded.doc_ids == corpus.ids and loaded.terms == index.terms


class TestUntrustedLines:
    """Any bytes, and any JSON value in any field, load or raise a QlexError naming the path."""

    JSON_VALUE = st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
        lambda inner: st.one_of(st.lists(inner, max_size=3),
                                st.dictionaries(st.text(max_size=4), inner, max_size=3)),
        max_leaves=6)
    RECORD = st.dictionaries(st.sampled_from(["doc_id", "query_id", "text"]), JSON_VALUE)
    LINE = st.one_of(
        st.binary(max_size=40),
        st.builds(lambda record: json.dumps(record).encode("utf-8"), RECORD),
        JSON_VALUE.map(lambda value: json.dumps(value).encode("utf-8")),
        st.sampled_from([b'{"doc_id": "a", "query_id": "a", "text": "x"}', b"q1 d1 1"]),
    )

    @settings(deadline=None)
    @given(st.lists(LINE, max_size=6))
    @example([b"[" * 100_000])
    @example([b'{"doc_id": "a", "query_id": "a", "text": ' + b"7" * 5000 + b"}"])
    @example([b'{"doc_id": "a", "query_id": "a", "text": "x"}', b"q1 d1 " + b"7" * 5000])
    def test_each_loader_returns_or_names_the_path(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("untrusted") / "in.txt"
        path.write_bytes(b"\n".join(lines))
        for load in (load_corpus, load_queries, load_qrels):
            try:
                load(path)
            except QlexError as exc:
                assert str(path) in str(exc)


class TestColumns:
    """A loaded Corpus and one built from Documents are the same corpus."""

    @settings(deadline=None)
    @given(ids=st.lists(st.sampled_from(["", "a", "b", "c", "a\tb", "c d", " ", "e\u2028"]),
                        max_size=6),
           blank=st.lists(st.booleans(), min_size=6, max_size=6),
           kind=st.sampled_from(["corpus", "queries"]))
    @example(ids=["", "a", "a"], blank=[False] * 6, kind="corpus")
    @example(ids=["a", "", "a"], blank=[True] * 6, kind="corpus")
    @example(ids=["a", "a", ""], blank=[False] * 6, kind="queries")
    @example(ids=["a", "a\tb", "a"], blank=[False] * 6, kind="corpus")
    @example(ids=["c", "q 1"], blank=[True] * 6, kind="queries")
    @example(ids=["e\u2028"], blank=[False] * 6, kind="corpus")  # whitespace at its end only
    def test_id_errors_match_the_per_id_loop(self, tmp_path_factory, ids, blank, kind):
        key = "doc_id" if kind == "corpus" else "query_id"
        texts = [f"text {i}" for i in range(len(ids))]
        path = tmp_path_factory.mktemp("ids") / "in.jsonl"
        rows, at = [], []
        for ident, text, skip in zip(ids, texts, blank):
            rows += [""] * skip + [json.dumps({key: ident, "text": text})]
            at.append(len(rows))
        path.write_text("\n".join(rows) + "\n")

        def outcome(build):
            try:
                return build()
            except ParseError as exc:
                return type(exc), str(exc), exc.line

        want_loaded = outcome(lambda: check_ids_by_loop(key, ids, str(path), at))
        want_direct = outcome(lambda: check_ids_by_loop(key, ids, None, None))
        if kind == "corpus":
            got_loaded = outcome(lambda: load_corpus(path))
            got_direct = outcome(lambda: Corpus(map(Document, ids, texts)))
        else:
            got_loaded = outcome(lambda: load_queries(path))
            got_direct = outcome(lambda: QuerySet(zip(ids, texts)))
        for want, got in ((want_loaded, got_loaded), (want_direct, got_direct)):
            if want is not None:
                assert got == want
            elif kind == "corpus":
                assert list(got) == [Document(i, t) for i, t in zip(ids, texts)]
            else:
                assert list(got) == list(zip(ids, texts))

    TEXT = st.text(st.one_of(st.sampled_from("ab_X1 .é"), st.characters(
        exclude_categories=["Cs"])), max_size=16)

    @settings(deadline=None, max_examples=60)
    @given(records=st.lists(st.tuples(TEXT, TEXT), min_size=1, max_size=6))
    @example(records=[("d\u00e9", "café naïve İDfoo"), ("d1", "plain ascii text"),
                      ("日本", "Straße ΣΊΣΥΦΟΣ snake_Case")])
    def test_loaded_and_built_corpora_give_the_same_index(self, tmp_path_factory, records):
        # An id holding whitespace is refused (TestColumns::test_id_errors_match_the_per_id_loop).
        records = [(f"d{i}-{''.join(ident.split())}", text)
                   for i, (ident, text) in enumerate(records)]
        path = tmp_path_factory.mktemp("columns") / "corpus.jsonl"
        path.write_text("".join(json.dumps({"doc_id": d, "text": t}) + "\n" for d, t in records),
                        encoding="utf-8")
        built = Corpus([Document(d, t) for d, t in records])
        loaded = load_corpus(path)
        assert list(loaded) == list(built) and loaded.texts == built.texts

        def dumped(build, corpus, mode):
            try:
                return dumps_index(build(corpus, mode))
            except BuildError as exc:
                return str(exc)

        for mode in TokenizerMode:
            for build in (build_index, build_dph_index):
                assert dumped(build, loaded, mode) == dumped(build, built, mode)


class TestAtomicWrites:
    """Every file the package writes replaces the old one whole or not at all."""

    @pytest.mark.parametrize("write", [
        lambda path: save_index(build_index(make_corpus(["aa bb"]), TokenizerMode.T1), path),
        lambda path: _write_or_print("new text\n", str(path)),
    ], ids=["save_index", "cli_out"])
    def test_failed_rename_keeps_previous_file(self, tmp_path, monkeypatch, write):
        path = tmp_path / "out"
        path.write_bytes(b"previous\n")

        def refuse(src, dst):
            raise OSError(18, "Invalid cross-device link")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="cross-device"):
            write(path)
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestIdValidation:
    """One id check per kind; loaders locate it, direct construction still raises."""

    @pytest.mark.parametrize("build, error", [
        (lambda: Corpus([Document("a", "x"), Document("", "y")]), "empty doc_id at position 1"),
        (lambda: Corpus([Document("a", "x"), Document("a", "y")]), "duplicate doc_id 'a'"),
        (lambda: QuerySet([("q1", "x"), ("", "y")]), "empty query_id at position 1"),
        (lambda: QuerySet([("q1", "x"), ("q1", "y")]), "duplicate query_id 'q1'"),
    ], ids=["corpus_empty", "corpus_duplicate", "queries_empty", "queries_duplicate"])
    def test_direct_construction_raises(self, build, error):
        with pytest.raises(ParseError, match=error) as exc:
            build()
        assert exc.value.line is None


class TestQrelsLoading:
    def test_three_column_whitespace(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td1\t1\nq1 d2 0\nq2\td1\t3\n")
        qrels = load_qrels(path)
        assert qrels.for_query("q1") == {"d1": 1, "d2": 0}
        assert qrels.relevant_docs("q1") == {"d1": 1}
        assert qrels.has_relevant("q2")

    def test_duplicate_pair_last_wins_and_counts(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td1\t1\nq1\td1\t0\n")
        qrels = load_qrels(path)
        assert qrels.for_query("q1") == {"d1": 0}
        assert qrels.duplicates_replaced == 1

    def test_negative_relevance_is_parse_error(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td1\t-1\n")
        with pytest.raises(ParseError):
            load_qrels(path)

    @pytest.mark.parametrize("rel", ["1_0", "\u0663", "1.0", "1e1", "0x1", "+-1", "\uff11"])
    def test_relevance_beyond_ascii_digits_is_parse_error(self, tmp_path, rel):
        # int() reads "1_0" as 10 and the Arabic-Indic "\u0663" as 3.
        path = tmp_path / "qrels.tsv"
        path.write_text(f"q1 d1 1\nq1 d2 {rel}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="not an integer in ASCII digits") as exc:
            load_qrels(path)
        assert (exc.value.path, exc.value.line) == (str(path), 2)

    def test_signed_ascii_relevance_loads(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1 d1 +2\nq1 d2 -0\nq1 d3 007\n")
        assert load_qrels(path).for_query("q1") == {"d1": 2, "d2": 0, "d3": 7}

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td1\n")
        with pytest.raises(ParseError):
            load_qrels(path)

    def test_leading_bom_is_parse_error(self, tmp_path):
        # Else the first query is keyed "\ufeffq1", counted unjudged and skipped by eval.
        path = tmp_path / "qrels.tsv"
        path.write_bytes(b"\xef\xbb\xbfq1 d1 1\nq2 d2 1\n")
        with pytest.raises(ParseError, match="BOM") as exc:
            load_qrels(path)
        assert (exc.value.path, exc.value.line) == (str(path), 1)


def _edited(index, name, key, value):
    """A copy of ``index`` whose structure array ``name`` holds ``value`` at ``key``;
    the arrays of an index are read-only, so the edit goes into a copy."""
    array = getattr(index, name).copy()
    array[key] = value
    return dataclasses.replace(index, **{name: array})


def _drop_vocabulary(index, keep_docs):
    """A copy of ``index`` with no vocabulary, and no documents either unless ``keep_docs``."""
    return SparseScoreIndex(col_ptr=index.col_ptr[:1], row_idx=index.row_idx[:0],
                            scores=index.scores[:0], terms=[],
                            doc_ids=index.doc_ids if keep_docs else [], header=index.header)


_VOCAB_BLOCK = len(_MAGIC) + storage._FIXED.size  # the offset of the vocabulary block


def _with_fixed(blob: bytes, **fields) -> bytes:
    """``blob`` with the named fixed-header fields (``storage._FIXED`` order) replaced."""
    names = ["version", "mode", "scorer", "k1", "b", "applied_q", "applied_gamma",
             "num_docs", "avg_len", "vocab_size", "nnz"]
    values = dict(zip(names, storage._FIXED.unpack(blob[len(_MAGIC):_VOCAB_BLOCK])))
    values.update(fields)
    return blob[:len(_MAGIC)] + storage._FIXED.pack(*values.values()) + blob[_VOCAB_BLOCK:]


class TestTermOrder:
    """Every index, built, rescaled or read back, holds its terms strictly ascending."""

    WORD = st.one_of(st.sampled_from(["İDfoo", "ÆgirSøk", "parseHTTPServer", "snake_case_id",
                                      "naïveÜber", "日本語", "ß", "ﬁle", "Zeta", "zeta", "a1b2"]),
                     st.text(max_size=6))

    @given(texts=st.lists(st.lists(WORD, max_size=6).map(" ".join), min_size=1, max_size=6),
           mode=st.sampled_from(list(TokenizerMode)))
    @settings(max_examples=100, deadline=None)
    def test_terms_strictly_ascend_in_every_mode(self, texts, mode):
        corpus = make_corpus(texts)
        try:
            bm25 = build_index(corpus, mode)
        except BuildError:
            return
        built = [bm25, build_dph_index(corpus, mode),
                 rescale_index(build_index(corpus, mode), 0.3),
                 rescale_index_gamma(build_index(corpus, mode), 2.0)]
        for index in built + [loads_index(dumps_index(index)) for index in built]:
            terms = index.terms
            assert all(a < b for a, b in zip(terms, terms[1:])), terms

    def test_the_refusal_names_the_rule(self):
        index = build_index(make_corpus(["alpha beta", "gamma"]), TokenizerMode.T0)
        blob = dumps_index(dataclasses.replace(index, terms=index.terms[::-1]))
        with pytest.raises(IndexFormatError, match="terms not strictly ascending"):
            loads_index(blob)


class TestIndexSerialization:
    @pytest.fixture
    def index(self):
        corpus = make_corpus(["alpha beta gamma", "beta gamma delta", "gamma delta"])
        return build_index(corpus, TokenizerMode.T0)

    def test_roundtrip_bit_identical(self, tmp_path, index):
        path = tmp_path / "i.qlx"
        save_index(index, path)
        loaded = load_index(path)
        assert np.array_equal(loaded.scores, index.scores)
        assert np.array_equal(loaded.col_ptr, index.col_ptr)
        assert np.array_equal(loaded.row_idx, index.row_idx)
        assert np.array_equal(loaded.df, index.df)
        assert loaded.terms == index.terms
        assert loaded.doc_ids == index.doc_ids
        assert loaded.num_docs == index.num_docs
        assert loaded.header == index.header  # mode, scorer, k1, b, avg_len and marks
        loaded.check_invariants()

    def test_bytes_roundtrip(self, index):
        blob = dumps_index(index)
        assert loads_index(blob).terms == index.terms

    def test_version_mismatch_is_structured_error(self, index):
        blob = bytearray(dumps_index(index))
        offset = len(_MAGIC)
        blob[offset:offset + 4] = (INDEX_FORMAT_VERSION + 1).to_bytes(4, "little")
        with pytest.raises(IndexFormatError, match="version"):
            loads_index(bytes(blob))

    def test_truncated_file_is_corrupt_error(self, tmp_path, index):
        blob = dumps_index(index)
        for cut in [3, len(_MAGIC) + 10, len(blob) // 2, len(blob) - 1]:
            with pytest.raises(IndexFormatError):
                loads_index(blob[:cut])

    def test_negative_row_is_corrupt_error(self):
        # A wrapped row index would credit aa0's score to the last document.
        index = build_index(make_corpus([f"aa{i} common" for i in range(50)]),
                            TokenizerMode.T0)
        assert top_k(index, "aa0", TokenizerMode.T0, 1).hits[0][0] == "d0"
        blob = bytearray(dumps_index(index))
        row_offset = len(blob) - 8 * index.nnz + 4 * int(index.col_ptr[index.vocab["aa0"]])
        blob[row_offset:row_offset + 4] = (-1).to_bytes(4, "little", signed=True)
        with pytest.raises(IndexFormatError, match="row indices"):
            loads_index(bytes(blob))

    @pytest.mark.parametrize("corrupt", [
        lambda ix: _edited(ix, "row_idx", 0, ix.num_docs),
        lambda ix: _edited(ix, "row_idx", slice(None), ix.row_idx[::-1]),
        lambda ix: _edited(ix, "row_idx", 2, ix.row_idx[1]),  # beta's column, rows 0, 0
        lambda ix: _edited(ix, "col_ptr", 1, 0),
        lambda ix: _edited(ix, "col_ptr", 1, ix.nnz + 1),
        lambda ix: _edited(ix, "col_ptr", slice(1, -1), ix.col_ptr[-2:0:-1]),
        lambda ix: ix.scores.__setitem__(0, np.nan),
        lambda ix: ix.scores.__setitem__(-1, np.inf),
        lambda ix: dataclasses.replace(ix, terms=ix.terms[:1] * 2 + ix.terms[2:]),
        lambda ix: dataclasses.replace(ix, terms=ix.terms[1::-1] + ix.terms[2:]),
        lambda ix: _drop_vocabulary(ix, keep_docs=True),
        lambda ix: _drop_vocabulary(ix, keep_docs=False),
        lambda ix: dataclasses.replace(ix, doc_ids=ix.doc_ids[:1] * 2 + ix.doc_ids[2:]),
        lambda ix: dataclasses.replace(ix, doc_ids=ix.doc_ids[:1] + ("",) + ix.doc_ids[2:]),
        # num_docs is derived from doc_ids; force a stale one to write a wrong N.
        lambda ix: object.__setattr__(ix, "num_docs", ix.num_docs + 1),
    ], ids=["row_eq_n", "rows_descending", "row_repeated", "empty_column", "col_ptr_past_end",
            "col_ptr_descending", "nan_score", "inf_score", "duplicate_term",
            "unsorted_term", "no_vocabulary", "no_vocabulary_no_documents", "duplicate_doc_id",
            "empty_doc_id", "num_docs_mismatch"])
    def test_malformed_structure_is_corrupt_error(self, index, corrupt):
        loaded = loads_index(dumps_index(index))
        loaded = corrupt(loaded) or loaded  # scores and num_docs in place, else a new index
        with pytest.raises(IndexFormatError, match="corrupt index"):
            loads_index(dumps_index(loaded))

    @pytest.mark.parametrize("scorer, fields", IMPOSSIBLE_HEADERS, ids=IMPOSSIBLE_HEADER_IDS)
    def test_impossible_header_is_corrupt_error(self, scorer, fields):
        corpus = make_corpus(["alpha beta gamma", "beta gamma delta", "gamma delta"])
        index = (build_index if scorer == "bm25" else build_dph_index)(corpus, TokenizerMode.T0)
        blob = dumps_index(index)
        loads_index(blob)
        # An in-memory IndexHeader cannot hold these states; write them into the bytes.
        with pytest.raises(IndexFormatError, match="corrupt header"):
            loads_index(_with_fixed(blob, **fields))

    @pytest.mark.parametrize("raw", [b'["alpha", ["beta"], "delta", "gamma"]',
                                     b'{"alpha": 0}', b'["alpha", "beta"', b'["\xff"]'])
    def test_unreadable_vocabulary_is_corrupt_error(self, index, raw):
        blob = dumps_index(index)
        start = len(_MAGIC) + storage._FIXED.size
        (size,) = struct.unpack("<Q", blob[start:start + 8])
        corrupted = blob[:start] + struct.pack("<Q", len(raw)) + raw + blob[start + 8 + size:]
        with pytest.raises(IndexFormatError, match="JSON block"):
            loads_index(corrupted)

    @staticmethod
    def _with_block(blob: bytes, block: int, raw: bytes) -> bytes:
        """``blob`` with JSON block ``block`` (0 the vocabulary, 1 the doc ids) set to ``raw``."""
        end = len(_MAGIC) + storage._FIXED.size
        for _ in range(block + 1):
            start = end
            (size,) = struct.unpack("<Q", blob[start:start + 8])
            end = start + 8 + size
        return blob[:start] + struct.pack("<Q", len(raw)) + raw + blob[end:]

    # A lone surrogate in a block loads into a str that UTF-8 cannot encode,
    # so neither the index nor a run of it could be written again.
    # (block, a lone surrogate, the same block with it in a valid escaped pair)
    @pytest.mark.parametrize("block, lone, paired", [
        (0, rb'["alpha", "b\udc00", "delta", "gamma"]',
         rb'["alpha", "b\ud83d\udc00", "delta", "gamma"]'),
        (1, rb'["d\ud800", "dB", "d2"]', rb'["d\ud800\udc00", "dB", "d2"]'),
    ], ids=["vocab", "doc_ids"])
    def test_lone_surrogate_in_a_block_is_corrupt_error(self, index, block, lone, paired):
        blob = dumps_index(index)
        loaded = loads_index(self._with_block(blob, block, paired))
        assert dumps_index(loads_index(dumps_index(loaded))) == dumps_index(loaded)
        with pytest.raises(IndexFormatError, match="JSON block"):
            loads_index(self._with_block(blob, block, lone))

    @pytest.mark.parametrize("ids", [["d0", "d1\t", "d2"], ["d0", "d1 ", "d2"],
                                     ["d0", "d1\u2028", "d2"], ["a\tb", "c d", "d2"],
                                     ["d0", "d1\u00e9", "d2"]],
                             ids=["tab", "space", "line_separator", "inner", "legal"])
    def test_doc_ids_obey_the_corpus_id_rule(self, index, ids):
        # A whitespace id would split a TREC run row into too many columns.
        blob = self._with_block(dumps_index(index), 1,
                                json.dumps(ids, ensure_ascii=False).encode("utf-8"))
        try:
            check_ids_by_loop("doc id", ids, None, None)
        except ParseError as expected:
            with pytest.raises(IndexFormatError) as refused:
                loads_index(blob)
            assert str(refused.value) == f"corrupt index: {expected}"
        else:
            assert loads_index(blob).doc_ids == tuple(ids)

    @pytest.mark.parametrize("block", [0, 1], ids=["vocab", "doc_ids"])
    def test_too_deeply_nested_block_is_corrupt_error(self, index, block):
        with pytest.raises(IndexFormatError, match="JSON block"):
            loads_index(self._with_block(dumps_index(index), block, b"[" * 100_000))

    def test_every_bit_flip_is_rejected_or_well_formed(self, index):
        blob = dumps_index(index)
        for pos in range(len(blob)):
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[pos] ^= 1 << bit
                try:
                    loaded = loads_index(bytes(flipped))
                except IndexFormatError:
                    continue
                loaded.check_invariants()

    def test_failed_save_leaves_existing_file_intact(self, tmp_path, index, monkeypatch):
        path = tmp_path / "i.qlx"
        save_index(index, path)
        before = path.read_bytes()

        def write_half_then_fail(self, data):
            with open(self, "wb") as fh:
                fh.write(data[:len(data) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
        index.scores[:] = 1.0
        with pytest.raises(OSError, match="No space"):
            save_index(index, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["i.qlx"]

    def test_concurrent_writes_to_one_path_leave_one_whole_file(self, tmp_path):
        # Threads of one process (more than the cores of a small CI host): each
        # must write through its own temporary file.
        path = tmp_path / "out.bin"
        payloads = [b"a" * 3_000_000, b"b" * 2_000_000, b"c" * 1_000_000]
        for _ in range(30):
            barrier, errors = threading.Barrier(len(payloads)), []

            def write(data):
                try:
                    barrier.wait(timeout=30)
                    write_atomic(path, data)
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=write, args=(p,)) for p in payloads]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert path.read_bytes() in payloads
            assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_bad_magic_rejected(self, index):
        blob = b"NOTANIDX" + dumps_index(index)[8:]
        with pytest.raises(IndexFormatError, match="magic"):
            loads_index(blob)

    def test_size_independent_of_applied_q(self, tmp_path, index):
        path_base = tmp_path / "base.qlx"
        save_index(index, path_base)
        a = load_index(path_base)
        b = load_index(path_base)
        a = rescale_index(a, 1.0)
        b = rescale_index(b, 0.1)
        save_index(a, tmp_path / "a.qlx")
        save_index(b, tmp_path / "b.qlx")
        assert (tmp_path / "a.qlx").stat().st_size == (tmp_path / "b.qlx").stat().st_size


class TestIndexFile:
    """``load_index`` reads a file through the checks ``loads_index`` applies to bytes."""

    @pytest.fixture(params=["built", "rescaled", "dph"])
    def index(self, request):
        corpus = make_corpus(["alpha beta gamma", "beta gamma delta", "gamma delta"])
        if request.param == "dph":
            return build_dph_index(corpus, TokenizerMode.T0)
        index = build_index(corpus, TokenizerMode.T0)
        return rescale_index(index, 0.3) if request.param == "rescaled" else index

    def test_file_load_equals_bytes_load_field_by_field(self, tmp_path, index):
        path = tmp_path / "i.qlx"
        save_index(index, path)
        from_file = load_index(path)
        for expected in (loads_index(path.read_bytes()), index):
            for field in dataclasses.fields(SparseScoreIndex):
                got, want = getattr(from_file, field.name), getattr(expected, field.name)
                if isinstance(want, np.ndarray):
                    assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), field.name
                else:
                    assert got == want, field.name
        assert from_file.scores.flags.writeable
        assert not (from_file.col_ptr.flags.writeable or from_file.row_idx.flags.writeable)

    def test_truncated_or_extended_file_is_corrupt_error(self, tmp_path, index):
        blob = dumps_index(index)
        path = tmp_path / "i.qlx"
        cuts = [blob[:cut] for cut in [3, len(_MAGIC) + 10, len(blob) // 2, len(blob) - 1]]
        for data, message in [(cut, "truncated index") for cut in cuts] + [
                (blob + b"\0", "1 trailing bytes")]:
            path.write_bytes(data)
            with pytest.raises(IndexFormatError, match=message) as from_file:
                load_index(path)
            with pytest.raises(IndexFormatError) as from_bytes:
                loads_index(data)
            assert str(from_file.value) == str(from_bytes.value)

    @pytest.mark.parametrize("edit", [
        lambda blob: _with_fixed(blob, nnz=1 << 40),
        lambda blob: _with_fixed(blob, vocab_size=1 << 40),
        lambda blob: blob[:_VOCAB_BLOCK] + struct.pack("<Q", 1 << 40) + blob[_VOCAB_BLOCK + 8:],
    ], ids=["nnz", "vocab_size", "vocab_block_length"])
    def test_lengths_past_the_file_allocate_nothing(self, tmp_path, index, edit):
        path = tmp_path / "i.qlx"
        path.write_bytes(edit(dumps_index(index)))
        tracemalloc.start()
        try:
            with pytest.raises(IndexFormatError, match="truncated index"):
                load_index(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the claimed buffer would take 2**40 bytes or more

    @pytest.mark.parametrize("keep", [0.3, 0.6, 0.99])
    def test_file_cut_after_its_size_was_read_is_corrupt_error(self, tmp_path, index,
                                                               monkeypatch, keep):
        # A file cut after fstat reads short; the load must not return what the
        # buffers held before the read.
        path = tmp_path / "i.qlx"
        save_index(index, path)
        size, fstat = path.stat().st_size, os.fstat

        def fstat_then_cut(fd):
            stat = fstat(fd)
            os.truncate(path, int(size * keep))
            return stat

        monkeypatch.setattr(storage.os, "fstat", fstat_then_cut)
        with pytest.raises(IndexFormatError, match=f"truncated index.*file holds {size}"):
            load_index(path)
