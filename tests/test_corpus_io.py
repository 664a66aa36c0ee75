"""File loading, validation, and index serialization surfaces."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from qlex import (Corpus, Document, DuplicateIdError, IndexFormatError, ParseError, QuerySet,
                  build_dph_index, build_index, load_corpus, load_qrels, load_queries, load_index, save_index,
                  dumps_index, loads_index, top_k)
from qlex import storage
from qlex.storage import INDEX_FORMAT_VERSION, _MAGIC
from qlex.tokenizers import TokenizerMode

from conftest import (IMPOSSIBLE_HEADER_IDS, IMPOSSIBLE_HEADERS, make_corpus,
                      write_jsonl_corpus)


class TestCorpusLoading:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "a", "text": "x y"}\n{"doc_id": "b", "text": "z"}\n')
        corpus = load_corpus(path)
        assert len(corpus) == 2
        assert corpus.text("a") == "x y"
        assert corpus.doc_ids() == ["a", "b"]

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

    def test_tsv_format(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\thello world\nb\tgoodbye\n")
        corpus = load_corpus(path, format="tsv")
        assert corpus.text("b") == "goodbye"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_corpus(tmp_path / "x", format="parquet")


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


class TestIdValidation:
    """One id check per kind; loaders locate it, direct construction still raises."""

    def test_empty_tsv_doc_id_names_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\tone\n\tmissing id\n")
        with pytest.raises(ParseError, match="empty doc_id") as exc:
            load_corpus(path, format="tsv")
        assert (exc.value.path, exc.value.line) == (str(path), 2)

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

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td1\n")
        with pytest.raises(ParseError):
            load_qrels(path)


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
        lambda ix: ix.row_idx.__setitem__(0, ix.num_docs),
        lambda ix: ix.row_idx.__setitem__(slice(None), ix.row_idx[::-1].copy()),
        lambda ix: ix.col_ptr.__setitem__(1, 0),
        lambda ix: ix.col_ptr.__setitem__(1, ix.nnz + 1),
        lambda ix: ix.col_ptr.__setitem__(slice(1, -1), ix.col_ptr[-2:0:-1].copy()),
        lambda ix: ix.scores.__setitem__(0, np.nan),
        lambda ix: ix.scores.__setitem__(-1, np.inf),
        lambda ix: ix.terms.__setitem__(1, ix.terms[0]),
    ], ids=["row_eq_n", "rows_descending", "empty_column", "col_ptr_past_end",
            "col_ptr_descending", "nan_score", "inf_score", "duplicate_term"])
    def test_malformed_structure_is_corrupt_error(self, index, corrupt):
        # A loaded copy: a built index shares read-only arrays with its build.
        loaded = loads_index(dumps_index(index))
        corrupt(loaded)
        with pytest.raises(IndexFormatError, match="corrupt index"):
            loads_index(dumps_index(loaded))

    @pytest.mark.parametrize("scorer, fields", IMPOSSIBLE_HEADERS, ids=IMPOSSIBLE_HEADER_IDS)
    def test_impossible_header_is_corrupt_error(self, scorer, fields):
        corpus = make_corpus(["alpha beta gamma", "beta gamma delta", "gamma delta"])
        index = (build_index if scorer == "bm25" else build_dph_index)(corpus, TokenizerMode.T0)
        blob = dumps_index(index)
        loads_index(blob)
        # An in-memory IndexHeader cannot hold these states; write them into the bytes.
        names = ["version", "mode", "scorer", "k1", "b", "applied_q", "applied_gamma",
                 "num_docs", "avg_len", "vocab_size", "nnz"]
        start, end = len(_MAGIC), len(_MAGIC) + storage._FIXED.size
        values = dict(zip(names, storage._FIXED.unpack(blob[start:end])))
        values.update(fields)
        corrupted = blob[:start] + storage._FIXED.pack(*values.values()) + blob[end:]
        with pytest.raises(IndexFormatError, match="corrupt header"):
            loads_index(corrupted)

    @pytest.mark.parametrize("raw", [b'["alpha", ["beta"], "delta", "gamma"]',
                                     b'{"alpha": 0}', b'["alpha", "beta"', b'["\xff"]'])
    def test_unreadable_vocabulary_is_corrupt_error(self, index, raw):
        blob = dumps_index(index)
        start = len(_MAGIC) + storage._FIXED.size
        (size,) = struct.unpack("<Q", blob[start:start + 8])
        corrupted = blob[:start] + struct.pack("<Q", len(raw)) + raw + blob[start + 8 + size:]
        with pytest.raises(IndexFormatError, match="JSON block"):
            loads_index(corrupted)

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

    def test_bad_magic_rejected(self, index):
        blob = b"NOTANIDX" + dumps_index(index)[8:]
        with pytest.raises(IndexFormatError, match="magic"):
            loads_index(blob)

    def test_size_independent_of_applied_q(self, tmp_path, index):
        from qlex import rescale_index
        path_base = tmp_path / "base.qlx"
        save_index(index, path_base)
        a = load_index(path_base)
        b = load_index(path_base)
        rescale_index(a, 1.0)
        rescale_index(b, 0.1)
        save_index(a, tmp_path / "a.qlx")
        save_index(b, tmp_path / "b.qlx")
        assert (tmp_path / "a.qlx").stat().st_size == (tmp_path / "b.qlx").stat().st_size
