"""Loading and validation of corpora, query sets, and relevance judgments.

Corpora and query sets are JSON Lines files (one object per line) with
``doc_id``/``text`` and ``query_id``/``text`` fields.  A query set is a corpus
of queries: :class:`QuerySet` is a :class:`Corpus` whose ids are query ids.
Both hold their ids and texts once, as two tuples of ``str`` with no id map,
load through one reader, and yield ``(id, text)`` :class:`Document` records.
Qrels are whitespace-separated triples ``query_id  doc_id  relevance`` with
non-negative integer relevance.  Every file is UTF-8; an undecodable byte is
a ParseError naming the file and line that holds it, and so is a field that
a JSON escape leaves holding a lone surrogate, which UTF-8 cannot encode.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DuplicateIdError, ParseError

__all__ = [
    "Document", "Corpus", "QuerySet", "QrelSet",
    "load_corpus", "load_queries", "load_qrels",
]

log = logging.getLogger(__name__)


class Document(NamedTuple):
    """One record of a corpus or a query set; it unpacks as ``(id, text)``."""

    doc_id: str
    text: str


def _check_ids(kind: str, ids: Sequence[str], path: str | None,
               lines: Sequence[int] | None) -> None:
    """The one empty-, whitespace- and duplicate-id check; it builds no id map.

    An id may not hold whitespace (what ``str.split`` splits on), which a
    TREC run row or a qrels line cannot hold in one column: one split of
    the joined ids finds it.
    Errors name the source ``path`` and the 1-based line of the offending
    record when ``lines`` gives one per id, else its position.
    """
    distinct = set(ids)
    if len(distinct) < len(ids) or "" in distinct or (joined := "".join(ids)).split() != [joined]:
        seen: set[str] = set()  # walk the ids in order to the first bad one
        for i, ident in enumerate(ids):
            line = None if lines is None else lines[i]
            where = "" if line is not None else f" at position {i}"
            if not ident:
                raise ParseError(f"empty {kind}{where}", path=path, line=line)
            if ident.split() != [ident]:
                raise ParseError(f"{kind} {ident!r}{where} holds whitespace",
                                 path=path, line=line)
            if ident in seen:
                raise DuplicateIdError(kind, ident, path=path, line=line)
            seen.add(ident)


class Corpus:
    """An ordered collection of (id, text) records with unique, non-empty ids.

    Ids and texts are stored once, as two tuples of ``str``, with no id map;
    iteration yields a :class:`Document` per record.  ``id_key`` names the id
    in error messages and in the JSONL field the loader reads.  ``path`` is
    the file a loaded corpus was read from, None for one built in memory; an
    invalid id is reported at its source line when loaded, else at its
    position.  :attr:`ids` and :attr:`texts` are read-only, so what
    :func:`qlex.index.count_tokens` keeps per corpus object stays true.
    """

    id_key = "doc_id"

    def __init__(self, records: Iterable[tuple[str, str]]):
        pairs = tuple(records)
        self._set_columns(tuple(i for i, _ in pairs), tuple(t for _, t in pairs), None, None)

    def _set_columns(self, ids: tuple[str, ...], texts: tuple[str, ...],
                     lines: Sequence[int] | None, path: str | None) -> None:
        _check_ids(self.id_key, ids, path, lines)
        self._ids, self._texts, self.path = ids, texts, path

    ids = property(attrgetter("_ids"), doc="The record ids, a tuple of str.")
    texts = property(attrgetter("_texts"), doc="The record texts, a tuple of str.")

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Document]:
        return map(Document, self._ids, self._texts)


class QuerySet(Corpus):
    """A corpus of queries: its ids are query ids."""

    id_key = "query_id"


@dataclass
class QrelSet:
    """Relevance judgments: query_id -> {doc_id -> relevance >= 0}.

    ``duplicates_replaced`` counts (query, doc) pairs that appeared more
    than once in the source file; the last value read wins.
    """

    judgments: dict[str, dict[str, int]] = field(default_factory=dict)
    duplicates_replaced: int = 0

    def for_query(self, query_id: str) -> Mapping[str, int]:
        return self.judgments.get(query_id, {})

    def relevant_docs(self, query_id: str) -> dict[str, int]:
        return {d: r for d, r in self.for_query(query_id).items() if r > 0}

    def has_relevant(self, query_id: str) -> bool:
        return any(r > 0 for r in self.for_query(query_id).values())


_scan_once = json.JSONDecoder().scan_once  # raw_decode without its Python frame
_JSON_WHITESPACE = " \t\n\r"


def _undecodable(path: Path, exc: UnicodeDecodeError) -> ParseError:
    """The ParseError for the first line of ``path`` holding a byte that is not UTF-8,
    found by reading the file again with such bytes escaped, split into lines
    as the loaders split it."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                break
    return ParseError(f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})",
                      path=str(path), line=lineno)


def _read_columns(path: Path, id_key: str) -> tuple[tuple[str, ...], tuple[str, ...], list[int]]:
    """The ``id_key`` and ``text`` columns of a JSONL file, and each record's 1-based line.

    One C ``scan_once`` parses a line when only JSON whitespace follows the value;
    any other line (blank, a BOM, trailing data, bad JSON) falls back to ``strip``
    and ``json.loads``, so each line gives what json.loads gives.  Both fields must
    be strings UTF-8 can encode: a lone surrogate is not ASCII, so only a value
    that is not an exact ASCII ``str`` is checked."""
    ids, texts, lines = [], [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    record, end = _scan_once(line, 0)
                    rest = len(line) - end
                    whole = (rest == 0 or (rest == 1 and line[-1] == "\n")
                             or not line[end:].strip(_JSON_WHITESPACE))
                except (StopIteration, ValueError, RecursionError):  # StopIteration: no value
                    whole = False
                if not whole:
                    if not line.strip():
                        continue
                    try:
                        record = json.loads(line)
                    except (ValueError, RecursionError) as exc:  # also too deep, or too long an int
                        raise ParseError(f"invalid JSON ({getattr(exc, 'msg', exc)})",
                                         path=str(path), line=lineno) from None
                if not isinstance(record, dict):
                    raise ParseError("record is not a JSON object", path=str(path), line=lineno)
                ident, text = record.get(id_key), record.get("text")
                if not (type(ident) is str is type(text) and ident.isascii() and text.isascii()):
                    for value, key in ((ident, id_key), (text, "text")):
                        if not isinstance(value, str):
                            raise ParseError(f"missing or non-string field {key!r}",
                                             path=str(path), line=lineno)
                        try:
                            value.encode("utf-8")
                        except UnicodeEncodeError as exc:
                            raise ParseError(f"field {key!r} holds a lone surrogate "
                                             f"{value[exc.start]!r}", path=str(path),
                                             line=lineno) from None
                ids.append(ident)
                texts.append(text)
                lines.append(lineno)
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    return tuple(ids), tuple(texts), lines


def _load(cls: type[Corpus], path: str | Path) -> Corpus:
    path = Path(path)
    records = cls.__new__(cls)
    records._set_columns(*_read_columns(path, cls.id_key), str(path))
    return records


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus from JSONL with doc_id/text fields."""
    return _load(Corpus, path)


def load_queries(path: str | Path) -> QuerySet:
    """Load a query set from JSONL with query_id/text fields."""
    return _load(QuerySet, path)


# A relevance grade: ASCII digits with an optional sign, not all that int() reads ("1_0", "٣").
_RELEVANCE = re.compile(r"[+-]?[0-9]+")


def load_qrels(path: str | Path) -> QrelSet:
    """Load qrels from whitespace-separated query_id/doc_id/relevance rows.

    Duplicate (query, doc) pairs keep the last value read; the number of
    replacements is recorded on the result and logged as a warning.  A
    relevance that is not ASCII digits with an optional sign, a negative
    relevance and a leading UTF-8 BOM are parse errors, the BOM as in the
    JSONL loaders.
    """
    path = Path(path)
    judgments: dict[str, dict[str, int]] = {}
    duplicates = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                if lineno == 1 and line.startswith("\ufeff"):  # else part of the first query id
                    raise ParseError("unexpected UTF-8 BOM", path=str(path), line=lineno)
                cols = line.split()
                if len(cols) != 3:
                    raise ParseError(f"expected 3 columns, got {len(cols)}",
                                     path=str(path), line=lineno)
                qid, doc_id, rel_text = cols
                if not _RELEVANCE.fullmatch(rel_text):
                    raise ParseError(f"relevance {rel_text!r} is not an integer in ASCII "
                                     "digits", path=str(path), line=lineno)
                rel = int(rel_text)
                if rel < 0:
                    raise ParseError(f"negative relevance {rel} for ({qid}, {doc_id})",
                                     path=str(path), line=lineno)
                per_query = judgments.setdefault(qid, {})
                if doc_id in per_query:
                    duplicates += 1
                per_query[doc_id] = rel
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    if duplicates:
        log.warning("qrels %s: %d duplicate (query, doc) pairs replaced by last value",
                    path, duplicates)
    return QrelSet(judgments=judgments, duplicates_replaced=duplicates)
