"""Tokenizer modes for code-oriented retrieval.

Four modes are provided:

* ``T0`` lowercases the text, extracts word-character runs of length >= 2,
  and drops stopwords.  No stemming.
* ``T1`` splits on whitespace only and lowercases; every token of length
  >= 1 is kept, stopwords included.
* ``T2`` extends T0: each extracted token is emitted whole, followed by its
  identifier sub-tokens (camelCase / snake_case / digit-boundary parts).
  Consecutive repeats inside one token's emission are collapsed so a token
  with no internal boundary is not double counted.
* ``T3`` emits only the sub-tokens; the whole token is kept just when it
  does not split.

Sub-token boundaries are computed from the original cased surface, since
lowercasing first would erase camelCase boundaries.
"""

from __future__ import annotations

import enum
import re
from functools import lru_cache
from importlib import resources

__all__ = ["TokenizerMode", "tokenize", "split_identifier", "word_surfaces", "surface_tokens",
           "default_stopwords"]

# Word-character runs of length >= 2; underscores count as word characters,
# so snake_case survives extraction intact and is split later if requested.
_WORD_RE = re.compile(r"\b\w\w+\b")

# One alternative per identifier part kind: acronym run (stops before a
# trailing TitleCase word), TitleCase word, lowercase run, digit run.
_CAMEL_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+|[0-9]+")

# Underscores and any non-word character act as hard separators.
_SEP_RE = re.compile(r"[\W_]+")


class TokenizerMode(enum.Enum):
    """Tokenization modes accepted by the index builder and query path."""

    T0 = "t0"
    T1 = "t1"
    T2 = "t2"
    T3 = "t3"

    @classmethod
    def from_string(cls, name: str) -> "TokenizerMode":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown tokenizer mode {name!r}; expected one of "
                             f"{[m.value for m in cls]}") from None


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """Load the bundled stopword list (33 common English function words)."""
    text = resources.files("qlex").joinpath("data/stopwords_en.txt").read_text("utf-8")
    return frozenset(w for w in text.split() if w)


def split_identifier(token: str) -> list[str]:
    """Split an identifier into lowercased parts.

    Boundaries: underscores and other non-word separators, lower-to-upper
    camelCase transitions, letter/digit transitions.  An acronym run splits
    before its last capital when followed by a lowercase letter, so
    ``HTTPServer`` gives ``[http, server]``.  Length-1 parts are kept.
    A token with no boundary comes back as a single lowercased part.

    An ASCII token takes one regex pass: ``_CAMEL_RE`` matches only
    ``[A-Za-z0-9]``, so every other character already acts as a separator,
    and its lookahead sees "not ``[a-z]``" at a separator as at a chunk end.
    Other tokens are cut at separators first and split chunk by chunk.
    """
    if not token:
        raise ValueError("cannot split an empty token")
    if token.isascii():
        return [p.lower() for p in _CAMEL_RE.findall(token)]
    parts: list[str] = []
    for chunk in _SEP_RE.split(token):
        if not chunk:
            continue
        if chunk.isascii():
            parts.extend(m.group(0).lower() for m in _CAMEL_RE.finditer(chunk))
        else:
            # Non-ASCII identifiers are rare in code; keep the chunk whole.
            parts.append(chunk.lower())
    return parts


def word_surfaces(text: str) -> list[str]:
    """Word-character runs of length >= 2 in ``text``, as written: the T2/T3 surfaces."""
    return _WORD_RE.findall(text)


def surface_tokens(raw: str, mode: TokenizerMode) -> list[str]:
    """The T2 or T3 tokens of one raw surface (an item of :func:`word_surfaces`).

    Nothing for a stopword (checked on ``raw.lower()``).  T2 emits the whole
    lowercased surface, then its parts, collapsing consecutive repeats inside
    this one emission only.  T3 emits the parts, or the whole surface when it
    does not split.  The emission depends on ``raw`` alone, so a document's
    tokens are the concatenated emissions of its surfaces.  T0 has no such
    rule: it lowercases before extracting, and lowercasing can change where
    words start (``"İ"`` becomes two code points, one not a word character).
    """
    if mode not in (TokenizerMode.T2, TokenizerMode.T3):
        raise ValueError(f"mode {mode.value} has no per-surface rule")
    whole = raw.lower()
    if whole in default_stopwords():
        return []
    parts = split_identifier(raw)
    if mode is TokenizerMode.T3:
        return parts if len(parts) >= 2 else [whole]
    unit = [whole]
    for part in parts:
        if part != unit[-1]:
            unit.append(part)
    return unit


def tokenize(text: str, mode: TokenizerMode) -> list[str]:
    """Tokenize ``text`` under the given mode.

    The bundled stopword list (:func:`default_stopwords`) applies to
    T0/T2/T3 whole tokens only; T1 never filters.  The returned tokens are
    lowercase and contain no whitespace.
    """
    if not isinstance(mode, TokenizerMode):
        raise TypeError(f"mode must be a TokenizerMode, got {type(mode).__name__}")
    if mode is TokenizerMode.T1:
        return text.lower().split()

    if mode is TokenizerMode.T0:
        sw = default_stopwords()
        return [w for w in _WORD_RE.findall(text.lower()) if w not in sw]
    return [tok for raw in word_surfaces(text) for tok in surface_tokens(raw, mode)]
