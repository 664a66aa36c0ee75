"""Tokenizer modes and identifier splitting."""

import string
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from qlex import tokenizers
from qlex.tokenizers import (TokenizerMode, default_stopwords, split_identifier, surface_tokens,
                             tokenize, word_surfaces)

from oracles import split_identifier_by_chunks, tokenize_by_regex, word_surfaces_by_regex

T0, T1, T2, T3 = TokenizerMode.T0, TokenizerMode.T1, TokenizerMode.T2, TokenizerMode.T3


class TestSplitIdentifier:
    def test_camel_case(self):
        assert split_identifier("handleWebSocketUpgrade") == ["handle", "web", "socket", "upgrade"]

    def test_snake_case(self):
        assert split_identifier("snake_case") == ["snake", "case"]

    def test_acronym_run_splits_before_last_capital(self):
        assert split_identifier("HTTPServer") == ["http", "server"]

    def test_acronym_digit_letter_boundaries(self):
        assert split_identifier("HTTPServer2x") == ["http", "server", "2", "x"]

    def test_letter_digit_boundary(self):
        assert split_identifier("sha256sum") == ["sha", "256", "sum"]

    def test_single_char_parts_kept(self):
        assert split_identifier("aB") == ["a", "b"]

    def test_no_boundary_returns_token_itself(self):
        for tok in ["auth", "middleware", "x", "UPPER", "1234"]:
            assert split_identifier(tok) == [tok.lower()]

    def test_mixed_separators(self):
        assert split_identifier("get_maxValue2") == ["get", "max", "value", "2"]

    def test_empty_token_rejected(self):
        with pytest.raises(ValueError):
            split_identifier("")

    @given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12))
    def test_boundary_free_tokens_are_fixed_points(self, tok):
        assert split_identifier(tok) == [tok]

    @given(st.lists(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6),
                    min_size=1, max_size=5))
    def test_parts_are_lowercase_and_boundary_free(self, chunks):
        token = "_".join(c.capitalize() for c in chunks)
        parts = split_identifier(token)
        assert parts == chunks
        for p in parts:
            assert p == p.lower()


class TestModes:
    def test_t0_lowercases_extracts_and_drops_stopwords(self):
        assert tokenize("handleWebSocketUpgrade auth middleware", T0) == [
            "handlewebsocketupgrade", "auth", "middleware"]

    def test_t0_drops_short_tokens_and_stopwords(self):
        assert tokenize("a I the parser of state", T0) == ["parser", "state"]

    def test_t0_no_stemming(self):
        assert tokenize("parsers parsing parsed", T0) == ["parsers", "parsing", "parsed"]

    def test_t1_whitespace_only_keeps_everything(self):
        assert tokenize("The quick a b", T1) == ["the", "quick", "a", "b"]

    def test_t1_keeps_punctuation_in_tokens(self):
        assert tokenize("foo.bar(x)  y", T1) == ["foo.bar(x)", "y"]

    def test_t2_emits_whole_then_subtokens(self):
        assert tokenize("handleWebSocketUpgrade", T2) == [
            "handlewebsocketupgrade", "handle", "web", "socket", "upgrade"]

    def test_t2_no_boundary_equals_t0(self):
        text = "auth middleware parser"
        assert tokenize(text, T2) == tokenize(text, T0)

    def test_t3_subtokens_only(self):
        assert tokenize("snake_case_name", T3) == ["snake", "case", "name"]

    def test_t3_keeps_unsplittable_tokens(self):
        assert tokenize("auth handleUpgrade", T3) == ["auth", "handle", "upgrade"]

    def test_mode_type_checked(self):
        with pytest.raises(TypeError):
            tokenize("x", "t0")


class TestModeInvariants:
    """T2 wholes reproduce T0; outputs are lowercase without whitespace."""

    CODEISH = st.lists(
        st.one_of(
            st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8),
            st.text(alphabet=string.ascii_uppercase + string.ascii_lowercase + string.digits + "_",
                    min_size=2, max_size=12),
        ),
        min_size=0, max_size=12,
    ).map(" ".join)

    @given(CODEISH)
    def test_t2_whole_tokens_superset_of_t0(self, text):
        t0_tokens = tokenize(text, T0)
        t2_tokens = tokenize(text, T2)
        # Every T0 token appears in T2 at least as often.
        for tok in set(t0_tokens):
            assert t2_tokens.count(tok) >= t0_tokens.count(tok)

    @given(CODEISH, st.sampled_from([T0, T1, T2, T3]))
    def test_tokens_lowercase_and_whitespace_free(self, text, mode):
        for tok in tokenize(text, mode):
            assert tok == tok.lower()
            assert not any(c.isspace() for c in tok)
            assert tok

    @given(CODEISH)
    def test_t0_tokens_meet_length_and_stopword_contract(self, text):
        sw = default_stopwords()
        for tok in tokenize(text, T0):
            assert len(tok) >= 2
            assert tok not in sw

    def test_t2_consecutive_dedup_is_per_token(self):
        # Two occurrences of the same boundary-free token stay two tokens.
        assert tokenize("data data", T2) == ["data", "data"]


class TestSplitIdentifierOracle:
    """The one-pass ASCII split equals the cut-at-separators chunk loop."""

    PRINTABLE = st.text(alphabet=string.printable, min_size=1, max_size=40)
    # Mostly identifier characters, with some non-ASCII letters and separators.
    MIXED = st.text(alphabet=st.one_of(
        st.sampled_from(string.ascii_letters + string.digits + "_- .é"),
        st.characters()), min_size=1, max_size=40)

    @settings(deadline=None)
    @given(st.one_of(PRINTABLE, MIXED))
    def test_split_identifier_matches_chunk_loop(self, token):
        assert split_identifier(token) == split_identifier_by_chunks(token)

    @settings(deadline=None)
    @given(st.one_of(PRINTABLE, MIXED), st.sampled_from([T2, T3]))
    def test_tokenize_matches_chunk_loop(self, text, mode):
        with mock.patch.object(tokenizers, "split_identifier", split_identifier_by_chunks):
            want = tokenize(text, mode)
        assert tokenize(text, mode) == want


class TestAsciiWordSplit:
    """ASCII text's translate-and-split words equal the regex's, in every mode."""

    # Word pieces of every length around the >= 2 cut, stopwords in any case,
    # and ASCII controls, \x1c-\x1f among them (whitespace to str.split, not
    # to bytes.split).
    ASCII_PIECES = ["a", "I", "_", "7", "x1", "The", "OF", "fooBar", "__init__", "HTTPServer",
                    " ", "\t", "\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x1f",
                    "\x00", "\x7f", ".", "-", "'"]
    ASCII = st.one_of(
        st.text(alphabet=st.characters(max_codepoint=127), max_size=60),
        st.lists(st.sampled_from(ASCII_PIECES), max_size=20).map("".join),
    )
    # "İ" lowercases to two code points, "Σ" and "²" are word characters
    # outside ASCII, and U+00A0 is whitespace only to str.split.
    MIXED = st.lists(st.one_of(
        st.sampled_from(["İDfoo", "Σ", "²", "\u00a0", "é"] + ASCII_PIECES),
        st.text(max_size=4)), max_size=20).map("".join)

    EDGES = "a I _ 7 x1\x1cThe\x1fof ok"

    @settings(deadline=None)
    @given(st.one_of(ASCII, MIXED), st.sampled_from([T0, T1, T2, T3]))
    @example(EDGES, T0)
    @example(EDGES, T2)
    def test_tokenize_equals_regex(self, text, mode):
        assert tokenize(text, mode) == tokenize_by_regex(text, mode)

    @settings(deadline=None)
    @given(st.one_of(ASCII, MIXED))
    @example(EDGES)
    def test_word_surfaces_equal_regex(self, text):
        assert word_surfaces(text) == word_surfaces_by_regex(text)


def _by_surfaces(text: str, mode: TokenizerMode) -> list[str]:
    """A document's tokens as the concatenated emissions of its surfaces.

    T2/T3 surfaces are the raw word runs, each emitted by ``surface_tokens``.
    A T0 surface is a word run of the lowercased text and a T1 surface a
    whitespace-split word of it; each emits itself (T0 drops stopwords).
    """
    sw = default_stopwords()
    if mode is T0:
        return [s for s in word_surfaces(text.lower()) if s not in sw]
    if mode is T1:
        return text.lower().split()
    return [tok for raw in word_surfaces(text) for tok in surface_tokens(raw, mode)]


class TestSurfaceEmissions:
    """Per-surface emissions, which the T2/T3 index build reuses per distinct surface."""

    # Length-changing case mappings, mixed-case stopwords, underscore-only
    # parts and identifiers joined by punctuation, plus free text over them.
    TRICKY = ["İDfoo", "The", "OF", "__init__", "x__y", "fooBar.bazQux", "parseHTTPServer",
              "naïveÜber", "ÆgirSøk", "日本語", "ẞig"]
    NON_ASCII = "İıẞßÆøé日\u0307"
    TEXT = st.one_of(
        st.text(alphabet=string.printable, max_size=60),
        st.text(alphabet=string.ascii_letters + string.digits + "_ .-" + NON_ASCII, max_size=60),
        st.lists(st.sampled_from(TRICKY), max_size=10).map(" ".join),
    )

    @settings(deadline=None)
    @given(TEXT, st.sampled_from([T0, T1, T2, T3]))
    def test_concatenated_emissions_equal_tokenize(self, text, mode):
        assert _by_surfaces(text, mode) == tokenize(text, mode)

    def test_t0_surfaces_come_from_lowercased_text(self):
        # "İ" lowercases to "i" plus a combining dot, which is not a word
        # character, so T0 cannot reuse emissions keyed by raw surfaces.
        assert tokenize("İDfoo", T0) == ["dfoo"]
        assert [raw.lower() for raw in word_surfaces("İDfoo")] == ["i\u0307dfoo"]

    def test_stopwords_checked_lowercased(self):
        for mode in (T2, T3):
            assert surface_tokens("The", mode) == []
            assert surface_tokens("OF", mode) == []

    def test_underscore_only_parts(self):
        assert surface_tokens("__init__", T2) == ["__init__", "init"]
        assert surface_tokens("__init__", T3) == ["__init__"]
        assert surface_tokens("x__y", T3) == ["x", "y"]

    @pytest.mark.parametrize("mode", [T0, T1])
    def test_no_rule_for_t0_t1(self, mode):
        with pytest.raises(ValueError):
            surface_tokens("fooBar", mode)


class TestStopwords:
    def test_bundled_list_loads_once(self):
        sw = default_stopwords()
        assert sw is default_stopwords()
        assert 25 <= len(sw) <= 40
        assert {"the", "and", "of", "is"} <= sw
        for w in sw:
            assert w == w.lower() and w.isalpha()
