"""The master-regex lexer against the character-at-a-time lexer it replaced.

Both must give the same (kind, lexeme, line, column, preceding) for every
token, or raise LexError with the same line, column and reason.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexer_oracle
from cam.javasrc.lexer import LexError, tokenize
from fixtures import CASES
from test_properties import FRAGMENTS


def scan(lex, text):
    try:
        return [(t.kind, t.lexeme, t.line, t.column, t.preceding) for t in lex(text)]
    except LexError as exc:
        return ("error", exc.line, exc.column, exc.reason)


def assert_same(text):
    assert scan(tokenize, text) == scan(lexer_oracle.tokenize, text)


EXTRA_FRAGMENTS = [
    "café", "x²", "Ⅻ", "١٢", ".é", "é", "1_000", ".5", "3.", "1..2", "0x1p3",
    "1e", "07", "$x", "_", "\"\\\n\"", "/*\nx\n*/", "'\\\n'", "\f", "\\u0041",
    "€", "\u0301", "\u200d", "0x_", "0b_", "_.", "L",
]
soup = st.lists(st.sampled_from(FRAGMENTS + EXTRA_FRAGMENTS), max_size=60).map("".join)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(soup)
def test_same_tokens_on_token_soup(text):
    assert_same(text)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.text())
def test_same_tokens_on_any_text(text):
    assert_same(text)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.file)
def test_same_tokens_on_fixture_sources(case):
    assert_same(case.source)


@pytest.mark.parametrize(
    "text, lexemes",
    [
        # An ASCII prefix must not match by giving back characters.
        ("café", ["café"]),
        ("a1_000", ["a1_000"]),
        ("intλ", ["intλ"]),
        # A '.' before a non-ASCII character is a separator; a number takes
        # ASCII digits only, so a digit of another script is illegal.
        (".é", [".", "é"]),
        (".١", ("error", 1, 2, "illegal character '١'")),
        ("1²", ("error", 1, 2, "illegal character '²'")),
        ("...é", ["...", "é"]),
    ],
)
def test_non_ascii_boundaries(text, lexemes):
    """*lexemes* lists the tokens, or is the error as `scan` reports it."""
    assert_same(text)
    if isinstance(lexemes, tuple):
        assert scan(tokenize, text) == lexemes
    else:
        assert [t.lexeme for t in tokenize(text)[:-1]] == lexemes
