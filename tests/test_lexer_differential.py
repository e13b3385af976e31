"""The master-regex lexer against the character-at-a-time lexer it replaced.

Both must give the same (kind, lexeme, line, column, preceding) for every
token, or raise LexError with the same line, column and reason. The
production lexer returns columns, so `columns_as_tokens` rebuilds those
tuples from them: the comments merged in by start, line and column from
the start, and `preceding` as the text since the end of the last token.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexer_oracle
from cam.javasrc.lexer import LexError, position, tokenize
from fixtures import CASES
from test_lexer import merged
from test_properties import FRAGMENTS


def columns_as_tokens(text):
    out = []
    end = 0
    for start, kind, lexeme in merged(tokenize(text)):
        out.append((kind, lexeme, *position(text, start), text[end:start]))
        end = start + len(lexeme)
    return out


def oracle_tokens(text):
    return [(t.kind, t.lexeme, t.line, t.column, t.preceding) for t in lexer_oracle.tokenize(text)]


def scan(lex, text):
    try:
        return lex(text)
    except (LexError, lexer_oracle.LexError) as exc:
        return ("error", exc.line, exc.column, exc.reason)


def assert_same(text):
    assert scan(columns_as_tokens, text) == scan(oracle_tokens, text)


EXTRA_FRAGMENTS = [
    "café", "x²", "Ⅻ", "١٢", ".é", "é", "1_000", ".5", "3.", "1..2", "0x1p3",
    "1e", "07", "$x", "_", "\"\\\n\"", "/*\nx\n*/", "'\\\n'", "\f", "\\u0041",
    "€", "\u0301", "\u200d", "0x_", "0b_", "_.", "L",
    # JLS 3.10.1-3.10.2: octal ints and hex floats.
    "09", "0_8", "00", "0x1.", "0x.8", "p1", "P-", "8f",
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
        assert scan(columns_as_tokens, text) == lexemes
    else:
        assert tokenize(text).lexemes[:-1] == lexemes
