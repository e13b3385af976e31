import re

import pytest

from cam.javasrc.lexer import LexError, position, tokenize
from fixtures import CASES


def merged(tokens):
    """(start, kind, lexeme) of every token, the comments merged in by start."""
    stream = list(zip(tokens.starts, tokens.kinds, tokens.lexemes))
    for start, text in tokens.comments:
        stream.append((start, "comment-line" if text.startswith("//") else "comment-block", text))
    return sorted(stream)


def assert_lossless(text):
    """The source reassembles from its columns: each lexeme is the slice of
    *text* at its start, starts strictly increase with the comments merged
    in, only whitespace lies between two tokens, and the ``eof`` entry
    starts at the end."""
    tokens = tokenize(text)
    assert len(tokens.kinds) == len(tokens.lexemes) == len(tokens.starts)
    for starts in (tokens.starts, [start for start, _text in tokens.comments]):
        assert starts == sorted(set(starts))
    end = 0
    for start, _kind, lexeme in merged(tokens):
        assert start >= end
        assert text[start : start + len(lexeme)] == lexeme
        assert re.fullmatch(r"[ \t\f\r\n]*", text[end:start])
        end = start + len(lexeme)
    assert (tokens.kinds[-1], tokens.lexemes[-1], tokens.starts[-1]) == ("eof", "", len(text))
    assert "eof" not in tokens.kinds[:-1]


TRICKY = [
    "",
    "   \t\n  ",
    "int x = 0x1F_2aL;\n",
    "double d = 1_000.5e-3f;",
    "float f = 0b1010 + .5d;",
    "char c = '\\n'; char d = '\\'';",
    'String s = "a\\"b\\\\";',
    "a >>>= b >>> c >> d > e;",
    "Runnable r = () -> {};",
    "java.util.function.Function<String, String> f = String::trim;",
    "void f(int... xs) {}",
    "@interface A {}\r\n",
    "// line comment no newline",
    "/* block\n   spanning */ class X {}",
    "x = y /*inline*/ + z; // tail\n",
    "Map<String, List<Integer>> m;",
]


@pytest.mark.parametrize("text", TRICKY)
def test_reassemble_is_lossless(text):
    assert_lossless(text)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.file)
def test_reassemble_fixture_sources(case):
    assert_lossless(case.source)


def kinds(text):
    """(kind, lexeme) of every token but the eof entry, comments merged in."""
    return [(kind, lexeme) for _start, kind, lexeme in merged(tokenize(text))[:-1]]


def test_keywords_and_identifiers():
    got = kinds("class Foo extends true nullx null")
    assert got == [
        ("keyword", "class"),
        ("identifier", "Foo"),
        ("keyword", "extends"),
        ("keyword", "true"),
        ("identifier", "nullx"),
        ("keyword", "null"),
    ]


def test_numeric_literal_kinds():
    assert kinds("0 12L 0x1F 0b10 1_0")[0][0] == "literal-int"
    for lex in ("1.5", "1e3", ".25", "2f", "3D", "0x1p3", "1_0.5"):
        assert kinds(lex) == [("literal-float", lex)]
    assert kinds("07")[0] == ("literal-int", "07")
    # JLS 3.10.1-3.10.2: octal ints, decimal floats that start with '0',
    # and hex floats with no digit before the point
    for lex in ("0_7", "0777", "00"):
        assert kinds(lex) == [("literal-int", lex)]
    for lex in ("09.5", "09e1", "09f", "0x1.p1", "0x.8p1", "0x1P+3d"):
        assert kinds(lex) == [("literal-float", lex)]
    # an '_' between two digits, alone or in a run
    assert kinds("1__2 0_7 0x1_F 0b1_0") == [
        ("literal-int", "1__2"),
        ("literal-int", "0_7"),
        ("literal-int", "0x1_F"),
        ("literal-int", "0b1_0"),
    ]


@pytest.mark.parametrize(
    "text, name",
    [
        ("int €x;", "€x"),  # a currency symbol starts a name
        ("int a\u0301;", "a\u0301"),  # a combining mark goes on with one
        ("int Ⅷ;", "Ⅷ"),  # a letter number starts one
        ("int a\u200db;", "a\u200db"),  # so does a format character
    ],
)
def test_java_identifier_rule(text, name):
    assert kinds(text) == [("keyword", "int"), ("identifier", name), ("separator", ";")]


def test_string_and_char_literals():
    assert kinds('"hi"') == [("literal-string", '"hi"')]
    assert kinds("'x'") == [("literal-char", "'x'")]
    assert kinds("'\\u0041'") == [("literal-char", "'\\u0041'")]


def test_symbol_classification():
    table = {
        "->": "operator",
        "::": "separator",
        "...": "separator",
        "@": "separator",
        "?": "operator",
        ":": "operator",
        ">>": "operator",
        ">>>=": "operator",
        "(": "separator",
        ";": "separator",
        ".": "separator",
    }
    for lexeme, kind in table.items():
        assert kinds(lexeme) == [(kind, lexeme)]


def test_glued_shift_is_one_token():
    assert kinds("a >> b")[1] == ("operator", ">>")
    assert kinds("List<List<String>> x")[5] == ("operator", ">>")


def test_comment_tokens():
    got = kinds("// one\n/* two */ x")
    assert got == [
        ("comment-line", "// one"),
        ("comment-block", "/* two */"),
        ("identifier", "x"),
    ]


def test_eof_sentinel_holds_trailing_whitespace():
    text = "x  \n\t"
    tokens = tokenize(text)
    assert (tokens.kinds, tokens.lexemes, tokens.starts) == (["identifier", "eof"], ["x", ""], [0, 5])
    assert position(text, tokens.starts[-1]) == (2, 2)
    assert text[tokens.starts[0] + 1 : tokens.starts[-1]] == "  \n\t"


def test_positions():
    text = "ab\n  cd"
    starts = tokenize(text).starts
    assert position(text, starts[0]) == (1, 1)
    assert position(text, starts[1]) == (2, 3)


LEX_ERRORS = [
    ('"open', 1, 1, "unterminated string literal"),
    ("'x", 1, 1, "unterminated char literal"),
    ("'ab\n'", 1, 1, "unterminated char literal"),
    ('"line\nbreak"', 1, 1, "unterminated string literal"),
    ("/* never closed", 1, 1, "unterminated block comment"),
    ("0x;", 1, 1, "malformed hex literal"),
    ("0b2", 1, 1, "malformed binary literal"),
    ("1abc", 1, 1, "malformed numeric literal"),
    ("`tick`", 1, 1, "illegal character '`'"),
    ("#define", 1, 1, "illegal character '#'"),
    ('"esc\\', 1, 1, "unterminated escape"),
    # A number takes ASCII digits only, as javac's does.
    ("class A { int x = 1²; }", 1, 20, "illegal character '²'"),
    ("class A { int x = ١٢; }", 1, 19, "illegal character '١'"),
    ("class A { double x = .١; }", 1, 23, "illegal character '١'"),
    ("0x1p٣", 1, 5, "illegal character '٣'"),
    # A superscript digit (category No) is not part of a Java name.
    ("class A { int x² = 1; }", 1, 16, "illegal character '²'"),
    # An '_' in a number must sit between two digits.
    ("1_", 1, 1, "malformed numeric literal"),
    ("1_.5", 1, 1, "malformed numeric literal"),
    ("0x_1", 1, 1, "malformed numeric literal"),
    ("0b_1", 1, 1, "malformed numeric literal"),
    ("1_L", 1, 1, "malformed numeric literal"),
    ("x = 1._5;", 1, 5, "malformed numeric literal"),
    ("1e5_", 1, 1, "malformed numeric literal"),
    # JLS 3.10.1: an int that starts with '0' is octal.
    ("class A { int x = 09; }", 1, 19, "malformed octal literal"),
    ("08L", 1, 1, "malformed octal literal"),
    ("x =\n  0_8;", 2, 3, "malformed octal literal"),
    # JLS 3.10.2: a hex float needs a binary exponent with digits.
    ("0x1p", 1, 1, "malformed floating-point literal"),
    ("0x1.", 1, 1, "malformed floating-point literal"),
    ("0x1.٣", 1, 5, "illegal character '٣'"),
    ("d = 0x1.8f;", 1, 5, "malformed floating-point literal"),
    ("0x1p-;", 1, 1, "malformed floating-point literal"),
    ("0x.p1", 1, 1, "malformed hex literal"),
    # JLS 3.10.1-3.10.2: 'L' ends an int, never a float.
    ("1.5L", 1, 1, "malformed numeric literal"),
    ("1.5l", 1, 1, "malformed numeric literal"),
    ("x = 1e3L;", 1, 5, "malformed numeric literal"),
    ("0x1p3L", 1, 1, "malformed numeric literal"),
]


@pytest.mark.parametrize("text, line, column, reason", LEX_ERRORS, ids=[case[0] for case in LEX_ERRORS])
def test_lex_errors(text, line, column, reason):
    with pytest.raises(LexError) as info:
        tokenize(text)
    assert (info.value.line, info.value.column, info.value.reason) == (line, column, reason)


def test_lex_error_carries_position():
    with pytest.raises(LexError) as info:
        tokenize("ok\n  #")
    assert info.value.line == 2
    assert info.value.column == 3


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("/* a\n b */ x #", 2, 9),
        ('s = "a\\\n b" + #', 2, 7),
        ("x\n\n  // c\n\t@ #", 4, 4),
    ],
)
def test_positions_after_multiline_tokens(text, line, column):
    with pytest.raises(LexError) as info:
        tokenize(text)
    assert (info.value.line, info.value.column) == (line, column)
