"""Property tests over arbitrary soup of Java tokens and line ends."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cam.filters import REASONS, evaluate_file
from cam.javasrc.lexer import LexError, reassemble, tokenize

FRAGMENTS = [
    "class", "interface", "enum", "A", "x", "int", "void", "return", "new",
    "if", "else", "for", "while", "switch", "case", "default", "try", "catch",
    "instanceof", "this", "super", "import", "org.junit.Test", "@Override",
    "{", "}", "(", ")", "[", "]", ";", ",", ".", "::", "...", "->", "?", ":",
    "=", "+=", ">>>=", "==", "<", ">", ">>", "&&", "||", "&", "|", "!", "~",
    "+", "-", "++", "*", "/", "%", "0", "1L", "0x1F", "2.5e3", "\"s\"", "'c'",
    "\"", "'", "\\", "//", "/*", "*/", "#",
    " ", "\t", "\n", "\r", "\r\n",
]

soup = st.lists(st.sampled_from(FRAGMENTS), max_size=80).map("".join)
class_soup = soup.map(lambda body: "class A {\n" + body + "\n}\n")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(soup, class_soup))
def test_evaluate_file_always_returns_a_verdict(text):
    reason, unit = evaluate_file("src/A.java", text.encode("utf-8"))
    assert reason in REASONS or reason is None
    assert (unit is None) == (reason is not None)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(soup, st.text()))
def test_tokenize_is_lossless_or_raises_lex_error(text):
    try:
        tokens = tokenize(text)
    except LexError:
        return
    assert reassemble(tokens) == text
