"""Test-local copy of the character-at-a-time Java lexer, kept as an oracle.

The production lexer in `cam.javasrc.lexer` scans with one master regular
expression. This is the lexer it replaced, copied unchanged apart from
this header, its own `Token` and `LexError` (the production lexer has
neither a token object nor eager positions any more) and four deliberate
verdict changes made in both: numbers take ASCII digits only, so `1²` and
`١٢` are illegal characters; an '_' in a number must sit between two
digits; names follow Java's identifier rule by Unicode category; and
numbers follow JLS 3.10.1-3.10.2, so an int that starts with '0' is octal
(`09` is malformed) and a hex float needs its binary exponent (`0x1.8` and
`0x1p` are malformed, `0x.8p1` is a float). So
`tests/test_lexer_differential.py` can check that both give the same
tokens, or the same error, on any input.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field

from cam.javasrc.lexer import KEYWORDS


class LexError(Exception):
    def __init__(self, line: int, column: int, reason: str):
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


@dataclass(slots=True)
class Token:
    kind: str
    lexeme: str
    line: int
    column: int
    preceding: str = field(default="", repr=False, compare=False)

_WS = " \t\f\r\n"

# Longest match first; '@', '::' and '...' are separators per the language,
# the rest of the punctuation splits into operators and bracket/comma-like
# separators.
_SYMBOLS: list[tuple[str, str]] = [
    (">>>=", "operator"),
    ("...", "separator"),
    ("<<=", "operator"),
    (">>=", "operator"),
    (">>>", "operator"),
    ("::", "separator"),
    ("->", "operator"),
    ("==", "operator"),
    ("!=", "operator"),
    ("<=", "operator"),
    (">=", "operator"),
    ("&&", "operator"),
    ("||", "operator"),
    ("++", "operator"),
    ("--", "operator"),
    ("+=", "operator"),
    ("-=", "operator"),
    ("*=", "operator"),
    ("/=", "operator"),
    ("&=", "operator"),
    ("|=", "operator"),
    ("^=", "operator"),
    ("%=", "operator"),
    ("<<", "operator"),
    (">>", "operator"),
]
for _ch in "(){}[];,.@":
    _SYMBOLS.append((_ch, "separator"))
for _ch in "+-*/%=<>!~&|^?:":
    _SYMBOLS.append((_ch, "operator"))

_SYM_BY_LEN: dict[int, dict[str, str]] = {}
for _lex, _kind in _SYMBOLS:
    _SYM_BY_LEN.setdefault(len(_lex), {})[_lex] = _kind
_SYM_LENGTHS = sorted(_SYM_BY_LEN, reverse=True)

_HEX = "0123456789abcdefABCDEF_"
# Java numbers take ASCII digits only; any other digit is an illegal character.
_DIGITS = "0123456789"
_DIGITS_ = _DIGITS + "_"



# Java's Character.isJavaIdentifierStart and isJavaIdentifierPart, by
# Unicode category: letters, letter numbers, currency symbols ('$') and
# connectors ('_') start a name; digits, combining marks and format
# characters may follow.
_IDENT_START = frozenset(["Lu", "Ll", "Lt", "Lm", "Lo", "Nl", "Sc", "Pc"])
_IDENT_PART = _IDENT_START | {"Nd", "Mn", "Mc", "Cf"}


def _ident_start(ch: str) -> bool:
    return unicodedata.category(ch) in _IDENT_START


def _ident_part(ch: str) -> bool:
    return unicodedata.category(ch) in _IDENT_PART


def _digit_run(source: str, i: int, digits: str, line: int, col: int) -> int:
    """End of the run of *digits* (which include '_') at *i*; the run may
    not start or end with an '_'."""
    j = i
    while j < len(source) and source[j] in digits:
        j += 1
    if j > i and (source[i] == "_" or source[j - 1] == "_"):
        raise LexError(line, col, "malformed numeric literal")
    return j


def tokenize(source: str) -> list[Token]:
    """Scan *source* into tokens, ending with an ``eof`` sentinel.

    Raises LexError on unterminated strings/chars/comments, malformed
    numeric literals, and characters outside the language.
    """
    toks: list[Token] = []
    i = 0
    n = len(source)
    line = 1
    col = 1

    def advance_pos(text: str) -> None:
        nonlocal line, col
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rindex("\n")
        else:
            col += len(text)

    while True:
        ws_start = i
        while i < n and source[i] in _WS:
            i += 1
        preceding = source[ws_start:i]
        advance_pos(preceding)
        if i >= n:
            toks.append(Token("eof", "", line, col, preceding))
            return toks

        start = i
        tline, tcol = line, col
        ch = source[i]

        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            j = source.find("\n", i)
            if j == -1:
                j = n
            lexeme = source[i:j]
            toks.append(Token("comment-line", lexeme, tline, tcol, preceding))
            advance_pos(lexeme)
            i = j
            continue

        if ch == "/" and i + 1 < n and source[i + 1] == "*":
            j = source.find("*/", i + 2)
            if j == -1:
                raise LexError(tline, tcol, "unterminated block comment")
            lexeme = source[i : j + 2]
            toks.append(Token("comment-block", lexeme, tline, tcol, preceding))
            advance_pos(lexeme)
            i = j + 2
            continue

        if ch == '"' or ch == "'":
            quote = ch
            j = i + 1
            while True:
                if j >= n:
                    raise LexError(tline, tcol, f"unterminated {'string' if quote == chr(34) else 'char'} literal")
                c = source[j]
                if c == "\\":
                    if j + 1 >= n:
                        raise LexError(tline, tcol, "unterminated escape")
                    j += 2
                    continue
                if c == "\n":
                    raise LexError(tline, tcol, f"unterminated {'string' if quote == chr(34) else 'char'} literal")
                if c == quote:
                    j += 1
                    break
                j += 1
            lexeme = source[i:j]
            kind = "literal-string" if quote == '"' else "literal-char"
            toks.append(Token(kind, lexeme, tline, tcol, preceding))
            advance_pos(lexeme)
            i = j
            continue

        if ch in _DIGITS or (ch == "." and i + 1 < n and source[i + 1] in _DIGITS):
            kind, j = _scan_number(source, i, tline, tcol)
            lexeme = source[i:j]
            toks.append(Token(kind, lexeme, tline, tcol, preceding))
            advance_pos(lexeme)
            i = j
            continue

        if _ident_start(ch):
            j = i + 1
            while j < n and _ident_part(source[j]):
                j += 1
            lexeme = source[i:j]
            kind = "keyword" if lexeme in KEYWORDS else "identifier"
            toks.append(Token(kind, lexeme, tline, tcol, preceding))
            advance_pos(lexeme)
            i = j
            continue

        matched = False
        for length in _SYM_LENGTHS:
            cand = source[i : i + length]
            kind = _SYM_BY_LEN[length].get(cand)
            if kind is not None:
                toks.append(Token(kind, cand, tline, tcol, preceding))
                advance_pos(cand)
                i += length
                matched = True
                break
        if not matched:
            raise LexError(tline, tcol, f"illegal character {ch!r}")


def _scan_number(source: str, i: int, line: int, col: int) -> tuple[str, int]:
    n = len(source)
    kind = "literal-int"
    prefixed = False
    start = i
    octal = ""

    if source[i] == "0" and i + 1 < n and source[i + 1] in "xX":
        prefixed = True
        i += 2
        digits = i
        i = _digit_run(source, i, _HEX, line, col)
        if i < n and source[i] == ".":
            kind = "literal-float"
            i = _digit_run(source, i + 1, _HEX, line, col)
        if not source[digits:i].replace(".", ""):
            raise LexError(line, col, "malformed hex literal")
        has_exponent = False
        if i < n and source[i] in "pP":
            kind = "literal-float"
            i += 1
            if i < n and source[i] in "+-":
                i += 1
            j = _digit_run(source, i, _DIGITS_, line, col)
            has_exponent = j > i
            i = j
        if kind == "literal-float" and not has_exponent:
            if i < n and source[i].isdecimal():
                raise LexError(line, col + i - start, f"illegal character {source[i]!r}")
            raise LexError(line, col, "malformed floating-point literal")
    elif source[i] == "0" and i + 1 < n and source[i + 1] in "bB":
        prefixed = True
        i += 2
        digits = i
        i = _digit_run(source, i, "01_", line, col)
        if i == digits:
            raise LexError(line, col, "malformed binary literal")
    else:
        i = _digit_run(source, i, _DIGITS_, line, col)
        if source[start] == "0":
            octal = source[start:i]
        if i < n and source[i] == ".":
            kind = "literal-float"
            i = _digit_run(source, i + 1, _DIGITS_, line, col)
        if i < n and source[i] in "eE":
            j = i + 1
            if j < n and source[j] in "+-":
                j += 1
            if j < n and source[j] in _DIGITS:
                kind = "literal-float"
                i = _digit_run(source, j, _DIGITS_, line, col)

    if i < n and source[i] in "fFdD" and (kind == "literal-float" or not prefixed):
        kind = "literal-float"
        i += 1
    elif i < n and source[i] in "lL" and kind == "literal-int":
        i += 1

    if i < n and _ident_start(source[i]):
        raise LexError(line, col, "malformed numeric literal")
    if kind == "literal-int" and any(d in octal for d in "89"):
        raise LexError(line, col, "malformed octal literal")
    return kind, i
