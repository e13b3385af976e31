"""Tokenizer for Java 8 source text.

`tokenize` returns `Tokens`: parallel kind, lexeme and start-offset
columns for the code tokens, ending in one ``eof`` entry at the end of the
source, and the comments as ``(start, text)`` pairs. Only whitespace lies
between two tokens, so each lexeme is the source sliced at its start.

One compiled master regular expression scans each token: a group for the
whitespace before it, then one alternative per common token shape, most
frequent first (symbols, ASCII identifiers and keywords, plain decimal
ints, line and block comments, string and char literals). An identifier or
int that goes on with a non-ASCII character must not match, and neither
must a shorter prefix of one, so their lookaheads refuse both a non-ASCII
character and any word character: `café` may not match as `ca`. A '.'
followed by a digit or a non-ASCII character does not match either, and
neither does an int of more than one digit that starts with '0'.

A position the regex does not take goes to `_scan_fallback`, which scans
one token a character at a time: other numbers (octal, hex, binary, floats
and ints with '_' or a suffix), identifiers that hold or precede a
non-ASCII character, a '.' before a non-ASCII character, and every error
(unterminated comment, string, char or escape, malformed number, illegal
character). Numbers follow JLS 3.10.1-3.10.2: ASCII digits only (`1²`
is `1` and an illegal character), an '_' only between two digits, an int
that starts with '0' is octal (`09` is malformed, `09.5` a float), and a
hex float needs its binary exponent (`0x1.8` and `0x1p` are malformed),
and an 'l' or 'L' suffix ends an int only (`1.5L` is malformed).
Names follow Java's identifier rule by Unicode category, so `€x` and `Ⅷ`
are names and `x²` is the name `x` and an illegal character. An error's
line and column are worked out from its offset (`position`) only when read.
"""

from __future__ import annotations

import re
import unicodedata
from typing import NamedTuple

KEYWORDS = frozenset(
    """
    abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package
    private protected public return short static strictfp super switch
    synchronized this throw throws transient try void volatile while
    true false null
    """.split()
)
LITERAL_KINDS = frozenset(["literal-int", "literal-float", "literal-string", "literal-char"])

# `m.lastindex` names the alternative that matched; it is 1, the whitespace
# group, when none did. Each symbol alternative takes the longest symbol that
# fits. '@', '::', '...', '.' and the brackets, ';' and ',' are separators,
# the other symbols operators.
_MASTER = re.compile(
    r"""
    ([ \t\f\r\n]*)
    (?:
        ( [(){}\[\];,@] | \.\.\. | \.(?![0-9]|[^\x00-\x7f]) | :: )
      | ( >(?:>>?)?=? | <<?=? | -[>=-]? | \+[+=]? | &[&=]? | \|[|=]?
        | [=!*%^]=? | /(?![/*])=? | [~?:] )
      | ( [A-Za-z_$][A-Za-z0-9_$]* ) (?![\w$]|[^\x00-\x7f])
      | ( 0 | [1-9][0-9]* ) (?![\w$.]|[^\x00-\x7f])
      | ( //[^\n]* )
      | ( /\*.*?\*/ )
      | ( "[^"\\\n]*(?:\\.[^"\\\n]*)*" )
      | ( '[^'\\\n]*(?:\\.[^'\\\n]*)*' )
    )?
    """,
    re.VERBOSE | re.DOTALL,
)
# The kind of the token each group matches; None for the whole match, the
# whitespace, an identifier (which may be a keyword) and the two comments.
_GROUP_KIND = (None, None, "separator", "operator", None, "literal-int", None, None, "literal-string", "literal-char")
_IDENT = 4
_LINE_COMMENT = 6
_BLOCK_COMMENT = 7

_HEX = "0123456789abcdefABCDEF_"
# Java numbers take ASCII digits only; any other digit is an illegal character.
_DIGITS = "0123456789"
_DIGITS_ = _DIGITS + "_"


class Tokens(NamedTuple):
    """The code tokens as parallel columns, ending in one ``eof`` entry,
    and the comments as ``(start, text)`` pairs."""

    kinds: list[str]
    lexemes: list[str]
    starts: list[int]
    comments: list[tuple[int, str]]


def position(source: str, offset: int) -> tuple[int, int]:
    """1-based line and column of *offset* in *source*."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


class SourceError(Exception):
    """Input refused at an offset of the source text.

    The line and column are worked out only when read: the parser raises
    and drops one of these each time a trial parse of a type fails, and
    counting the lines up to each of them would make a parse quadratic."""

    def __init__(self, source: str, offset: int, reason: str):
        super().__init__(reason)
        self.source = source
        self.offset = offset
        self.reason = reason

    @property
    def line(self) -> int:
        return position(self.source, self.offset)[0]

    @property
    def column(self) -> int:
        return position(self.source, self.offset)[1]

    def __str__(self) -> str:
        line, column = position(self.source, self.offset)
        return f"line {line}, column {column}: {self.reason}"


class LexError(SourceError):
    """Raised when the scanner hits malformed or unterminated input."""


# Java's Character.isJavaIdentifierStart and isJavaIdentifierPart, by
# Unicode category: letters, letter numbers, currency symbols ('$') and
# connectors ('_') start a name; digits, combining marks and format
# characters may follow.
_IDENT_START = frozenset(["Lu", "Ll", "Lt", "Lm", "Lo", "Nl", "Sc", "Pc"])
_IDENT_PART = _IDENT_START | {"Nd", "Mn", "Mc", "Cf"}


def tokenize(source: str) -> Tokens:
    """Scan *source* into token columns.

    Raises LexError on unterminated strings/chars/comments, malformed
    numeric literals, and characters outside the language.
    """
    kinds: list[str] = []
    lexemes: list[str] = []
    starts: list[int] = []
    comments: list[tuple[int, str]] = []
    match = _MASTER.match
    n = len(source)
    pos = 0
    while True:
        m = match(source, pos)
        start = m.end(1)
        group = m.lastindex
        if group == 1:
            if start == n:
                kinds.append("eof")
                lexemes.append("")
                starts.append(n)
                return Tokens(kinds, lexemes, starts, comments)
            kind, pos = _scan_fallback(source, start)
            lexeme = source[start:pos]
        else:
            lexeme = m[group]
            pos = m.end()
            kind = _GROUP_KIND[group]
            if group == _IDENT:
                kind = "keyword" if lexeme in KEYWORDS else "identifier"
            elif group == _LINE_COMMENT or group == _BLOCK_COMMENT:
                comments.append((start, lexeme))
                continue
        kinds.append(kind)
        lexemes.append(lexeme)
        starts.append(start)


def _scan_fallback(source: str, i: int) -> tuple[str, int]:
    """Kind and end of the token at *i* that the master regex does not take.

    That is a number the int alternative refuses, an identifier that holds
    or precedes a non-ASCII character, a '.' before a non-ASCII character,
    or an error.
    """
    n = len(source)
    ch = source[i]

    if ch == "/":
        # A terminated block comment and every other '/' token match the regex.
        raise LexError(source, i, "unterminated block comment")

    if ch == '"' or ch == "'":
        # A terminated literal matches the regex; find which end it lacks.
        what = "string" if ch == '"' else "char"
        j = i + 1
        while j < n and source[j] != "\n" and source[j] != ch:
            if source[j] == "\\":
                if j + 1 >= n:
                    raise LexError(source, i, "unterminated escape")
                j += 1
            j += 1
        raise LexError(source, i, f"unterminated {what} literal")

    if ch in _DIGITS or (ch == "." and i + 1 < n and source[i + 1] in _DIGITS):
        return _scan_number(source, i)

    if unicodedata.category(ch) in _IDENT_START:
        j = i + 1
        while j < n and unicodedata.category(source[j]) in _IDENT_PART:
            j += 1
        return ("keyword" if source[i:j] in KEYWORDS else "identifier"), j

    if ch == ".":
        return "separator", i + 1

    raise LexError(source, i, f"illegal character {ch!r}")


def _digit_run(source: str, i: int, digits: str, start: int) -> int:
    """End of the run of *digits* (which include '_') at *i*; the run may
    not start or end with an '_'. *start* is where the number starts."""
    j = i
    while j < len(source) and source[j] in digits:
        j += 1
    if j > i and (source[i] == "_" or source[j - 1] == "_"):
        raise LexError(source, start, "malformed numeric literal")
    return j


def _scan_number(source: str, start: int) -> tuple[str, int]:
    n = len(source)
    kind = "literal-int"
    prefixed = False
    # The digits of a decimal int that starts with '0', which is octal.
    octal = ""
    i = start

    if source[i] == "0" and i + 1 < n and source[i + 1] in "xX":
        prefixed = True
        i = _digit_run(source, i + 2, _HEX, start)
        if i < n and source[i] == ".":
            kind = "literal-float"
            i = _digit_run(source, i + 1, _HEX, start)
        if source[start + 2 : i] in ("", "."):
            raise LexError(source, start, "malformed hex literal")
        exponent = i  # where the binary exponent's digits start, if any
        if i < n and source[i] in "pP":
            kind = "literal-float"
            exponent = i + 1 + (source[i + 1 : i + 2] in ("+", "-"))
            i = _digit_run(source, exponent, _DIGITS_, start)
        if kind == "literal-float" and i == exponent:
            if source[i : i + 1].isdecimal():  # javac: "illegal non-ASCII digit"
                raise LexError(source, i, f"illegal character {source[i]!r}")
            raise LexError(source, start, "malformed floating-point literal")
    elif source[i] == "0" and i + 1 < n and source[i + 1] in "bB":
        prefixed = True
        i = _digit_run(source, i + 2, "01_", start)
        if i == start + 2:
            raise LexError(source, start, "malformed binary literal")
    else:
        i = _digit_run(source, i, _DIGITS_, start)
        if source[start] == "0":
            octal = source[start:i]
        if i < n and source[i] == ".":
            kind = "literal-float"
            i = _digit_run(source, i + 1, _DIGITS_, start)
        if i < n and source[i] in "eE":
            j = i + 1
            if j < n and source[j] in "+-":
                j += 1
            if j < n and source[j] in _DIGITS:
                kind = "literal-float"
                i = _digit_run(source, j, _DIGITS_, start)

    if i < n and source[i] in "fFdD" and (kind == "literal-float" or not prefixed):
        kind = "literal-float"
        i += 1
    elif i < n and source[i] in "lL" and kind == "literal-int":
        i += 1

    if i < n and unicodedata.category(source[i]) in _IDENT_START:
        raise LexError(source, start, "malformed numeric literal")
    if kind == "literal-int" and ("8" in octal or "9" in octal):
        raise LexError(source, start, "malformed octal literal")
    return kind, i
