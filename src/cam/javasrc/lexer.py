"""Tokenizer for Java 8 source text.

The token stream is lossless: every token records the whitespace that
precedes it, and a final ``eof`` sentinel carries whatever trails the last
real token, so concatenating ``preceding + lexeme`` over the stream gives
back the input byte for byte (see :func:`reassemble`).

One compiled master regular expression scans each token: a group for the
whitespace before it, then one alternative per common token shape, most
frequent first (symbols, ASCII identifiers and keywords, plain decimal
ints, line and block comments, string and char literals). An identifier or
int that goes on with a non-ASCII character must not match, and neither
must a shorter prefix of one, so their lookaheads refuse both a non-ASCII
character and any word character: `café` may not match as `ca`. A '.'
followed by a digit or a non-ASCII character does not match either.

A position the regex does not take goes to `_scan_fallback`, which scans
one token a character at a time: other numbers (hex, binary, floats and
ints with '_' or a suffix), identifiers that hold or precede a non-ASCII
character, a '.' before a non-ASCII character, and every error
(unterminated comment, string, char or escape, malformed number, illegal
character). As in Java, a number takes ASCII digits only: a digit from any
other script, or a superscript, is an illegal character, and an '_' must
sit between two digits (`1_` and `0x_1` are malformed). Names follow
Java's identifier rule by Unicode category, so `€x` and `Ⅷ` are names and
`x²` is the name `x` and an illegal character.

Line and column come from a line count and the offset where the line
starts, which move only past a newline in whitespace, in a block comment
or in an escaped newline of a literal.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field

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
      | ( [0-9]+ ) (?![\w$.]|[^\x00-\x7f])
      | ( //[^\n]* )
      | ( /\*.*?\*/ )
      | ( "[^"\\\n]*(?:\\.[^"\\\n]*)*" )
      | ( '[^'\\\n]*(?:\\.[^'\\\n]*)*' )
    )?
    """,
    re.VERBOSE | re.DOTALL,
)
# Token kind by group number; None for the whole match, the whitespace and
# an identifier, which may be a keyword.
_GROUP_KIND = (
    None,
    None,
    "separator",
    "operator",
    None,
    "literal-int",
    "comment-line",
    "comment-block",
    "literal-string",
    "literal-char",
)
_IDENT = 4
# From this group on a lexeme may hold a newline.
_MULTILINE = 7

_HEX = "0123456789abcdefABCDEF_"
# Java numbers take ASCII digits only; any other digit is an illegal character.
_DIGITS = "0123456789"
_DIGITS_ = _DIGITS + "_"


class LexError(Exception):
    """Raised when the scanner hits malformed or unterminated input."""

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
    append = toks.append
    match = _MASTER.match
    n = len(source)
    pos = 0
    line = 1
    line_start = 0
    while True:
        m = match(source, pos)
        preceding = m[1]
        if "\n" in preceding:
            line += preceding.count("\n")
            line_start = pos + preceding.rindex("\n") + 1
        start = pos + len(preceding)
        group = m.lastindex
        if group == 1:
            if start == n:
                append(Token("eof", "", line, start - line_start + 1, preceding))
                return toks
            kind, pos = _scan_fallback(source, start, line, start - line_start + 1)
            lexeme = source[start:pos]
        else:
            lexeme = m[group]
            pos = m.end()
            kind = _GROUP_KIND[group]
            if group == _IDENT:
                kind = "keyword" if lexeme in KEYWORDS else "identifier"
        append(Token(kind, lexeme, line, start - line_start + 1, preceding))
        if group >= _MULTILINE and "\n" in lexeme:
            line += lexeme.count("\n")
            line_start = start + lexeme.rindex("\n") + 1


def _scan_fallback(source: str, i: int, line: int, col: int) -> tuple[str, int]:
    """Kind and end of the token at *i* that the master regex does not take.

    That is a number the int alternative refuses, an identifier that holds
    or precedes a non-ASCII character, a '.' before a non-ASCII character,
    or an error.
    """
    n = len(source)
    ch = source[i]

    if ch == "/":
        # A terminated block comment and every other '/' token match the regex.
        raise LexError(line, col, "unterminated block comment")

    if ch == '"' or ch == "'":
        # A terminated literal matches the regex; find which end it lacks.
        what = "string" if ch == '"' else "char"
        j = i + 1
        while j < n and source[j] != "\n" and source[j] != ch:
            if source[j] == "\\":
                if j + 1 >= n:
                    raise LexError(line, col, "unterminated escape")
                j += 1
            j += 1
        raise LexError(line, col, f"unterminated {what} literal")

    if ch in _DIGITS or (ch == "." and i + 1 < n and source[i + 1] in _DIGITS):
        return _scan_number(source, i, line, col)

    if _ident_start(ch):
        j = i + 1
        while j < n and _ident_part(source[j]):
            j += 1
        return ("keyword" if source[i:j] in KEYWORDS else "identifier"), j

    if ch == ".":
        return "separator", i + 1

    raise LexError(line, col, f"illegal character {ch!r}")


def _scan_number(source: str, i: int, line: int, col: int) -> tuple[str, int]:
    n = len(source)
    kind = "literal-int"
    prefixed = False

    if source[i] == "0" and i + 1 < n and source[i + 1] in "xX":
        prefixed = True
        i += 2
        digits = i
        i = _digit_run(source, i, _HEX, line, col)
        if i == digits:
            raise LexError(line, col, "malformed hex literal")
        if i < n and source[i] == ".":
            kind = "literal-float"
            i = _digit_run(source, i + 1, _HEX, line, col)
        if i < n and source[i] in "pP":
            kind = "literal-float"
            i += 1
            if i < n and source[i] in "+-":
                i += 1
            i = _digit_run(source, i, _DIGITS_, line, col)
    elif source[i] == "0" and i + 1 < n and source[i + 1] in "bB":
        prefixed = True
        i += 2
        digits = i
        i = _digit_run(source, i, "01_", line, col)
        if i == digits:
            raise LexError(line, col, "malformed binary literal")
    else:
        i = _digit_run(source, i, _DIGITS_, line, col)
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
    elif i < n and source[i] in "lL":
        i += 1

    if i < n and _ident_start(source[i]):
        raise LexError(line, col, "malformed numeric literal")
    return kind, i


def reassemble(tokens: list[Token]) -> str:
    """Rebuild the exact source text a token stream was scanned from."""
    return "".join(t.preceding + t.lexeme for t in tokens)
