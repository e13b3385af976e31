"""Size and complexity metrics counted over tokens and statements.

File-level figures (line counts, statement count) are computed once per
source file and repeated on every class row of that file. Class-level
figures work on the class's own range of its unit's token columns and on
its parsed members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from cam.javasrc.lexer import LITERAL_KINDS, Tokens
from cam.javasrc.model import ClassModel, MethodModel

NAN = float("nan")

# Keywords that open declarations or imports carry no operational weight
# and stay out of the operator pool.
_EXCLUDED_KEYWORDS = frozenset({"class", "interface", "enum", "package", "import"})
_COUNTED_SEPARATORS = frozenset("(){}[];,.")


@dataclass(frozen=True)
class LineMetrics:
    loc: int
    kloc: float
    blanks: int
    comments: int


def line_metrics(source: str, comments: list[tuple[int, str]]) -> LineMetrics:
    """Lines, blank lines and lines that hold part of a comment, where
    *comments* are the ``(start, text)`` pairs of the lexer, in order."""
    if source == "":
        return LineMetrics(0, 0.0, 0, 0)
    lines = source.split("\n")
    if lines[-1] == "":
        lines.pop()
    loc = len(lines)
    blanks = sum(1 for line in lines if line.strip() == "")
    covered: set[int] = set()
    line = 1
    counted = 0
    for start, text in comments:
        line += source.count("\n", counted, start)
        counted = start
        covered.update(range(line, line + text.count("\n") + 1))
    return LineMetrics(loc, loc / 1000.0, blanks, len(covered))


@dataclass(frozen=True)
class Halstead:
    n1: int
    n2: int
    N1: int
    N2: int

    @property
    def volume(self) -> float:
        vocab = self.n1 + self.n2
        if vocab == 0:
            return NAN
        return (self.N1 + self.N2) * math.log2(vocab)

    @property
    def difficulty(self) -> float:
        if self.n2 == 0:
            return NAN
        return (self.n1 / 2.0) * (self.N2 / self.n2)

    @property
    def effort(self) -> float:
        return self.difficulty * self.volume


def halstead(tokens: Tokens, span: tuple[int, int]) -> Halstead:
    """Over the tokens in the index range *span*: identifiers and literals
    are operands; operators, keywords other than the excluded ones and the
    counted separators are operators."""
    operators: set[str] = set()
    operands: set[str] = set()
    total_ops = 0
    total_rands = 0
    for kind, lexeme in zip(islice(tokens.kinds, *span), islice(tokens.lexemes, *span)):
        if kind == "identifier" or kind in LITERAL_KINDS:
            operands.add(lexeme)
            total_rands += 1
        elif (
            kind == "operator"
            or (kind == "keyword" and lexeme not in _EXCLUDED_KEYWORDS)
            or (kind == "separator" and lexeme in _COUNTED_SEPARATORS)
        ):
            operators.add(lexeme)
            total_ops += 1
    return Halstead(len(operators), len(operands), total_ops, total_rands)


def maintainability_index(volume: float, cyclomatic: int, loc: int) -> float:
    if math.isnan(volume) or volume <= 0 or loc <= 0:
        return NAN
    value = 171.0 - 5.2 * math.log(volume) - 0.23 * cyclomatic - 16.2 * math.log(loc)
    return max(value, 0.0)


def method_cyclomatic(method: MethodModel) -> int:
    return 1 + sum(method.decision_tokens.values())


def class_cyclomatic(model: ClassModel) -> int:
    return sum(method_cyclomatic(m) for m in model.all_methods())


def class_cognitive(model: ClassModel) -> int:
    return sum(m.cognitive for m in model.all_methods())


@dataclass(frozen=True)
class MemberCounts:
    attributes: int
    static_attributes: int
    constructors: int
    methods: int
    static_methods: int


def member_counts(model: ClassModel) -> MemberCounts:
    attributes = sum(1 for f in model.fields if not f.is_static)
    static_attributes = sum(1 for f in model.fields if f.is_static)
    constructors = sum(1 for m in model.methods if m.is_constructor)
    plain = [m for m in model.methods if not m.is_constructor]
    static_methods = sum(1 for m in plain if m.is_static)
    return MemberCounts(attributes, static_attributes, constructors, len(plain), static_methods)
