"""Size and complexity metrics counted over tokens and statements.

File-level figures (line counts) are computed once per source file, from
one split of its text and one walk of its comments, and repeated on every
class row of that file. Class-level figures work on the class's parsed
members and on its own slice of its unit's token columns, which `halstead`
walks once.
A function that yields several columns returns them as a dict keyed by
their names in `cam.metrics.schema`, ready to merge into a row.
"""

from __future__ import annotations

import math

from cam.javasrc.lexer import LITERAL_KINDS, Tokens
from cam.javasrc.model import ClassModel, MethodModel

NAN = float("nan")

# Keywords that open declarations or imports carry no operational weight
# and stay out of the operator pool.
_EXCLUDED_KEYWORDS = frozenset({"class", "interface", "enum", "package", "import"})
_COUNTED_SEPARATORS = frozenset("(){}[];,.")


def line_metrics(source: str, comments: list[tuple[int, str]]) -> dict[str, int | float]:
    """Lines, blank lines and lines that hold part of a comment, where
    *comments* are the ``(start, text)`` pairs of the lexer, in order."""
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
    return {"loc": loc, "kloc": loc / 1000.0, "blanks": blanks, "comments": len(covered)}


def halstead(tokens: Tokens, span: tuple[int, int]) -> dict[str, int | float]:
    """Over the tokens in the index range *span*: identifiers and literals
    are operands; operators, keywords other than the excluded ones and the
    counted separators are operators."""
    operators: set[str] = set()
    operands: set[str] = set()
    total_ops = 0
    total_rands = 0
    for kind, lexeme in zip(tokens.kinds[slice(*span)], tokens.lexemes[slice(*span)]):
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
    n1 = len(operators)
    n2 = len(operands)
    volume = (total_ops + total_rands) * math.log2(n1 + n2) if n1 + n2 else NAN
    difficulty = (n1 / 2.0) * (total_rands / n2) if n2 else NAN
    return {
        "halstead_n1": n1,
        "halstead_n2": n2,
        "halstead_N1": total_ops,
        "halstead_N2": total_rands,
        "halstead_volume": volume,
        "halstead_difficulty": difficulty,
        "halstead_effort": difficulty * volume,
    }


def maintainability_index(volume: float, cyclomatic: int, loc: int) -> float:
    if math.isnan(volume) or volume <= 0 or loc <= 0:
        return NAN
    value = 171.0 - 5.2 * math.log(volume) - 0.23 * cyclomatic - 16.2 * math.log(loc)
    return max(value, 0.0)


def method_cyclomatic(method: MethodModel) -> int:
    return 1 + method.decisions


def class_cyclomatic(model: ClassModel) -> int:
    return sum(method_cyclomatic(m) for m in model.all_methods())


def class_cognitive(model: ClassModel) -> int:
    return sum(m.cognitive for m in model.all_methods())


def member_counts(model: ClassModel) -> dict[str, int]:
    plain = [m for m in model.methods if not m.is_constructor]
    return {
        "attributes": sum(1 for f in model.fields if not f.is_static),
        "static_attributes": sum(1 for f in model.fields if f.is_static),
        "constructors": len(model.methods) - len(plain),
        "methods": len(plain),
        "static_methods": sum(1 for m in plain if m.is_static),
    }
