"""Declaration-shape counts taken from the class model and its token range.

The token counts are `list.count` over the lexemes of the range: a lexeme
has one kind, so each `->` is an operator and each `try`, `catch` and
`return` a keyword."""

from __future__ import annotations

from cam.javasrc.lexer import Tokens
from cam.javasrc.model import ClassModel


def structural_counts(model: ClassModel, tokens: Tokens) -> dict[str, int]:
    """*tokens* are the columns of the unit that holds *model*."""
    visibility = {"public": 0, "private": 0, "protected": 0, "package": 0}
    for method in model.methods:
        if not method.is_constructor:
            visibility[method.visibility] += 1
    lexemes = tokens.lexemes[slice(*model.tokens)]
    return {
        "interfaces_implemented": len(model.implements_names),
        "extends_flag": 1 if model.extends_name is not None else 0,
        "is_abstract": 1 if "abstract" in model.modifiers else 0,
        "is_final": 1 if "final" in model.modifiers else 0,
        "public_methods": visibility["public"],
        "private_methods": visibility["private"],
        "protected_methods": visibility["protected"],
        "default_visibility_methods": visibility["package"],
        "annotations_on_class": model.annotation_count,
        "lambda_count": lexemes.count("->"),
        "try_blocks": lexemes.count("try"),
        "catch_blocks": lexemes.count("catch"),
        "returns_count": lexemes.count("return"),
    }
