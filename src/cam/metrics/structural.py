"""Declaration-shape counts taken from the class model and its token range."""

from __future__ import annotations

from itertools import islice

from cam.javasrc.lexer import Tokens
from cam.javasrc.model import ClassModel


def structural_counts(model: ClassModel, tokens: Tokens) -> dict[str, int]:
    """*tokens* are the columns of the unit that holds *model*."""
    visibility = {"public": 0, "private": 0, "protected": 0, "package": 0}
    for method in model.methods:
        if not method.is_constructor:
            visibility[method.visibility] += 1
    lambdas = 0
    tries = 0
    catches = 0
    returns = 0
    for kind, lexeme in zip(islice(tokens.kinds, *model.tokens), islice(tokens.lexemes, *model.tokens)):
        if kind == "operator" and lexeme == "->":
            lambdas += 1
        elif kind == "keyword":
            if lexeme == "try":
                tries += 1
            elif lexeme == "catch":
                catches += 1
            elif lexeme == "return":
                returns += 1
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
        "lambda_count": lambdas,
        "try_blocks": tries,
        "catch_blocks": catches,
        "returns_count": returns,
    }
