"""Structural models the parser produces.

A ClassModel is the unit everything downstream measures. Nested, local and
anonymous classes hang off their enclosing class's ``nested`` list and never
appear among a CompilationUnit's top-level types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from cam.javasrc.lexer import Token


@dataclass
class ImportDecl:
    name: str
    wildcard: bool = False
    static: bool = False


@dataclass
class Stmt:
    """One node of a method body's statement tree.

    kind is one of: if, for, foreach, while, do, switch, case-label, try,
    catch, block, statement, lambda-body, conditional-expr, break, continue,
    labeled-jump.

    depth is the 0-based nesting depth under the cognitive-complexity rules:
    children of if/switch/loop/catch constructs and of lambda or inner-body
    class bodies sit one deeper than the construct itself; plain blocks,
    try bodies and ternaries do not add depth.
    """

    kind: str
    depth: int
    children: list["Stmt"] = field(default_factory=list)
    else_children: Optional[list["Stmt"]] = None
    chained: bool = False
    op_groups: list[list[str]] = field(default_factory=list)


@dataclass
class FieldModel:
    name: str
    declared_type_name: str
    is_static: bool = False


@dataclass
class MethodModel:
    name: str
    is_constructor: bool = False
    is_static: bool = False
    visibility: str = "package"
    parameter_type_names: list[str] = field(default_factory=list)
    body: Optional[Stmt] = None
    accessed_field_names: set[str] = field(default_factory=set)
    invoked_method_names: set[str] = field(default_factory=set)
    decision_tokens: dict[str, int] = field(default_factory=dict)
    body_tokens: list[Token] = field(default_factory=list)

    @property
    def is_public(self) -> bool:
        return self.visibility == "public"


@dataclass
class ClassModel:
    name: str
    kind: str = "class"  # class | interface | enum | annotation
    extends_name: Optional[str] = None
    implements_names: list[str] = field(default_factory=list)
    modifiers: set[str] = field(default_factory=set)
    fields: list[FieldModel] = field(default_factory=list)
    methods: list[MethodModel] = field(default_factory=list)
    nested: list["ClassModel"] = field(default_factory=list)
    referenced_type_names: set[str] = field(default_factory=set)
    annotation_count: int = 0
    tokens: list[Token] = field(default_factory=list)

    def all_methods(self) -> list[MethodModel]:
        """Own methods plus those of every nested/anonymous class, depth first."""
        out = list(self.methods)
        for inner in self.nested:
            out.extend(inner.all_methods())
        return out

    def all_referenced_type_names(self) -> set[str]:
        """Referenced names folded over nested classes, including their supertypes."""
        out = set(self.referenced_type_names)
        for inner in self.nested:
            out |= inner.all_referenced_type_names()
            if inner.extends_name:
                out.add(inner.extends_name)
            out.update(inner.implements_names)
        return out


@dataclass
class CompilationUnit:
    package_name: Optional[str]
    imports: list[ImportDecl]
    types: list[ClassModel]
    ncss: int = 0
    tokens: list[Token] = field(default_factory=list)
    source: str = ""
