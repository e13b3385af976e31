"""Structural models the parser produces.

A ClassModel is the unit everything downstream measures. Nested, local and
anonymous classes hang off their enclosing class's ``nested`` list and never
appear among a CompilationUnit's top-level types.

A MethodModel's ``decisions`` and ``cognitive`` score are added up by the
parser as it parses (see `cam.javasrc.parser` for the rules and which
method a score goes to); ``has_body`` tells an abstract or interface
method from one with a body. A model holds only what some metric reads:
a field is its name and whether it is static, and a CompilationUnit keeps
the number of its imports, not their names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from cam.javasrc.lexer import Tokens


@dataclass
class FieldModel:
    name: str
    is_static: bool = False


@dataclass
class MethodModel:
    name: str
    is_constructor: bool = False
    is_static: bool = False
    visibility: str = "package"
    parameter_type_names: list[str] = field(default_factory=list)
    has_body: bool = False
    cognitive: int = 0
    accessed_field_names: set[str] = field(default_factory=set)
    invoked_method_names: set[str] = field(default_factory=set)
    decisions: int = 0  # branch points: if, loop, case, catch, ternary, && and ||

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
    tokens: tuple[int, int] = (0, 0)  # (first, end) index range in the unit's columns; empty if anonymous

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
    import_count: int
    types: list[ClassModel]
    ncss: int
    tokens: Tokens
