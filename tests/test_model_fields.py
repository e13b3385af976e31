"""Lint: every field of the parser's models is read somewhere in `cam`.

A field that nothing reads is work the parser does for no column, so it
should not be built. A read is an attribute load of the field's name
(`unit.ncss`, `model.fields.append`) in any module of `cam`. The match is
by name, not by type, so a field that shares its name with a read of
another object passes; the lint catches names that no code reads at all.
Only the standard library's `ast` is needed.
"""

import ast
from pathlib import Path

import cam
import cam.javasrc.model

SOURCE_ROOT = Path(cam.__file__).parent


def model_fields() -> list[tuple[str, str]]:
    """(class, field) for each field of the dataclasses in cam.javasrc.model."""
    tree = ast.parse(Path(cam.javasrc.model.__file__).read_text(encoding="utf-8"))
    fields = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(d, ast.Name) and d.id == "dataclass" for d in node.decorator_list
        ):
            fields += [(node.name, s.target.id) for s in node.body if isinstance(s, ast.AnnAssign)]
    return fields


def attribute_reads() -> set[str]:
    reads: set[str] = set()
    for path in SOURCE_ROOT.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return reads


def test_every_model_field_is_read():
    fields = model_fields()
    assert {"FieldModel", "MethodModel", "ClassModel", "CompilationUnit"} <= {cls for cls, _name in fields}
    reads = attribute_reads()
    assert [f"{cls}.{name}" for cls, name in fields if name not in reads] == []
