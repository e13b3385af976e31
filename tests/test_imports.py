"""Lint: every module-level import in `cam` is used by its module, and
every private function, method or class is named somewhere else in `cam`.

Only the standard library's `ast` is needed, so this runs with the rest of
the tests and no linter installed.
"""

import ast
from pathlib import Path

import cam

SOURCE_ROOT = Path(cam.__file__).parent

# Imports kept on purpose although their module never reads them.
# perfbench/tracing.py replaces these module attributes with timed wrappers
# and fails when one is missing.
ALLOWED_UNUSED = {
    ("pipeline.py", "read_csv_rows"),
    ("measure.py", "parse"),
}


def module_imports(tree: ast.Module) -> set[str]:
    """Names bound by imports outside any function or class."""
    bound: set[str] = set()
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.add(alias.asname or alias.name)
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(ast.iter_child_nodes(node))
    return bound


def unused_imports() -> set[tuple[str, str]]:
    found = set()
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        relpath = path.relative_to(SOURCE_ROOT).as_posix()
        found.update((relpath, name) for name in module_imports(tree) if name not in used)
    return found


def test_no_unused_module_imports():
    assert unused_imports() - ALLOWED_UNUSED == set()


def test_allowed_unused_imports_are_still_needed():
    assert ALLOWED_UNUSED <= unused_imports()


def orphan_helpers() -> set[tuple[str, str]]:
    """Private functions, methods and classes (`_name`, not a dunder) that
    no code in `cam` names."""
    defined: set[tuple[str, str]] = set()
    named: set[str] = set()
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        relpath = path.relative_to(SOURCE_ROOT).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add((relpath, node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return {(relpath, name) for relpath, name in defined if name not in named}


def test_no_orphan_private_helpers():
    assert orphan_helpers() == set()
