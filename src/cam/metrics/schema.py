"""Column catalog for the per-class dataset.

Every metric column has a fixed position, a name, and a one-line
definition. The definition text is part of the output contract: its hash
is embedded in each manifest so consumers can detect when a column's
meaning changed, not just its name.
"""

from __future__ import annotations

from typing import NamedTuple

# CPython's own SHA-256, as hashlib's fallback; hashlib loads OpenSSL (3.5 MB).
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

KEY_COLUMNS = ("repo", "path", "class_name")


class ColumnSpec(NamedTuple):
    name: str
    group: str
    definition: str

    @property
    def definition_hash(self) -> str:
        return sha256(f"{self.name}: {self.definition}".encode("utf-8")).hexdigest()[:12]


COLUMNS: tuple[ColumnSpec, ...] = (
    ColumnSpec("loc", "code", "Physical line count of the source file, splitting on newline with a trailing newline producing no extra line."),
    ColumnSpec("kloc", "code", "Physical line count of the source file divided by 1000."),
    ColumnSpec("blanks", "code", "Lines of the source file containing only whitespace."),
    ColumnSpec("comments", "code", "Distinct physical lines of the source file touched by at least one comment token."),
    ColumnSpec("ncss", "code", "Non-commenting source statements in the file: declaration headers, flow headers, and simple statements, each counted once."),
    ColumnSpec("cyclomatic", "code", "Sum over the class's methods and constructors, nested and anonymous classes included, of one plus the count of branch keywords, non-default case labels, catch clauses, ternary operators, and short-circuit operators in the body."),
    ColumnSpec("cognitive", "code", "Sum of method cognitive scores, nested and anonymous classes included: control structures score one plus nesting depth, chained branches and boolean operator alternations score one, lambda and inner class bodies only deepen nesting."),
    ColumnSpec("halstead_n1", "code", "Distinct operator lexemes in the class token slice: keywords other than declaration and import openers, operator tokens, and bracket, semicolon, comma, and dot separators."),
    ColumnSpec("halstead_n2", "code", "Distinct operand lexemes in the class token slice: identifiers and literals."),
    ColumnSpec("halstead_N1", "code", "Total operator token occurrences in the class token slice."),
    ColumnSpec("halstead_N2", "code", "Total operand token occurrences in the class token slice."),
    ColumnSpec("halstead_volume", "code", "Total operator and operand occurrences times the base-two logarithm of the distinct vocabulary size; empty when the vocabulary is empty."),
    ColumnSpec("halstead_difficulty", "code", "Half the distinct operator count times total operand occurrences over distinct operands; empty when no operands exist."),
    ColumnSpec("halstead_effort", "code", "Halstead difficulty times Halstead volume."),
    ColumnSpec("mi", "code", "171 minus 5.2 ln(volume) minus 0.23 times class cyclomatic complexity minus 16.2 ln(file line count), floored at zero; empty when volume or line count is unusable."),
    ColumnSpec("attributes", "code", "Instance fields declared by the class itself."),
    ColumnSpec("static_attributes", "code", "Static fields declared by the class itself, interface constants included."),
    ColumnSpec("constructors", "code", "Constructors declared by the class itself."),
    ColumnSpec("methods", "code", "Methods declared by the class itself, constructors excluded, static methods included."),
    ColumnSpec("static_methods", "code", "Static methods declared by the class itself."),
    ColumnSpec("lcom5", "oo", "Instance method count minus mean instance-field coverage, normalized by method count minus one; empty with fewer than two instance methods or no instance fields."),
    ColumnSpec("nhd", "oo", "Agreement of parameter-type usage across the class's methods, one minus the normalized pairwise disagreement; empty with fewer than two methods or no parameter types."),
    ColumnSpec("tcc", "oo", "Pairs of public bodied instance methods sharing at least one instance field, over all such pairs; empty when fewer than two methods qualify."),
    ColumnSpec("lcom1", "oo", "Instance method pairs sharing no instance field minus pairs sharing one or more, floored at zero."),
    ColumnSpec("wmc", "oo", "Sum of cyclomatic complexity over the class's own methods and constructors, nested classes excluded."),
    ColumnSpec("rfc", "oo", "Own methods and constructors plus distinct invoked method names not declared in the class."),
    ColumnSpec("cbo", "oo", "Other top-level classes in the same repository that this class references or is referenced by, in either direction."),
    ColumnSpec("dit", "oo", "Resolved inheritance edges above the class: zero without a parent beyond Object, one for an unresolvable parent, one more per resolved ancestor; members of an inheritance cycle report one."),
    ColumnSpec("noc", "oo", "Classes in the same repository whose extends clause resolves to this class."),
    ColumnSpec("commits", "git", "Commits in the repository history touching the file; renames followed (`git log -M`), and a name reused after a rename starts a new history; copies and merge commits not counted."),
    ColumnSpec("authors", "git", "Distinct lowercased author emails among the file's commits."),
    ColumnSpec("age_days", "git", "Whole days between the file's first and last commit timestamps."),
    ColumnSpec("churn_added", "git", "Lines added to the file summed over its commits."),
    ColumnSpec("churn_deleted", "git", "Lines deleted from the file summed over its commits."),
    ColumnSpec("interfaces_implemented", "structural", "Interfaces named in the implements clause, or parent interfaces for an interface declaration."),
    ColumnSpec("extends_flag", "structural", "One when the declaration carries an extends clause, else zero."),
    ColumnSpec("is_abstract", "structural", "One when the class is declared abstract, else zero."),
    ColumnSpec("is_final", "structural", "One when the class is declared final, else zero."),
    ColumnSpec("public_methods", "structural", "Own non-constructor methods with public visibility, implicit interface visibility included."),
    ColumnSpec("private_methods", "structural", "Own non-constructor methods declared private."),
    ColumnSpec("protected_methods", "structural", "Own non-constructor methods declared protected."),
    ColumnSpec("default_visibility_methods", "structural", "Own non-constructor methods with package visibility."),
    ColumnSpec("annotations_on_class", "structural", "Annotations attached to the class declaration itself."),
    ColumnSpec("imports_count", "structural", "Import declarations in the file."),
    ColumnSpec("lambda_count", "structural", "Arrow tokens in the class token slice."),
    ColumnSpec("try_blocks", "structural", "try keywords in the class token slice."),
    ColumnSpec("catch_blocks", "structural", "catch keywords in the class token slice."),
    ColumnSpec("returns_count", "structural", "return keywords in the class token slice."),
)

COLUMN_NAMES: tuple[str, ...] = tuple(c.name for c in COLUMNS)
HEADER: tuple[str, ...] = KEY_COLUMNS + COLUMN_NAMES

GROUP_TITLES = {
    "code": "Size and complexity",
    "oo": "Cohesion and coupling",
    "git": "Change history",
    "structural": "Declaration shape",
}


def column_hashes() -> list[dict[str, str]]:
    """Manifest block: one name/hash pair per column, in column order."""
    return [{"name": c.name, "hash": c.definition_hash} for c in COLUMNS]


def schema_markdown() -> str:
    """Human-readable column reference shipped inside the archive."""
    lines = ["# Dataset columns", ""]
    lines.append("Key columns: " + ", ".join(f"`{k}`" for k in KEY_COLUMNS) + ".")
    lines.append("")
    lines.append("Empty cells mark metrics whose formula is undefined for the class.")
    for group in ("code", "oo", "git", "structural"):
        lines.append("")
        lines.append(f"## {GROUP_TITLES[group]}")
        lines.append("")
        lines.append("| column | definition |")
        lines.append("| --- | --- |")
        for col in COLUMNS:
            if col.group == group:
                lines.append(f"| `{col.name}` | {col.definition} |")
    lines.append("")
    return "\n".join(lines)
