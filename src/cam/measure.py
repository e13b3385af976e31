"""Turns the parsed kept files of one repository into metric rows.

Each top-level class becomes one row keyed by (repo, path, class_name),
with file-level figures repeated across the classes of a file. Git-derived
columns come in precomputed; files without history are skipped by the
caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cam.javasrc.model import ClassModel, CompilationUnit
from cam.javasrc.parser import extract_classes
# Unused here; perfbench/tracing.py wraps this name, and fails without it.
from cam.javasrc.parser import parse  # noqa: F401
from cam.metrics.code import (
    class_cognitive,
    class_cyclomatic,
    halstead,
    line_metrics,
    maintainability_index,
    member_counts,
)
from cam.metrics.oo import (
    ClassGraph,
    access_matrix,
    lcom1,
    lcom5,
    nhd,
    param_type_matrix,
    rfc,
    tcc,
    wmc,
)
from cam.metrics.structural import structural_counts

GIT_COLUMNS = ("commits", "authors", "age_days", "churn_added", "churn_deleted")


@dataclass
class RepoMeasurement:
    rows: list[dict] = field(default_factory=list)
    class_count: int = 0
    inheritance_cycles: list[str] = field(default_factory=list)


def measure_repo(
    repo: str,
    units: dict[str, CompilationUnit],
    git_columns: dict[str, dict[str, int]],
) -> RepoMeasurement:
    """Compute all metric rows for one repository.

    units maps repository-relative paths to the parsed files that passed
    the filter rules; git_columns maps the same paths to their five history
    values.
    """
    files = [(path, extract_classes(units[path])) for path in sorted(units)]
    graph = ClassGraph(files)

    result = RepoMeasurement()
    for path, classes in files:
        history = git_columns[path]
        file_row = _file_columns(units[path])
        for model in classes:
            row = {"repo": repo, "path": path, "class_name": model.name}
            row.update(file_row)
            row.update(_class_columns(model, graph, (path, model.name), lines_of_file=file_row["loc"]))
            for name in GIT_COLUMNS:
                row[name] = history[name]
            result.rows.append(row)
            result.class_count += 1
    result.inheritance_cycles = [f"{p}::{n}" for p, n in graph.cycle_members()]
    return result


def _file_columns(unit: CompilationUnit) -> dict:
    lines = line_metrics(unit.source, unit.tokens)
    return {
        "loc": lines.loc,
        "kloc": lines.kloc,
        "blanks": lines.blanks,
        "comments": lines.comments,
        "ncss": unit.ncss,
        "imports_count": len(unit.imports),
    }


def _class_columns(model: ClassModel, graph: ClassGraph, key: tuple[str, str], lines_of_file: int) -> dict:
    hal = halstead(model.tokens)
    cyclomatic = class_cyclomatic(model)
    members = member_counts(model)
    access = access_matrix(model)
    params = param_type_matrix(model)
    shape = structural_counts(model)
    return {
        "cyclomatic": cyclomatic,
        "cognitive": class_cognitive(model),
        "halstead_n1": hal.n1,
        "halstead_n2": hal.n2,
        "halstead_N1": hal.N1,
        "halstead_N2": hal.N2,
        "halstead_volume": hal.volume,
        "halstead_difficulty": hal.difficulty,
        "halstead_effort": hal.effort,
        "mi": maintainability_index(hal.volume, cyclomatic, lines_of_file),
        "attributes": members.attributes,
        "static_attributes": members.static_attributes,
        "constructors": members.constructors,
        "methods": members.methods,
        "static_methods": members.static_methods,
        "lcom5": lcom5(access),
        "nhd": nhd(params),
        "tcc": tcc(access),
        "lcom1": lcom1(access),
        "wmc": wmc(model),
        "rfc": rfc(model),
        "cbo": graph.cbo(key),
        "dit": graph.dit(key),
        "noc": graph.noc(key),
        "interfaces_implemented": shape.interfaces_implemented,
        "extends_flag": shape.extends_flag,
        "is_abstract": shape.is_abstract,
        "is_final": shape.is_final,
        "public_methods": shape.public_methods,
        "private_methods": shape.private_methods,
        "protected_methods": shape.protected_methods,
        "default_visibility_methods": shape.default_visibility_methods,
        "annotations_on_class": shape.annotations_on_class,
        "lambda_count": shape.lambda_count,
        "try_blocks": shape.try_blocks,
        "catch_blocks": shape.catch_blocks,
        "returns_count": shape.returns_count,
    }
