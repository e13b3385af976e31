"""Turns parsed Java files into metric rows.

Each kept file is measured right after its parse (`measure_file`), so a
repository's parsed units never pile up: what stays of a file is one row
per top-level class, with file-level figures repeated across the classes
of a file, and a small graph stub per class. A metric function that
yields several columns returns them keyed by their schema names, and a
row is those dicts merged with the single-value metrics. Once the
repository's git columns are known, `measure_repo` drops the files
without history, links the stubs of the rest into one class graph, fills
in the graph and git columns, and keys each row by (repo, path,
class_name), the order it emits them in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from cam.javasrc.lexer import Tokens
from cam.javasrc.model import ClassModel, CompilationUnit
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
    ClassStub,
    access_matrix,
    class_stub,
    lcom1,
    lcom5,
    nhd,
    param_type_matrix,
    rfc,
    tcc,
    wmc,
)
from cam.metrics.structural import structural_counts


@dataclass
class MeasuredFile:
    """One kept file's rows, all but the graph and git columns, and the
    graph stubs of its top-level classes, in declaration order."""

    rows: list[dict]
    stubs: list[ClassStub]


@dataclass
class RepoMeasurement:
    rows: list[dict] = field(default_factory=list)
    inheritance_cycles: list[str] = field(default_factory=list)
    untracked: list[str] = field(default_factory=list)


def measure_file(source: str, unit: CompilationUnit) -> MeasuredFile:
    """Measure *unit*, the parse of *source*; the unit is not kept."""
    file_row = {
        **line_metrics(source, unit.tokens.comments),
        "ncss": unit.ncss,
        "imports_count": unit.import_count,
    }
    rows = [
        {"class_name": model.name, **file_row, **_class_columns(model, unit.tokens, file_row["loc"])}
        for model in unit.types
    ]
    return MeasuredFile(rows, [class_stub(model) for model in unit.types])


def measure_repo(
    repo: str,
    files: dict[str, MeasuredFile],
    git_columns: dict[str, dict[str, int]],
) -> RepoMeasurement:
    """Complete the rows of one repository's measured files.

    files maps repository-relative paths to the measured files that passed
    the filter rules; git_columns maps each of those paths with history to
    its five git columns. A file without history is untracked: it gets no
    rows, its classes stay out of the graph, and its path is listed in
    `untracked`. The rows are completed in place and come out by path,
    then by class name; the sort is stable, so classes of one file that
    share a name keep their declaration order.
    """
    paths = sorted(path for path in files if path in git_columns)
    graph = ClassGraph([(path, files[path].stubs) for path in paths])

    result = RepoMeasurement(untracked=sorted(files.keys() - git_columns.keys()))
    for path in paths:
        history = git_columns[path]
        measured = files[path]
        for row, stub in zip(measured.rows, measured.stubs):
            key = (path, stub.name)
            row.update(repo=repo, path=path, cbo=graph.cbo(key), dit=graph.dit(key), noc=graph.noc(key))
            row.update(history)
        result.rows += sorted(measured.rows, key=itemgetter("class_name"))
    result.inheritance_cycles = [f"{p}::{n}" for p, n in graph.cycle_members()]
    return result


def _class_columns(model: ClassModel, tokens: Tokens, lines_of_file: int) -> dict:
    hal = halstead(tokens, model.tokens)
    cyclomatic = class_cyclomatic(model)
    access = access_matrix(model)
    return {
        **hal,
        **member_counts(model),
        **structural_counts(model, tokens),
        "cyclomatic": cyclomatic,
        "cognitive": class_cognitive(model),
        "mi": maintainability_index(hal["halstead_volume"], cyclomatic, lines_of_file),
        "lcom5": lcom5(access),
        "nhd": nhd(param_type_matrix(model)),
        "tcc": tcc(access),
        "lcom1": lcom1(access),
        "wmc": wmc(model),
        "rfc": rfc(model),
    }
