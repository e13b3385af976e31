"""Turns parsed Java files into metric rows.

Each kept file is measured right after its parse (`measure_file`), so a
repository's parsed units never pile up: what stays of a file is one row
per top-level class, with file-level figures repeated across the classes
of a file, and a small graph stub per class. A metric function that
yields several columns returns them keyed by their schema names, and a
row is those dicts merged with the single-value metrics, formatted at
once as CSV cells in `HEADER` order. Once the repository's git columns
are known, `measure_repo` drops the files without history, links the
stubs of the rest into one class graph, and completes each row as one
CSV line with its key, graph and git cells, by path, then class name.
"""

from __future__ import annotations

from dataclasses import dataclass

from cam.dataset import csv_cells
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
from cam.metrics.schema import HEADER
from cam.metrics.structural import structural_counts

# The cells that measure_file formats, either side of the graph cells
# (cbo, dit, noc) and the git cells that measure_repo fills in.
_HEAD = HEADER[HEADER.index("class_name"):HEADER.index("cbo")]
_GIT = HEADER[HEADER.index("commits"):HEADER.index("churn_deleted") + 1]
_TAIL = HEADER[HEADER.index("churn_deleted") + 1:]


@dataclass
class MeasuredFile:
    """One kept file's rows, each the pair of CSV cell runs before and
    after the graph and git cells, and the graph stubs of its top-level
    classes, in declaration order."""

    rows: list[tuple[str, str]]
    stubs: list[ClassStub]


@dataclass
class RepoMeasurement:
    rows: list[bytes]  # UTF-8 CSV lines, each ending in a newline
    inheritance_cycles: list[str]
    untracked: list[str]


def measure_file(source: str, unit: CompilationUnit) -> MeasuredFile:
    """Measure *unit*, the parse of *source*; the unit is not kept."""
    file_row = {
        **line_metrics(source, unit.tokens.comments),
        "ncss": unit.ncss,
        "imports_count": unit.import_count,
    }
    rows = []
    for model in unit.types:
        row = {"class_name": model.name, **file_row, **_class_columns(model, unit.tokens, file_row["loc"])}
        rows.append((csv_cells(row[name] for name in _HEAD), csv_cells(row[name] for name in _TAIL)))
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
    `untracked`. The rows come out as CSV lines by path, then by class
    name; the sort is stable, so classes of one file that share a name
    keep their declaration order.
    """
    paths = sorted(path for path in files if path in git_columns)
    graph = ClassGraph([(path, files[path].stubs) for path in paths])
    lines = []
    for path in paths:
        key_cells = csv_cells((repo, path))
        git_cells = csv_cells(git_columns[path][name] for name in _GIT)
        for stub, (head, tail) in sorted(zip(files[path].stubs, files[path].rows), key=lambda pair: pair[0].name):
            key = (path, stub.name)
            line = f"{key_cells},{head},{graph.cbo(key)},{graph.dit(key)},{graph.noc(key)},{git_cells},{tail}\n"
            lines.append(line.encode("utf-8"))
    cycles = [f"{p}::{n}" for p, n in graph.cycle_members()]
    return RepoMeasurement(lines, cycles, sorted(files.keys() - git_columns.keys()))


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
