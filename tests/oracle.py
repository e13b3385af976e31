"""Checker that compares measured rows against the frozen fixture table."""

from __future__ import annotations

import csv
import math

from cam.javasrc.parser import parse
from cam.measure import measure_file, measure_repo
from cam.metrics.schema import HEADER, KEY_COLUMNS

INT_COLUMNS = (
    "loc", "blanks", "comments", "ncss", "cyclomatic", "cognitive",
    "attributes", "static_attributes", "constructors", "methods",
    "static_methods", "lcom1", "wmc", "rfc", "cbo", "dit", "noc",
    "interfaces_implemented", "extends_flag", "is_abstract", "is_final",
    "public_methods", "private_methods", "protected_methods",
    "default_visibility_methods", "annotations_on_class", "imports_count",
    "lambda_count", "try_blocks", "catch_blocks", "returns_count",
)
COHESION_COLUMNS = ("lcom5", "nhd", "tcc")
TOL = 1e-9
# The cells of a row that measure_repo fills in, after measure_file.
REPO_CELLS = ("repo", "path", "cbo", "dit", "noc", "commits", "authors", "age_days", "churn_added", "churn_deleted")


def _typed(name: str, text: str):
    """A dataset cell read back as the value it was formatted from."""
    if name in KEY_COLUMNS:
        return text
    if not text:
        return math.nan
    try:
        return int(text)
    except ValueError:
        return float(text)


def repo_rows(result) -> list[dict]:
    """measure_repo's CSV lines read back as typed row dicts."""
    return [{n: _typed(n, c) for n, c in zip(HEADER, cells, strict=True)} for cells in csv.reader(line.decode("utf-8") for line in result.rows)]


def file_rows(measured) -> list[dict]:
    """measure_file's rows read back as typed dicts of the cells it formats."""
    names = [name for name in HEADER if name not in REPO_CELLS]
    return [
        {n: _typed(n, c) for n, c in zip(names, [*next(csv.reader([head])), *next(csv.reader([tail]))], strict=True)}
        for head, tail in measured.rows
    ]


def synthetic_git(loc: int) -> dict[str, int]:
    return {
        "commits": 1,
        "authors": 1,
        "age_days": 0,
        "churn_added": loc,
        "churn_deleted": 0,
    }


def measure_case(case, git_columns: dict[str, int] | None = None) -> dict[str, dict]:
    loc = next(iter(case.classes.values()))["loc"]
    git = {case.file: git_columns or synthetic_git(loc)}
    result = measure_repo("fixtures/repo", {case.file: measure_file(case.source, parse(case.source))}, git)
    return {row["class_name"]: row for row in repo_rows(result)}


def expected_volume(exp: dict) -> float:
    n1, n2, big_n1, big_n2 = exp["halstead"]
    vocab = n1 + n2
    if vocab == 0:
        return math.nan
    return (big_n1 + big_n2) * math.log2(vocab)


def expected_difficulty(exp: dict) -> float:
    n1, n2, _big_n1, big_n2 = exp["halstead"]
    if n2 == 0:
        return math.nan
    return (n1 / 2.0) * (big_n2 / n2)


def expected_mi(exp: dict) -> float:
    volume = expected_volume(exp)
    loc = exp["loc"]
    if math.isnan(volume) or volume <= 0.0 or loc <= 0:
        return math.nan
    raw = 171.0 - 5.2 * math.log(volume) - 0.23 * exp["cyclomatic"] - 16.2 * math.log(loc)
    return max(raw, 0.0)


def _close(got, want) -> bool:
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    try:
        return abs(float(got) - float(want)) <= TOL
    except (TypeError, ValueError):
        return False


def row_mismatches(row: dict, exp: dict) -> list[str]:
    """Every disagreement between a measured row and its frozen expectation."""
    bad = []

    def check(col, want):
        got = row[col]
        if isinstance(want, int) and not isinstance(want, bool):
            if got != want:
                bad.append(f"{col}: got {got!r} want {want!r}")
        elif not _close(got, want):
            bad.append(f"{col}: got {got!r} want {want!r}")

    for col in INT_COLUMNS:
        check(col, exp[col])
    n1, n2, big_n1, big_n2 = exp["halstead"]
    check("halstead_n1", n1)
    check("halstead_n2", n2)
    check("halstead_N1", big_n1)
    check("halstead_N2", big_n2)
    check("kloc", exp["loc"] / 1000.0)
    check("halstead_volume", expected_volume(exp))
    check("halstead_difficulty", expected_difficulty(exp))
    effort = expected_difficulty(exp) * expected_volume(exp)
    check("halstead_effort", effort)
    check("mi", expected_mi(exp))
    for col in COHESION_COLUMNS:
        want = exp[col]
        check(col, math.nan if want is None else float(want))
    return bad
