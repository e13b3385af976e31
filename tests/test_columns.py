"""Every dataset column comes from exactly one source.

A row is built by merging the dicts of the metric families, and a dict
merge silently keeps the last of two equal keys, so two sources that
claim the same column would go unnoticed without this check.
"""

import ast
import inspect
from itertools import combinations

import cam.measure
from cam.gitstats import file_history
from cam.javasrc.parser import parse
from cam.measure import measure_file
from cam.metrics.code import halstead, line_metrics, member_counts
from cam.metrics.schema import HEADER
from cam.metrics.structural import structural_counts
from conftest import single_commit_repo
from oracle import file_rows

SOURCE = "import java.util.List;\nclass A extends B {\n    int f;\n    int g() { return f; }\n}\n"

# Filled in by measure_repo once the repository's class graph is known.
REPO_COLUMNS = {"repo", "path", "cbo", "dit", "noc"}


def literal_row_keys() -> set[str]:
    """The column names that cam.measure writes itself as dict keys."""
    tree = ast.parse(inspect.getsource(cam.measure))
    return {
        key.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict)
        for key in node.keys
        if isinstance(key, ast.Constant)
    }


def test_column_sources_partition_the_header(tmp_path):
    unit = parse(SOURCE)
    model = unit.types[0]
    repo, pin = single_commit_repo(tmp_path / "r", {"A.java": SOURCE})
    git_columns = set(file_history(str(repo), pin, ["A.java"])["A.java"])
    sources = {
        "line_metrics": set(line_metrics(SOURCE, unit.tokens.comments)),
        "halstead": set(halstead(unit.tokens, model.tokens)),
        "member_counts": set(member_counts(model)),
        "structural_counts": set(structural_counts(model, unit.tokens)),
        "file_history": git_columns,
        "cam.measure": literal_row_keys(),
        "measure_repo": REPO_COLUMNS,
    }
    for (a, keys_a), (b, keys_b) in combinations(sources.items(), 2):
        assert not keys_a & keys_b, f"{a} and {b} both write {sorted(keys_a & keys_b)}"
    assert set().union(*sources.values()) == set(HEADER)
    assert sum(map(len, sources.values())) == len(HEADER)

    row = file_rows(measure_file(SOURCE, unit))[0]
    assert list(row) == [name for name in HEADER if name not in git_columns | REPO_COLUMNS]
    assert row["class_name"] == "A"
