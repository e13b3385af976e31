"""The filter's verdict on number literals against javac's (JLS 3.10.1-3.10.2).

Each literal goes into a class file of its own, one `javac` run compiles
them all, and a file is one javac rejects when an error line names it.
`evaluate_file` must keep exactly the files javac compiles and call the
others unparseable. Skipped where no `javac` is on PATH.
"""

from __future__ import annotations

import re
import shutil
import subprocess

import pytest

from cam.filters import evaluate_file

# Each literal and whether javac compiles it.
LITERALS = [
    ("0x1p", False),
    ("0x1.", False),
    ("0x1.8f", False),
    ("09", False),
    ("08L", False),
    ("0_8", False),
    ("0x.8p1", True),
    ("09.5", True),
    ("09e1", True),
    ("09f", True),
    ("0_7", True),
    ("0777", True),
    ("00", True),
    ("0x1.p1", True),
    ("1.5L", False),
    ("1.5l", False),
    ("1e3L", False),
    ("0x1p3L", False),
    ("0x1FL", True),
]


def _source(k: int, literal: str) -> str:
    return f"class L{k} {{ Object x = {literal}; }}\n"


@pytest.fixture(scope="module")
def javac_rejects(tmp_path_factory) -> set[str]:
    """Names of the classes whose file javac rejects."""
    javac = shutil.which("javac")
    if javac is None:
        pytest.skip("javac is not on PATH")
    src = tmp_path_factory.mktemp("javac-src")
    files = []
    for k, (literal, _compiles) in enumerate(LITERALS):
        path = src / f"L{k}.java"
        path.write_text(_source(k, literal), encoding="utf-8")
        files.append(str(path))
    out = tmp_path_factory.mktemp("javac-out")
    proc = subprocess.run(
        [javac, "-encoding", "UTF-8", "-d", str(out), *files],
        capture_output=True,
        text=True,
        timeout=300,
    )
    rejects = set(re.findall(r"(L\d+)\.java:\d+: error:", proc.stdout + proc.stderr))
    assert (proc.returncode == 0) == (not rejects), proc.stdout + proc.stderr
    return rejects


@pytest.mark.parametrize("k, literal, compiles", [(k, *case) for k, case in enumerate(LITERALS)], ids=[c[0] for c in LITERALS])
def test_evaluate_file_agrees_with_javac(javac_rejects, k, literal, compiles):
    javac_keeps = f"L{k}" not in javac_rejects
    reason, _measured = evaluate_file(f"src/L{k}.java", _source(k, literal).encode("utf-8"))
    assert reason in (None, "unparseable")
    assert (reason is None) == javac_keeps == compiles
