"""The filter's verdict against javac's, on number literals (JLS
3.10.1-3.10.2), on explicit type arguments, on variable modifiers and
array creations, on type-parameter lists, on stray ';'s among the imports,
and on the grammar sample `tests/data/Grammar8.java`.

Each case goes into a class file of its own, one `javac` run compiles
them all, and a file is one javac rejects when an error line names it.
`evaluate_file` must keep exactly the files javac compiles and call the
others unparseable. Skipped where no `javac` is on PATH.
"""

from __future__ import annotations

import re
import shutil
import subprocess
from pathlib import Path

import pytest

from cam.filters import evaluate_file

GRAMMAR_SAMPLE = Path(__file__).parent / "data" / "Grammar8.java"

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

# Field declarations with explicit type arguments, and their ids. Only a
# class instance creation takes '<>', and no type argument takes '&'.
DECLARATIONS = [
    ("method-ref-type-args", "Function<String[], List<String>> f = Arrays::<String>asList", True),
    ("method-ref-diamond", "Function<String[], List<String>> f = Arrays::<>asList", False),
    ("method-ref-intersection", "Function<String[], List<String>> f = Arrays::<String & Runnable>asList", False),
    ("call-type-args", "List<String> f = Collections.<String>emptyList()", True),
    ("call-diamond", "List<String> f = Collections.<>emptyList()", False),
    ("call-intersection", "List<String> f = Collections.<String & Runnable>emptyList()", False),
    ("constructor-ref-type-args", "Supplier<List<String>> f = ArrayList<String>::new", True),
    ("creation-diamond", "Map<String, List<String>> f = new HashMap<>()", True),
    ("field-type-intersection", "List<String & Runnable> f = null", False),
]

# Members whose variables or modifiers javac checks, and their ids. A
# variable takes no modifier but 'final', no modifier may be repeated, and
# an array creation takes dimension expressions or an initializer: one of
# them, not both, and no dimension expression after an empty `[]`.
MEMBERS = [
    ("sized-array-initializer", "Object x = new int[3] {1};", False),
    ("unsized-array-initializer", "Object x = new int[] {1};", True),
    ("unsized-array-creation", "Object x = new int[];", False),
    ("unsized-nested-array-creation", "Object x = new String[][];", False),
    ("sized-then-unsized-array-creation", "Object x = new String[2][];", True),
    ("dimension-after-empty-brackets", "Object x = new int[][3];", False),
    ("dimension-after-sized-then-empty", "Object x = new int[3][][2];", False),
    ("public-for-variable", "void f() { for (public int i = 0; ;) {} }", False),
    ("final-for-variable", "void f() { for (final int i = 0; ;) {} }", True),
    ("static-foreach-variable", "void f(List<Integer> xs) { for (static int x : xs) {} }", False),
    ("final-foreach-variable", "void f(List<Integer> xs) { for (final int x : xs) {} }", True),
    ("public-parameter", "void f(public int x) {}", False),
    ("final-parameter", "void f(final int x) {}", True),
    ("static-catch-parameter", "void f() { try {} catch (static RuntimeException e) {} }", False),
    ("final-catch-parameter", "void f() { try {} catch (final RuntimeException e) {} }", True),
    ("private-lambda-parameter", "IntUnaryOperator f = (private int x) -> x;", False),
    ("final-lambda-parameter", "IntUnaryOperator f = (final int x) -> x;", True),
    ("static-local", "void f() { static int x = 1; }", False),
    ("static-resource", "void f() { try (static java.io.StringReader r = null) {} }", False),
    ("repeated-method-modifier", "public public void f() {}", False),
    ("repeated-field-modifier", "final final int x = 1;", False),
    ("repeated-local-modifier", "void f() { final final int x = 1; }", False),
    # A type parameter is an annotated name with an optional 'extends'
    # list of types joined by '&'.
    ("type-param-without-name", "class A< extends Number & Comparable<A>> {}", False),
    ("type-param-with-two-names", "class A<U U extends Number> {}", False),
    ("type-param-diamond-bound", "class A<T extends Comparable<>> {}", False),
    ("type-param-list-empty", "class A<> {}", False),
    ("type-param-list-unclosed", "<T extends Number void f() {}", False),
    ("type-param-wildcard-bound", "class A<T extends Comparable<? super T>> {}", True),
    ("type-param-bound-on-a-later-param", "<K, V extends List<K>> void f() {}", True),
    ("type-param-intersection-bound", "<T extends Number & Runnable> void f() {}", True),
    ("constructor-type-args", "Object x = new <List<String>>ArrayList<String>(1);", True),
]

# Import lists and whether javac compiles a class after them. javac 17
# takes a stray ';' before or between imports, for which the JLS 8 grammar
# has no place; cam follows javac.
IMPORTS = "import java.util.*; import java.util.function.*; "
HEADERS = [
    ("stray-semicolon-between-imports", "import java.util.List;;\nimport java.util.Map;\n", True),
    ("stray-semicolon-before-imports", "package p;;\n;import java.util.List; import java.util.Map;\n", True),
]
HEADER_BODY = "List<String> a; Map<String, String> b;"

CASES = [(IMPORTS, f"Object x = {literal};", compiles) for literal, compiles in LITERALS]
CASES += [(IMPORTS, f"{declaration};", compiles) for _id, declaration, compiles in DECLARATIONS]
CASES += [(IMPORTS, member, compiles) for _id, member, compiles in MEMBERS]
CASES += [(header, HEADER_BODY, compiles) for _id, header, compiles in HEADERS]
IDS = [literal for literal, _compiles in LITERALS] + [case_id for case_id, _d, _c in DECLARATIONS + MEMBERS + HEADERS]


def _source(k: int, header: str, body: str) -> str:
    return f"{header}class L{k} {{ {body} }}\n"


@pytest.fixture(scope="module")
def javac_rejects(tmp_path_factory) -> set[str]:
    """Names of the classes whose file javac rejects."""
    javac = shutil.which("javac")
    if javac is None:
        pytest.skip("javac is not on PATH")
    src = tmp_path_factory.mktemp("javac-src")
    files = []
    for k, (header, body, _compiles) in enumerate(CASES):
        path = src / f"L{k}.java"
        path.write_text(_source(k, header, body), encoding="utf-8")
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


@pytest.mark.parametrize("k, header, body, compiles", [(k, *case) for k, case in enumerate(CASES)], ids=IDS)
def test_evaluate_file_agrees_with_javac(javac_rejects, k, header, body, compiles):
    javac_keeps = f"L{k}" not in javac_rejects
    reason, _measured = evaluate_file(f"src/L{k}.java", _source(k, header, body).encode("utf-8"))
    assert reason in (None, "unparseable")
    assert (reason is None) == javac_keeps == compiles


def test_grammar_sample_compiles_as_java_8_and_is_kept(tmp_path):
    javac = shutil.which("javac")
    if javac is None:
        pytest.skip("javac is not on PATH")
    proc = subprocess.run(
        [javac, "--release", "8", "-encoding", "UTF-8", "-d", str(tmp_path), str(GRAMMAR_SAMPLE)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    reason, _measured = evaluate_file("src/Grammar8.java", GRAMMAR_SAMPLE.read_bytes())
    assert reason is None
