import json
import os
import threading
import time
import tracemalloc
import zipfile

import pytest

import cam.filters
import cam.measure
from cam.dataset import REASONS, empty_stats, merge_stats
from cam.filters import MAX_LINE_LENGTH, _has_long_line, evaluate_file, filter_tree
from cam.javasrc.parser import MAX_NESTING, JavaSyntaxError, parse
from cam.measure import measure_repo
from conftest import commit_all, git, init_repo
from oracle import file_rows, repo_rows, synthetic_git
from test_pipeline import make_world, run_cli

GOOD = b"class Ok {}\n"


def test_reason_vocabulary():
    assert REASONS == (
        "not-java-ext",
        "forbidden-name",
        "undecodable",
        "too-long-line",
        "test-file",
        "unparseable",
    )


def test_kept_file():
    reason, measured = evaluate_file("src/Ok.java", GOOD)
    assert reason is None
    assert [(row["class_name"], row["loc"], row["blanks"]) for row in file_rows(measured)] == [("Ok", 1, 0)]
    assert [stub.name for stub in measured.stubs] == ["Ok"]


@pytest.mark.parametrize(
    "path,data,reason",
    [
        ("notes.txt", b"x", "not-java-ext"),
        ("Thing.JAVA", GOOD, "not-java-ext"),
        ("src/package-info.java", b"package p;\n", "forbidden-name"),
        ("src/module-info.java", b"module m {}\n", "forbidden-name"),
        ("Bad.java", b"\xff\xfe\x00ab", "undecodable"),
        ("Long.java", b"class L {}" + b" " * MAX_LINE_LENGTH + b"\n", "too-long-line"),
        ("src/test/Main.java", GOOD, "test-file"),
        ("src/tests/Main.java", GOOD, "test-file"),
        ("src/TestFixtures/Main.java", GOOD, "test-file"),
        ("src/FooTest.java", GOOD, "test-file"),
        ("src/FooTests.java", GOOD, "test-file"),
        ("src/FooTestCase.java", GOOD, "test-file"),
        ("src/TestFoo.java", GOOD, "test-file"),
        ("src/Main.java", b"import org.junit.Test;\nclass A {}\n", "test-file"),
        ("src/Main.java", b"import static org.junit.Assert.fail;\nclass A {}\n", "test-file"),
        ("src/Main.java", b"import junit.framework.TestCase;\nclass A {}\n", "test-file"),
        ("src/Main.java", b"import org.testng.Assert;\nclass A {}\n", "test-file"),
        ("src/Main.java", b"\n \t\n\x0b\x0c\r\n\n  import org.junit.Test;\nclass A {}\n", "test-file"),
        ("src/Broken.java", b"class {", "unparseable"),
        ("src/Records.java", b"record P(int x) {}\n", "unparseable"),
        ("src/Cr.java", b"class A { // c\r garbage garbage\n }", "unparseable"),
        ("src/Sup.java", "class A { int x = 1²; }".encode(), "unparseable"),
        ("src/Arabic.java", "class A { int x = ١٢; }".encode(), "unparseable"),
        ("src/Dot.java", "class A { double x = .١; }".encode(), "unparseable"),
        ("src/Sup.java", "class A { int x² = 1; }".encode(), "unparseable"),
        ("src/Under.java", b"class A { int x = 1_; }", "unparseable"),
        ("src/Under.java", b"class A { double x = 1_.5; }", "unparseable"),
        ("src/Under.java", b"class A { int x = 0x_1; }", "unparseable"),
        ("src/Under.java", b"class A { int x = 0b_1; }", "unparseable"),
        ("src/Under.java", b"class A { long x = 1_L; }", "unparseable"),
    ],
)
def test_rejections(path, data, reason):
    got, measured = evaluate_file(path, data)
    assert got == reason
    assert measured is None


@pytest.mark.parametrize(
    "source, name",
    [
        ("class A { int €x; }", "€x"),
        ("class A { int a\u0301; }", "a\u0301"),
        ("class A { int Ⅷ; }", "Ⅷ"),
        ("class A { int a\u200db; }", "a\u200db"),
        ("class A { int x = 1__2 + 0_7; }", "x"),
    ],
)
def test_valid_java_names_and_numbers_are_kept(source, name):
    assert evaluate_file("src/A.java", source.encode())[0] is None
    assert [f.name for f in parse(source).types[0].fields] == [name]


def test_line_length_boundary():
    exactly = b"a" * MAX_LINE_LENGTH
    over = b"a" * (MAX_LINE_LENGTH + 1)
    reason, _ = evaluate_file("A.java", b"// " + b"x" * (MAX_LINE_LENGTH - 3) + b"\nclass A {}\n")
    assert reason is None
    assert evaluate_file("A.java", b"// " + exactly + b"\n", )[0] == "too-long-line"
    # a line of exactly the limit passes, one more character fails
    ok_line = b"// " + b"y" * (MAX_LINE_LENGTH - 3)
    assert len(ok_line) == MAX_LINE_LENGTH
    assert evaluate_file("A.java", ok_line + b"\nclass A {}\n")[0] is None
    assert evaluate_file("A.java", ok_line + b"z\nclass A {}\n")[0] == "too-long-line"


def test_crlf_does_not_tip_line_length():
    line = b"// " + b"y" * (MAX_LINE_LENGTH - 3)
    assert evaluate_file("A.java", line + b"\r\nclass A {}\r\n")[0] is None


def test_lone_carriage_return_ends_a_comment():
    reason, measured = evaluate_file("src/A.java", b"class A { int f; // c\r }")
    assert reason is None
    # Two lines, the comment on the first; the '}' after the '\r' is code.
    row = file_rows(measured)[0]
    assert (row["loc"], row["comments"], row["attributes"]) == (2, 1, 1)


def _parens(n):
    return "class Deep {\n  int f(int x) {\n    return " + "(\n" * n + "x" + "\n)" * n + ";\n  }\n}\n"


def _anonymous_classes(n):
    opening = "new Object() {\n  Object g() {\n    return "
    return "class Deep {\n  Object f() {\n    return " + opening * n + "null" + ";\n  }\n}" * n + ";\n  }\n}\n"


def _lambdas(n):
    return "class Deep {\n  Object f() {\n    return " + "x ->\n" * n + "null;\n  }\n}\n"


def _else_if_chain(n):
    arms = "".join(f"    else if (x == {i}) {{ y = {i}; }}\n" for i in range(1, n))
    return "class Deep {\n  int y;\n  void f(int x) {\n    if (x == 0) { y = 0; }\n" + arms + "  }\n}\n"


@pytest.mark.parametrize(
    "source",
    [_parens(100), _anonymous_classes(50), _lambdas(200), _else_if_chain(5000)],
    ids=["parens-100", "anonymous-classes-50", "lambdas-200", "else-if-5000"],
)
def test_deep_valid_nesting_is_kept_and_measured(source):
    reason, measured = evaluate_file("src/Deep.java", source.encode())
    assert reason is None
    rows = repo_rows(measure_repo("deep/lib", {"src/Deep.java": measured}, {"src/Deep.java": synthetic_git(1)}))
    assert [row["class_name"] for row in rows] == ["Deep"]


def test_a_measurement_error_is_not_a_verdict(tmp_path, monkeypatch):
    """The metrics run outside the parse's except clause, which takes only
    lex and syntax errors: even a RecursionError, from the metrics or from
    the parser, reaches the caller, where it fails the repository, instead
    of calling the file unparseable."""

    def too_deep(*_args):
        raise RecursionError("deep")

    with monkeypatch.context() as patch:
        patch.setattr(cam.measure, "structural_counts", too_deep)
        with pytest.raises(RecursionError, match="deep"):
            evaluate_file("src/Ok.java", GOOD)
    real_parse = cam.filters.parse
    # Only beta/app's file parses; every file of alpha/lib overflows.
    monkeypatch.setattr(cam.filters, "parse", lambda source: real_parse(source) if "class App" in source else too_deep())
    with pytest.raises(RecursionError, match="deep"):
        evaluate_file("src/Ok.java", GOOD)

    replay, work = make_world(tmp_path)
    assert run_cli(work, replay) == 0
    with zipfile.ZipFile(work / "dataset.zip") as archive:
        names = archive.namelist()
        manifest = json.loads(archive.read("manifest.json"))
    assert [(e["full_name"], e["status"], e["failure"]) for e in manifest["repos"]] == [
        ("alpha/lib", "failed", "internal-error:RecursionError"),
        ("beta/app", "ok", None),
    ]
    assert "data/beta__app.csv" in names and "data/alpha__lib.csv" not in names


def _in_method(body):
    return "class Deep {\n  int[] a;\n  Object f(boolean c, Object x) {\n" + body + "\n  }\n}\n"


def _returning(expression):
    return _in_method("    return " + expression + ";")


# Every recursive shape of the grammar: its source nested n deep, the
# levels each nesting opens, and the levels the file opens around the nest.
NESTED_SHAPES = {
    "parentheses": (lambda n: _returning("(\n" * n + "x" + "\n)" * n), 1, 4),
    "calls": (lambda n: _returning("f(c,\n" * n + "x" + "\n)" * n), 2, 4),
    "creations": (lambda n: _returning("new Deep(\n" * n + "\n)" * n), 2, 4),
    "indexes": (lambda n: _returning("a[\n" * n + "0" + "\n]" * n), 1, 4),
    "dimensions": (lambda n: _returning("new int[\n" * n + "0" + "\n].length" * n), 1, 4),
    "lambdas": (lambda n: _returning("y ->\n" * n + "null"), 1, 4),
    "block-lambdas": (lambda n: _returning("() -> { return\n" * n + "null" + ";\n}" * n), 3, 4),
    "cast-lambdas": (lambda n: _returning("(Runnable) () ->\n" * n + "null"), 1, 4),
    "ternaries": (lambda n: _returning("c ?\n" * n + "x" + "\n: x" * n), 1, 4),
    "ifs": (lambda n: _in_method("if (c)\n" * n + ";"), 1, 3),
    "ifs-with-braces": (lambda n: _in_method("if (c) {\n" * n + "\n}" * n), 2, 2),
    "blocks": (lambda n: _in_method("{\n" * n + "\n}" * n), 1, 2),
    "tries": (lambda n: _in_method("try {\n" * n + "} finally {}\n" * n), 2, 2),
    "labels": (lambda n: _in_method("".join(f"l{k}:\n" for k in range(n)) + ";"), 1, 3),
    "switches": (lambda n: _in_method("switch (1) { case 1:\n" * n + "\n}" * n), 1, 3),
    "anonymous-classes": (lambda n: _returning("new Object() { Object g() { return\n" * n + "null" + "; } }\n" * n), 4, 4),
    "local-classes": (lambda n: _in_method("class L { void g() {\n" * n + "}}\n" * n), 3, 2),
    "member-classes": (lambda n: "class Deep {\n" + "class M {\n" * n + "\n}" * n + "}\n", 1, 1),
    "generics-in-a-cast": (lambda n: _returning("(A<\n" + "A<\n" * (n - 1) + "B" + "\n>" * n + ") x"), 1, 4),
    "array-initializers": (lambda n: _in_method("Object[] o = " + "{\n" * n + "\n}" * n + ";"), 1, 3),
    "annotation-defaults": (lambda n: "@interface Deep {\n  int[] v() default " + "{\n" * n + "\n}" * n + ";\n}\n", 1, 1),
}


def _on_a_fresh_thread(call, caller_frames):
    """What call() returns when run on a new thread, *caller_frames* frames
    above the thread's first; what it raises is raised here."""
    outcome = []

    def climb(frames):
        if frames:
            return climb(frames - 1)
        try:
            outcome.append((call(), None))
        except BaseException as exc:
            outcome.append((None, exc))

    worker = threading.Thread(target=climb, args=(caller_frames,))
    worker.start()
    worker.join()
    value, error = outcome[0]
    if error is not None:
        raise error
    return value


@pytest.mark.parametrize("caller_frames", [0, 100])
@pytest.mark.parametrize("shape", NESTED_SHAPES)
def test_every_shape_nests_to_the_budget_and_no_deeper(shape, caller_frames):
    """Each shape is kept and measured as deep as the nesting budget allows
    and is unparseable one nesting deeper, with the same verdicts whatever
    the caller's depth: the parser's budget decides, not Python's stack."""
    build, per_nesting, around = NESTED_SHAPES[shape]
    deepest = (MAX_NESTING - around) // per_nesting

    def verdicts():
        reason, measured = evaluate_file("src/Deep.java", build(deepest).encode())
        rows = repo_rows(measure_repo("deep/lib", {"src/Deep.java": measured}, {"src/Deep.java": synthetic_git(1)}))
        try:
            parse(build(deepest + 1))
            error = None
        except JavaSyntaxError as exc:
            error = exc.reason
        return reason, [row["class_name"] for row in rows], evaluate_file("src/Deep.java", build(deepest + 1).encode()), error

    assert _on_a_fresh_thread(verdicts, caller_frames) == (
        None, ["Deep"], ("unparseable", None), f"nesting deeper than {MAX_NESTING}"
    )


def test_rule_order_extension_beats_test_dir():
    assert evaluate_file("test/readme.txt", b"x")[0] == "not-java-ext"
    assert evaluate_file("test/package-info.java", GOOD)[0] == "forbidden-name"


def test_test_name_match_is_case_sensitive():
    assert evaluate_file("src/Footest.java", GOOD)[0] is None
    assert evaluate_file("src/testFoo.java", GOOD)[0] is None


def test_basename_test_segment_does_not_trigger_dir_rule():
    # only directory segments named test/tests/testfixtures count
    assert evaluate_file("attest/Main.java", GOOD)[0] is None
    assert evaluate_file("protest/Main.java", GOOD)[0] is None


def test_import_detection_needs_line_start():
    body = b'class A { String s = "import org.junit.Test;"; }\n'
    assert evaluate_file("src/A.java", body)[0] is None
    indented = b"  import org.junit.Test;\nclass A {}\n"
    assert evaluate_file("src/A.java", indented)[0] == "test-file"


def test_a_long_run_of_blank_lines_is_kept_in_linear_time():
    """A JUnit-import pattern that starts `^\\s*` scans from each line
    start of a blank run to the end of the run: on 80,000 blank lines that
    took 11-20 s on a shared 2-vCPU host, against about 0.02 s for the
    pattern that takes no newline before `import`."""
    start = time.perf_counter()
    reason, _measured = evaluate_file("src/A.java", b"\n" * 80_000 + b"class A {}\n")
    assert reason is None
    assert time.perf_counter() - start < 5


def test_the_long_line_rule_allocates_no_list_of_lines():
    """Splitting a 4 MiB text into lines to find one over the limit
    allocated about 10 MiB; the search anchored at line starts allocates
    nothing."""
    text = "    int x = 1;\n" * 280_000
    tracemalloc.start()
    try:
        assert not _has_long_line(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def make_tree(root):
    """Commit a small tree to a new repository at *root*; returns the pin."""
    init_repo(root)
    (root / "src" / "main").mkdir(parents=True)
    (root / "src" / "test").mkdir(parents=True)
    (root / "src" / "main" / "Keep.java").write_bytes(GOOD)
    (root / "src" / "main" / "Zed.java").write_bytes(b"class Zed {}\n")
    (root / "src" / "test" / "Skip.java").write_bytes(GOOD)
    (root / "README.md").write_bytes(b"hello\n")
    (root / "Broken.java").write_bytes(b"class {")
    (root / ".git" / "Hidden.java").write_bytes(GOOD)
    return commit_all(root, "tree")


def test_filter_tree(tmp_path):
    pin = make_tree(tmp_path)
    payload, kept = filter_tree(str(tmp_path), pin)
    assert set(payload) == {"stats", "kept", "verdicts"}
    assert [path for path, _measured in kept] == payload["kept"] == ["src/main/Keep.java", "src/main/Zed.java"]
    assert [file_rows(measured)[0]["class_name"] for _path, measured in kept] == ["Ok", "Zed"]
    verdict_paths = [path for path, _reason in payload["verdicts"]]
    assert verdict_paths == sorted(verdict_paths)
    assert all("/.git/" not in p and not p.startswith(".git/") for p in verdict_paths)
    by_path = dict(payload["verdicts"])
    assert by_path["src/test/Skip.java"] == "test-file"
    assert by_path["README.md"] == "not-java-ext"
    assert by_path["Broken.java"] == "unparseable"
    stats = payload["stats"]
    assert stats["total"] == 5
    assert stats["kept"] == 2
    assert stats["rejected"]["test-file"] == 1
    assert stats["rejected"]["not-java-ext"] == 1
    assert stats["rejected"]["unparseable"] == 1
    assert set(stats["rejected"]) == set(REASONS)


def test_verdict_paths_spell_each_name_once(tmp_path):
    """A name holding the byte 0xE9 and a valid name holding the text
    `\\xe9` get two verdict paths; the valid one is still kept."""
    init_repo(tmp_path)
    for name in (b"Caf\xe9.java", b"Caf\\xe9.java"):
        with open(os.path.join(os.fsencode(tmp_path), name), "wb") as handle:
            handle.write(GOOD)
    payload, kept = filter_tree(str(tmp_path), commit_all(tmp_path, "two names"))
    assert payload["verdicts"] == [["Caf\\\\xe9.java", None], ["Caf\\xe9.java", "undecodable"]]
    assert payload["kept"] == [path for path, _measured in kept] == ["Caf\\xe9.java"]


def test_filter_tree_skips_symlinks(tmp_path):
    init_repo(tmp_path)
    (tmp_path / "Real.java").write_bytes(GOOD)
    os.symlink("Real.java", tmp_path / "Link.java")
    first = commit_all(tmp_path, "real and link")
    # A gitlink (mode 160000), as a submodule that is not initialised leaves it.
    git(tmp_path, "update-index", "--add", "--cacheinfo", f"160000,{first},lib/sub")
    git(tmp_path, "commit", "-q", "-m", "gitlink")
    pin = git(tmp_path, "rev-parse", "HEAD")
    modes = sorted(line.split(" ", 1)[0] for line in git(tmp_path, "ls-tree", "-r", pin).split("\n"))
    assert modes == ["100644", "120000", "160000"]
    payload, _kept = filter_tree(str(tmp_path), pin)
    assert payload["verdicts"] == [["Real.java", None]]
    assert payload["stats"]["total"] == 1


def test_filter_tree_non_utf8_name_is_undecodable(tmp_path):
    init_repo(tmp_path)
    (tmp_path / "A.java").write_bytes(GOOD)
    (tmp_path / "sub").mkdir()
    open(os.path.join(os.fsencode(tmp_path / "sub"), b"Caf\xe9.java"), "wb").close()
    pin = commit_all(tmp_path, "odd name")
    payload, kept = filter_tree(str(tmp_path), pin)
    assert payload["verdicts"] == [["A.java", None], ["sub/Caf\\xe9.java", "undecodable"]]
    assert [path for path, _measured in kept] == payload["kept"] == ["A.java"]
    assert payload["stats"]["rejected"]["undecodable"] == 1


def test_working_tree_encoding_does_not_reach_the_filter(tmp_path):
    """A checkout writes this file as UTF-16LE, which is undecodable; the
    committed blob is UTF-8, and it is kept."""
    init_repo(tmp_path)
    (tmp_path / ".gitattributes").write_bytes(b"*.java working-tree-encoding=UTF-16LE\n")
    (tmp_path / "Wide.java").write_bytes("class Wide {}\n".encode("utf-16-le"))
    pin = commit_all(tmp_path, "wide")
    assert git(tmp_path, "cat-file", "blob", f"{pin}:Wide.java") == "class Wide {}"
    payload, _kept = filter_tree(str(tmp_path), pin)
    assert payload["verdicts"] == [[".gitattributes", "not-java-ext"], ["Wide.java", None]]


def test_stats_merge():
    total = empty_stats()
    one = empty_stats()
    one["total"] = 3
    one["kept"] = 1
    one["rejected"]["test-file"] = 2
    merge_stats(total, one)
    merge_stats(total, one)
    assert total["total"] == 6
    assert total["kept"] == 2
    assert total["rejected"]["test-file"] == 4
    assert total["rejected"]["undecodable"] == 0
