import os

import pytest

from cam.filters import (
    MAX_LINE_LENGTH,
    REASONS,
    empty_stats,
    evaluate_file,
    filter_tree,
    merge_stats,
)

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
    reason, unit = evaluate_file("src/Ok.java", GOOD)
    assert reason is None
    assert unit.source == "class Ok {}\n"
    assert [model.name for model in unit.types] == ["Ok"]


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
        ("src/Broken.java", b"class {", "unparseable"),
        ("src/Records.java", b"record P(int x) {}\n", "unparseable"),
    ],
)
def test_rejections(path, data, reason):
    got, unit = evaluate_file(path, data)
    assert got == reason
    assert unit is None


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


def make_tree(root):
    (root / "src" / "main").mkdir(parents=True)
    (root / "src" / "test").mkdir(parents=True)
    (root / ".git").mkdir()
    (root / "src" / "main" / "Keep.java").write_bytes(GOOD)
    (root / "src" / "main" / "Zed.java").write_bytes(b"class Zed {}\n")
    (root / "src" / "test" / "Skip.java").write_bytes(GOOD)
    (root / "README.md").write_bytes(b"hello\n")
    (root / "Broken.java").write_bytes(b"class {")
    (root / ".git" / "Hidden.java").write_bytes(GOOD)


def test_filter_tree(tmp_path):
    make_tree(tmp_path)
    outcome = filter_tree(tmp_path)
    kept_paths = [rec.path for rec in outcome.kept]
    assert kept_paths == ["src/main/Keep.java", "src/main/Zed.java"]
    verdict_paths = [v.path for v in outcome.verdicts]
    assert verdict_paths == sorted(verdict_paths)
    assert all("/.git/" not in p and not p.startswith(".git/") for p in verdict_paths)
    by_path = {v.path: v for v in outcome.verdicts}
    assert by_path["src/test/Skip.java"].reason == "test-file"
    assert by_path["README.md"].reason == "not-java-ext"
    assert by_path["Broken.java"].reason == "unparseable"
    assert outcome.stats["total"] == 5
    assert outcome.stats["kept"] == 2
    assert outcome.stats["rejected"]["test-file"] == 1
    assert outcome.stats["rejected"]["not-java-ext"] == 1
    assert outcome.stats["rejected"]["unparseable"] == 1
    assert set(outcome.stats["rejected"]) == set(REASONS)


def test_filter_tree_skips_symlinks(tmp_path):
    (tmp_path / "Real.java").write_bytes(GOOD)
    os.symlink(tmp_path / "Real.java", tmp_path / "Link.java")
    outcome = filter_tree(tmp_path)
    assert [v.path for v in outcome.verdicts] == ["Real.java"]
    assert outcome.stats["total"] == 1


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
