import pytest

from cam.gitstats import GitCommandError, UntrackedFile, derived_columns, file_history
from conftest import AUTHOR_A, AUTHOR_B, commit_all, git, init_repo

FIVE_LINES = "class A {\n    int a;\n    int b;\n    int c;\n}\n"


def test_single_commit(tmp_path):
    repo = init_repo(tmp_path / "r")
    (repo / "A.java").write_text(FIVE_LINES)
    pin = commit_all(repo, "start", when="2020-01-01T00:00:00Z")
    hist = file_history(str(repo), pin, "A.java")
    assert len(hist.commits) == 1
    assert hist.added == 5
    assert hist.deleted == 0
    cols = derived_columns(hist)
    assert cols == {
        "commits": 1,
        "authors": 1,
        "age_days": 0,
        "churn_added": 5,
        "churn_deleted": 0,
    }


def test_multi_commit_authors_and_age(tmp_path):
    repo = init_repo(tmp_path / "r")
    (repo / "A.java").write_text("class A {\n}\n")
    commit_all(repo, "one", when="2020-01-01T00:00:00Z", author=AUTHOR_A)
    (repo / "A.java").write_text("class A {\n    int x;\n}\n")
    commit_all(repo, "two", when="2020-01-04T00:00:00Z", author=AUTHOR_B)
    (repo / "A.java").write_text("class A {\n    int y;\n}\n")
    pin = commit_all(repo, "three", when="2020-01-11T12:00:00Z", author=AUTHOR_A)
    hist = file_history(str(repo), pin, "A.java")
    cols = derived_columns(hist)
    assert cols["commits"] == 3
    # author emails compare case-insensitively
    assert cols["authors"] == 2
    # ten and a half days floor to ten
    assert cols["age_days"] == 10
    assert cols["churn_added"] == 2 + 1 + 1
    assert cols["churn_deleted"] == 0 + 0 + 1


def test_rename_following(tmp_path):
    repo = init_repo(tmp_path / "r")
    (repo / "Old.java").write_text(FIVE_LINES)
    commit_all(repo, "add", when="2020-01-01T00:00:00Z")
    git(repo, "mv", "Old.java", "New.java", when="2020-01-02T00:00:00Z")
    commit_all(repo, "rename", when="2020-01-02T00:00:00Z")
    mode_path = repo / "New.java"
    mode_path.chmod(0o755)
    pin = commit_all(repo, "mark executable", when="2020-01-03T00:00:00Z")
    hist = file_history(str(repo), pin, "New.java")
    cols = derived_columns(hist)
    assert cols["commits"] == 3
    assert cols["churn_added"] == 5
    assert cols["churn_deleted"] == 0
    assert cols["age_days"] == 2


def test_history_pinned_below_head(tmp_path):
    repo = init_repo(tmp_path / "r")
    (repo / "A.java").write_text("class A {\n}\n")
    pin = commit_all(repo, "one", when="2020-01-01T00:00:00Z")
    (repo / "A.java").write_text(FIVE_LINES)
    commit_all(repo, "two", when="2020-02-01T00:00:00Z")
    hist = file_history(str(repo), pin, "A.java")
    assert len(hist.commits) == 1
    assert hist.added == 2


def test_untracked_file(tmp_path):
    repo = init_repo(tmp_path / "r")
    (repo / "A.java").write_text("class A {\n}\n")
    pin = commit_all(repo, "one")
    (repo / "Loose.java").write_text("class Loose {\n}\n")
    with pytest.raises(UntrackedFile):
        file_history(str(repo), pin, "Loose.java")


def test_binary_numstat_dashes_count_zero(tmp_path):
    repo = init_repo(tmp_path / "r")
    (repo / "Blob.java").write_bytes(b"\x00\x01\x02cafe")
    pin = commit_all(repo, "binary")
    hist = file_history(str(repo), pin, "Blob.java")
    assert hist.added == 0
    assert hist.deleted == 0
    assert derived_columns(hist)["commits"] == 1


def test_bad_repo_raises(tmp_path):
    with pytest.raises(GitCommandError):
        file_history(str(tmp_path), "HEAD", "A.java")
