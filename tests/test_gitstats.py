import os
import random
import subprocess

import pytest

from cam.gitstats import file_history
from cam.repos import GitCommandError
from conftest import AUTHOR_A, AUTHOR_B, commit_all, git, git_env, init_repo

FIVE_LINES = "class A {\n    int a;\n    int b;\n    int c;\n}\n"
SIX_LINES = "class K {\n    int k1 = 11;\n    int k2 = 22;\n    int k3 = 33;\n    int k4 = 44;\n}\n"


def columns(repo, pin, path):
    return file_history(str(repo), pin, [path])[path]


def test_single_commit(tmp_path):
    repo = init_repo(tmp_path / "r")
    (repo / "A.java").write_text(FIVE_LINES)
    pin = commit_all(repo, "start", when="2020-01-01T00:00:00Z")
    assert columns(repo, pin, "A.java") == {
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
    cols = columns(repo, pin, "A.java")
    assert cols["commits"] == 3
    # author emails compare case-insensitively
    assert cols["authors"] == 2
    # ten and a half days floor to ten
    assert cols["age_days"] == 10
    assert cols["churn_added"] == 2 + 1 + 1
    assert cols["churn_deleted"] == 0 + 0 + 1


def test_age_spans_the_earliest_and_latest_author_dates(tmp_path):
    """Author dates need not follow the commit graph (a rebase or a
    cherry-pick keeps the original date), so age is max minus min, not
    the span between the first and last commit of the walk."""
    repo = init_repo(tmp_path / "r")
    (repo / "A.java").write_text("class A {\n}\n")
    commit_all(repo, "one", when="2020-01-10T00:00:00Z")
    (repo / "A.java").write_text(FIVE_LINES)
    # committed after its parent, authored three days before it
    git(repo, "add", "-A")
    backdated = git_env("2020-01-12T00:00:00Z") | {"GIT_AUTHOR_DATE": "2020-01-07T00:00:00Z"}
    subprocess.run(["git", "-C", str(repo), "commit", "-q", "-m", "two"], check=True, env=backdated)
    (repo / "A.java").write_text(FIVE_LINES.replace("int a;", "int aa;"))
    pin = commit_all(repo, "three", when="2020-01-13T00:00:00Z")
    stamps = [int(s) for s in git(repo, "log", "--format=%at", pin).split("\n")]
    assert stamps[1] < stamps[2], "the middle commit must be authored before its parent"
    cols = columns(repo, pin, "A.java")
    # first to last in walk order would be 3 days; max minus min is 6
    assert (cols["commits"], cols["age_days"]) == (3, 6)
    assert cols == follow_oracle(repo, pin, "A.java")


def test_rename_following(tmp_path):
    repo = init_repo(tmp_path / "r")
    (repo / "Old.java").write_text(FIVE_LINES)
    commit_all(repo, "add", when="2020-01-01T00:00:00Z")
    git(repo, "mv", "Old.java", "New.java", when="2020-01-02T00:00:00Z")
    commit_all(repo, "rename", when="2020-01-02T00:00:00Z")
    mode_path = repo / "New.java"
    mode_path.chmod(0o755)
    pin = commit_all(repo, "mark executable", when="2020-01-03T00:00:00Z")
    cols = columns(repo, pin, "New.java")
    assert cols["commits"] == 3
    assert cols["churn_added"] == 5
    assert cols["churn_deleted"] == 0
    assert cols["age_days"] == 2


def test_rename_and_edit_in_one_commit(tmp_path):
    repo = init_repo(tmp_path / "r")
    (repo / "Old.java").write_text(FIVE_LINES)
    commit_all(repo, "add", when="2020-01-01T00:00:00Z")
    (repo / "Old.java").unlink()
    (repo / "New.java").write_text(FIVE_LINES.replace("}\n", "    int d;\n}\n"))
    pin = commit_all(repo, "rename and grow", when="2020-01-02T00:00:00Z", author=AUTHOR_B)
    assert columns(repo, pin, "New.java") == {
        "commits": 2,
        "authors": 2,
        "age_days": 1,
        "churn_added": 6,
        "churn_deleted": 0,
    }


def test_rename_chain(tmp_path):
    repo = init_repo(tmp_path / "r")
    (repo / "A.java").write_text(FIVE_LINES)
    (repo / "Other.java").write_text(SIX_LINES)
    commit_all(repo, "add", when="2020-01-01T00:00:00Z")
    git(repo, "mv", "A.java", "B.java")
    commit_all(repo, "A to B", when="2020-01-03T00:00:00Z")
    (repo / "B.java").write_text(FIVE_LINES.replace("int b;", "int bb;"))
    commit_all(repo, "edit B", when="2020-01-05T00:00:00Z", author=AUTHOR_B)
    git(repo, "mv", "B.java", "C.java")
    pin = commit_all(repo, "B to C", when="2020-01-08T00:00:00Z")
    histories = file_history(str(repo), pin, ["C.java", "Other.java"])
    assert histories["C.java"] == {
        "commits": 4,
        "authors": 2,
        "age_days": 7,
        "churn_added": 6,
        "churn_deleted": 1,
    }
    assert histories["Other.java"]["commits"] == 1


def test_name_reused_after_a_rename_starts_a_new_history(tmp_path):
    repo = init_repo(tmp_path / "r")
    (repo / "Foo.java").write_text(FIVE_LINES)
    commit_all(repo, "add Foo", when="2020-01-01T00:00:00Z")
    git(repo, "mv", "Foo.java", "FooImpl.java")
    commit_all(repo, "Foo to FooImpl", when="2020-01-02T00:00:00Z", author=AUTHOR_B)
    (repo / "Foo.java").write_text("interface Foo {\n}\n")
    pin = commit_all(repo, "new Foo", when="2020-01-04T00:00:00Z")
    histories = file_history(str(repo), pin, ["Foo.java", "FooImpl.java"])
    # the old Foo's commits went with its content to FooImpl
    assert histories["FooImpl.java"] == {
        "commits": 2,
        "authors": 2,
        "age_days": 1,
        "churn_added": 5,
        "churn_deleted": 0,
    }
    assert histories["Foo.java"] == {
        "commits": 1,
        "authors": 1,
        "age_days": 0,
        "churn_added": 2,
        "churn_deleted": 0,
    }


def test_deleted_then_readded_is_not_followed_into_a_similar_file(tmp_path):
    repo = init_repo(tmp_path / "r")
    (repo / "Keep.java").write_text(SIX_LINES)
    (repo / "Gone.java").write_text(FIVE_LINES)
    commit_all(repo, "add", when="2020-01-01T00:00:00Z")
    (repo / "Gone.java").unlink()
    commit_all(repo, "delete", when="2020-01-02T00:00:00Z", author=AUTHOR_B)
    (repo / "Gone.java").write_text(SIX_LINES.replace("k4 = 44", "k4 = 45"))
    pin = commit_all(repo, "re-add as a near copy of Keep", when="2020-01-04T00:00:00Z")
    histories = file_history(str(repo), pin, ["Gone.java", "Keep.java"])
    assert histories["Gone.java"] == {
        "commits": 3,
        "authors": 2,
        "age_days": 3,
        "churn_added": 6 + 5,
        "churn_deleted": 5,
    }
    assert histories["Keep.java"]["commits"] == 1


def test_near_copy_keeps_only_its_own_commits(tmp_path):
    repo = init_repo(tmp_path / "r")
    (repo / "A.java").write_text(SIX_LINES)
    commit_all(repo, "add A", when="2020-01-01T00:00:00Z")
    (repo / "A.java").write_text(SIX_LINES.replace("k1 = 11", "k1 = 12"))
    commit_all(repo, "edit A", when="2020-01-02T00:00:00Z", author=AUTHOR_B)
    (repo / "B.java").write_text(SIX_LINES.replace("k2 = 22", "k2 = 23"))
    pin = commit_all(repo, "copy A to B", when="2020-01-05T00:00:00Z")
    assert columns(repo, pin, "B.java") == {
        "commits": 1,
        "authors": 1,
        "age_days": 0,
        "churn_added": 6,
        "churn_deleted": 0,
    }
    assert columns(repo, pin, "A.java")["commits"] == 2


def test_history_pinned_below_head(tmp_path):
    repo = init_repo(tmp_path / "r")
    (repo / "A.java").write_text("class A {\n}\n")
    pin = commit_all(repo, "one", when="2020-01-01T00:00:00Z")
    (repo / "A.java").write_text(FIVE_LINES)
    commit_all(repo, "two", when="2020-02-01T00:00:00Z")
    cols = columns(repo, pin, "A.java")
    assert cols["commits"] == 1
    assert cols["churn_added"] == 2


def test_untracked_file(tmp_path):
    repo = init_repo(tmp_path / "r")
    (repo / "A.java").write_text("class A {\n}\n")
    pin = commit_all(repo, "one")
    (repo / "Loose.java").write_text("class Loose {\n}\n")
    histories = file_history(str(repo), pin, ["A.java", "Loose.java"])
    assert "Loose.java" not in histories
    assert list(histories) == ["A.java"]


def test_binary_numstat_dashes_count_zero(tmp_path):
    repo = init_repo(tmp_path / "r")
    (repo / "Blob.java").write_bytes(b"\x00\x01\x02cafe")
    pin = commit_all(repo, "binary")
    cols = columns(repo, pin, "Blob.java")
    assert (cols["commits"], cols["churn_added"], cols["churn_deleted"]) == (1, 0, 0)


def test_binary_edits_and_rename_count_commits_not_lines(tmp_path):
    repo = init_repo(tmp_path / "r")
    (repo / "Blob.java").write_bytes(b"\x00\x01\x02cafe\n" * 4)
    commit_all(repo, "binary", when="2020-01-01T00:00:00Z")
    (repo / "Blob.java").write_bytes(b"\x00\x01\x02cafe\n" * 5)
    commit_all(repo, "grow", when="2020-01-02T00:00:00Z", author=AUTHOR_B)
    git(repo, "mv", "Blob.java", "Moved.java")
    pin = commit_all(repo, "move", when="2020-01-03T00:00:00Z")
    assert columns(repo, pin, "Moved.java") == {
        "commits": 3,
        "authors": 2,
        "age_days": 2,
        "churn_added": 0,
        "churn_deleted": 0,
    }


def test_merge_commit_counts_for_no_file(tmp_path):
    repo = init_repo(tmp_path / "r")
    (repo / "M.java").write_text(FIVE_LINES)
    (repo / "E.java").write_text("class E {\n    int e;\n    int f;\n}\n")
    commit_all(repo, "base", when="2020-01-01T00:00:00Z")
    git(repo, "checkout", "-q", "-b", "side")
    (repo / "M.java").write_text(FIVE_LINES.replace("int a;", "int side;"))
    commit_all(repo, "side edit", when="2020-01-02T00:00:00Z", author=AUTHOR_B)
    git(repo, "checkout", "-q", "main")
    (repo / "M.java").write_text(FIVE_LINES.replace("int a;", "int main;"))
    commit_all(repo, "main edit", when="2020-01-03T00:00:00Z")
    merge = subprocess.run(
        ["git", "-C", str(repo), "merge", "--no-commit", "side"],
        capture_output=True,
        env=git_env("2020-01-04T00:00:00Z"),
    )
    assert merge.returncode != 0, "the merge must stop on the conflict"
    # conflict resolution, an evil edit and a file only the merge adds
    (repo / "M.java").write_text(FIVE_LINES.replace("int a;", "int both;"))
    (repo / "E.java").write_text("class E {\n    int e;\n    int f;\n    int g;\n}\n")
    (repo / "N.java").write_text("class N {\n}\n")
    pin = commit_all(repo, "merge side", when="2020-01-04T00:00:00Z")
    assert git(repo, "rev-list", "--parents", "-n", "1", pin).count(" ") == 2
    histories = file_history(str(repo), pin, ["E.java", "M.java", "N.java"])
    assert histories["M.java"] == {
        "commits": 3,
        "authors": 2,
        "age_days": 2,
        "churn_added": 5 + 1 + 1,
        "churn_deleted": 1 + 1,
    }
    assert histories["E.java"] == {
        "commits": 1,
        "authors": 1,
        "age_days": 0,
        "churn_added": 4,
        "churn_deleted": 0,
    }
    assert "N.java" not in histories


@pytest.mark.parametrize("name", ["Café.java", os.fsdecode(b"Caf\xe9.java")], ids=["utf-8", "latin-1-byte"])
def test_non_ascii_names_keep_their_history(tmp_path, name):
    repo = init_repo(tmp_path / "r")
    (repo / name).write_text(FIVE_LINES)
    pin = commit_all(repo, "add")
    # the pipeline asks with the names os.walk gives
    (walked,) = [n for n in os.listdir(repo) if n.endswith(".java")]
    assert walked == name
    assert columns(repo, pin, walked)["churn_added"] == 5


def test_bad_repo_raises(tmp_path):
    with pytest.raises(GitCommandError):
        file_history(str(tmp_path), "HEAD", ["A.java"])


# ---- brute force against one `git log --follow` per file -------------------


def follow_oracle(repo, pin, path):
    """One file's history from `git log --follow`, the per-file reader the
    one-pass walk replaced. It also follows copies and goes on through the
    commits of a name renamed away, so compare on histories with neither."""
    out = git(repo, "log", pin, "--follow", "--format=%ae\x1f%at", "--numstat", "--", path)
    emails, stamps, added, deleted = set(), [], 0, 0
    for line in out.split("\n"):
        if "\x1f" in line:
            email, stamp = line.split("\x1f")
            emails.add(email.lower())
            stamps.append(int(stamp))
        elif "\t" in line:
            plus, minus, _ = line.split("\t", 2)
            added += 0 if plus == "-" else int(plus)
            deleted += 0 if minus == "-" else int(minus)
    return {
        "commits": len(stamps),
        "authors": len(emails),
        "age_days": (max(stamps) - min(stamps)) // 86400,
        "churn_added": added,
        "churn_deleted": deleted,
    }


def random_history_repo(path, rng):
    """About 20 files and 40 commits: edits, adds, deletes, renames with and
    without edits, a three-step rename chain and a merged side branch.
    Every line is unique to its file, so no file is a near copy of another,
    and no name is used twice."""
    repo = init_repo(path)
    authors = [AUTHOR_A, AUTHOR_B, ("Cy Dev", "cy@example.com")]
    serial = iter(range(10**6))

    def fresh_lines(count):
        return [f"    int v{next(serial)} = {rng.randrange(10**9)};\n" for _ in range(count)]

    def write(name, lines):
        (repo / name).write_text("class X {\n" + "".join(lines) + "}\n")

    def read(name):
        return (repo / name).read_text().split("\n")[1:-2]

    def edit(name):
        lines = [line + "\n" for line in read(name)]
        spot = rng.randrange(len(lines))
        choice = rng.randrange(3)
        if choice == 0:
            lines[spot:spot] = fresh_lines(rng.randint(1, 2))
        elif choice == 1 and len(lines) > 6:
            del lines[spot]
        else:
            lines[spot] = fresh_lines(1)[0]
        write(name, lines)

    def when(day):
        return f"2020-{1 + day // 28:02d}-{1 + day % 28:02d}T12:00:00Z"

    def commit(day):
        return commit_all(repo, f"day {day}", when=when(day), author=rng.choice(authors))

    names = [f"F{i}.java" for i in range(16)]
    for name in names:
        write(name, fresh_lines(rng.randint(8, 14)))
    commit(0)
    side_files = names[:4]
    main_files = names[4:]
    chain = main_files.pop(0)

    def main_step(day):
        action = rng.randrange(10)
        if action == 0:
            name = f"Added{day}.java"
            write(name, fresh_lines(rng.randint(8, 12)))
            main_files.append(name)
        elif action == 1 and len(main_files) > 8:
            (repo / main_files.pop(rng.randrange(len(main_files)))).unlink()
        elif action in (2, 3):
            old = main_files.pop(rng.randrange(len(main_files)))
            new = f"Moved{day}.java"
            git(repo, "mv", old, new)
            if action == 3:
                edit(new)
            main_files.append(new)
        for name in rng.sample(main_files, rng.randint(1, 3)):
            edit(name)
        commit(day)

    for day in range(1, 15):
        main_step(day)
    git(repo, "checkout", "-q", "-b", "side")
    for day in range(15, 35, 4):
        edit(rng.choice(side_files))
        if day == 23:
            write("SideNew.java", fresh_lines(10))
        commit(day)
    git(repo, "checkout", "-q", "main")
    chain_names = iter(["ChainB.java", "ChainC.java", "ChainD.java"])
    for day in range(16, 36, 2):
        if day in (18, 24, 30):
            new = next(chain_names)
            git(repo, "mv", chain, new)
            chain = new
        if day == 26:
            edit(chain)
        main_step(day)
    git(repo, "merge", "-q", "--no-ff", "-m", "merge side", "side", when=when(36))
    for day in range(37, 46):
        if day == 40:
            git(repo, "mv", side_files[0], "SideMoved.java")
            edit("SideMoved.java")
        main_step(day)
    return repo, git(repo, "rev-parse", "HEAD")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_pass_matches_follow_on_random_history(tmp_path, seed):
    repo, pin = random_history_repo(tmp_path / "r", random.Random(seed))
    paths = git(repo, "ls-tree", "-r", "--name-only", pin).split("\n")
    assert len(paths) >= 15
    assert "ChainD.java" in paths and "SideMoved.java" in paths
    histories = file_history(str(repo), pin, paths)
    assert sorted(histories) == sorted(paths)
    for path in paths:
        assert histories[path] == follow_oracle(repo, pin, path), path
