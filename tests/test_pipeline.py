"""End-to-end pipeline runs over replay directories and local git remotes."""

from __future__ import annotations

import csv
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import zipfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cam
import cam.javasrc.parser
import cam.pipeline
from cam.cli import main
from cam.dataset import read_csv_rows, rows_to_csv_bytes, write_json_atomic
from cam.metrics.schema import COLUMNS, HEADER
from cam.pipeline import STAGES, ConfigError, Pipeline, PipelineConfig
from cam.repos import DiscoveryCriteria, RepoSpec
from conftest import build_replay_dir, commit_all, git, init_repo, single_commit_repo

MAIN_JAVA = """\
class Main {
  int total;

  int bump(int step) {
    if (step > 0) {
      total += step;
    }
    return total;
  }
}
"""

PAIR_JAVA = """\
class First {
  Second buddy;
}

class Second {
  int weight;
}
"""

APP_JAVA = """\
class App {
  void run() {
  }
}
"""

ALPHA_FILES = {
    "src/Main.java": MAIN_JAVA,
    "src/util/Pair.java": PAIR_JAVA,
    "src/test/Sample.java": "class Sample {}\n",
    "src/Broken.java": "record Broken(int width) {}\n",
    "notes.txt": "not java\n",
}

BETA_FILES = {
    "app/App.java": APP_JAVA,
    "README.md": "docs\n",
}


def make_world(tmp_path: Path, beta_sha: str | None = None) -> tuple[Path, Path]:
    """Two local remotes plus a replay directory for default criteria."""
    alpha, alpha_sha = single_commit_repo(tmp_path / "remotes" / "alpha", ALPHA_FILES)
    beta, real_beta_sha = single_commit_repo(tmp_path / "remotes" / "beta", BETA_FILES)
    replay = build_replay_dir(
        tmp_path / "replay",
        DiscoveryCriteria(),
        [
            ("alpha/lib", 200, 400, alpha, alpha_sha),
            ("beta/app", 300, 500, beta, beta_sha or real_beta_sha),
        ],
    )
    return replay, tmp_path / "work"


def run_cli(workdir: Path, replay: Path, *extra: str) -> int:
    return main(
        [
            "run",
            "--workdir",
            str(workdir),
            "--replay",
            str(replay),
            "--reproducible",
            "--quiet",
            *extra,
        ]
    )


# ---- configuration ------------------------------------------------------


def test_config_rejects_unknown_stage(tmp_path):
    with pytest.raises(ConfigError):
        PipelineConfig(workdir=tmp_path, stages=("clone", "fly"))


def test_config_rejects_empty_stages(tmp_path):
    with pytest.raises(ConfigError):
        PipelineConfig(workdir=tmp_path, stages=())


def test_config_rejects_nonpositive_jobs(tmp_path):
    with pytest.raises(ConfigError):
        PipelineConfig(workdir=tmp_path, jobs=0)


def test_repo_stages_without_pins(tmp_path):
    pipeline = Pipeline(PipelineConfig(workdir=tmp_path / "w", stages=("clone",)))
    with pytest.raises(ConfigError, match="pins.json not found"):
        pipeline.run()


# ---- full run -----------------------------------------------------------


def test_full_run_builds_dataset(tmp_path):
    replay, work = make_world(tmp_path)
    assert run_cli(work, replay) == 0

    with zipfile.ZipFile(work / "dataset.zip") as archive:
        assert archive.namelist() == [
            "data/all.csv",
            "data/alpha__lib.csv",
            "data/beta__app.csv",
            "manifest.json",
            "schema.md",
        ]
        all_csv = archive.read("data/all.csv").decode("utf-8")
        manifest = json.loads(archive.read("manifest.json"))

    lines = all_csv.split("\n")
    assert lines[0] == ",".join(HEADER)
    body = [line.split(",")[:3] for line in lines[1:] if line]
    assert body == [
        ["alpha/lib", "src/Main.java", "Main"],
        ["alpha/lib", "src/util/Pair.java", "First"],
        ["alpha/lib", "src/util/Pair.java", "Second"],
        ["beta/app", "app/App.java", "App"],
    ]

    assert manifest["generated_at"] == "2020-01-04T10:00:00Z"
    assert manifest["reproducible"] is True
    assert manifest["parse_rejects"] == 1
    assert manifest["discovery"] == {"cap_exceeded": False, "total_available": 2}
    assert [entry["full_name"] for entry in manifest["repos"]] == ["alpha/lib", "beta/app"]
    alpha_entry, beta_entry = manifest["repos"]
    assert alpha_entry["status"] == "ok"
    assert alpha_entry["failure"] is None
    assert alpha_entry["classes"] == 3
    assert alpha_entry["filter_stats"]["total"] == 5
    assert alpha_entry["filter_stats"]["kept"] == 2
    assert alpha_entry["filter_stats"]["rejected"]["test-file"] == 1
    assert alpha_entry["filter_stats"]["rejected"]["unparseable"] == 1
    assert beta_entry["classes"] == 1
    assert manifest["filter_stats"]["total"] == 7
    assert manifest["filter_stats"]["kept"] == 3
    assert manifest["filter_stats"]["rejected"]["not-java-ext"] == 2

    state = json.loads((work / "state" / "alpha__lib.json").read_text(encoding="utf-8"))
    assert state["stages"] == {"clone": "done", "measure": "done"}
    assert state["failure"] is None


def test_each_file_is_parsed_once(tmp_path, monkeypatch):
    calls = []
    real_tokenize = cam.javasrc.parser.tokenize

    def counting_tokenize(source):
        calls.append(source)
        return real_tokenize(source)

    monkeypatch.setattr(cam.javasrc.parser, "tokenize", counting_tokenize)
    replay, work = make_world(tmp_path)
    assert run_cli(work, replay) == 0
    stats = json.loads((work / "out" / "manifest.json").read_text(encoding="utf-8"))["filter_stats"]
    assert len(calls) == stats["kept"] + stats["rejected"]["unparseable"]


def test_each_repository_starts_one_git_log(tmp_path, monkeypatch):
    logs = []
    real_run = subprocess.run

    def counting_run(args, *rest, **kwargs):
        if args[:1] == ["git"] and "log" in args:
            logs.append(args[args.index("-C") + 1])
        return real_run(args, *rest, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    replay, work = make_world(tmp_path)
    assert run_cli(work, replay) == 0
    repos = json.loads((work / "out" / "manifest.json").read_text(encoding="utf-8"))["repos"]
    measured = [str(work / "github" / entry["full_name"]) for entry in repos if entry["status"] == "ok"]
    assert len(measured) == 2
    assert sorted(logs) == sorted(measured)


GIT_STUB = """#!{python}
import json, os, sys
try:
    stdin = "null" if os.path.samestat(os.fstat(0), os.stat(os.devnull)) else "input"
except OSError:
    stdin = "closed"
with open({log!r}, "a", encoding="utf-8") as log:
    prompt = [os.environ.get(name) for name in ("GIT_TERMINAL_PROMPT", "GIT_ASKPASS")]
    log.write(json.dumps([sys.argv[1:], prompt, stdin]) + "\\n")
os.execv({git!r}, [{git!r}, *sys.argv[1:]])
"""


def test_every_git_child_runs_without_prompts_or_input(tmp_path, monkeypatch):
    """A stub `git` first on PATH records how each git child was started,
    then runs the real git."""
    import shutil

    replay, work = make_world(tmp_path)
    log = tmp_path / "git.log"
    stub = tmp_path / "bin" / "git"
    stub.parent.mkdir()
    stub.write_text(GIT_STUB.format(python=sys.executable, log=str(log), git=shutil.which("git")), encoding="utf-8")
    stub.chmod(0o755)
    monkeypatch.setenv("PATH", f"{stub.parent}{os.pathsep}{os.environ['PATH']}")
    monkeypatch.delenv("GIT_TERMINAL_PROMPT", raising=False)
    # A helper that would open a prompt window; an empty GIT_ASKPASS skips it.
    monkeypatch.setenv("GIT_ASKPASS", "/usr/bin/ssh-askpass")
    monkeypatch.setenv("SSH_ASKPASS", "/usr/bin/ssh-askpass")
    # cam's own stdin is a pipe, so a child that inherits it shows.
    read_end, write_end = os.pipe()
    saved_stdin = os.dup(0)
    os.dup2(read_end, 0)
    try:
        assert run_cli(work, replay, "--jobs", "1") == 0
    finally:
        os.dup2(saved_stdin, 0)
        for fd in (saved_stdin, read_end, write_end):
            os.close(fd)

    calls = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    seen = {}
    for argv, prompt, stdin in calls:
        if argv[0] == "-C":
            argv = argv[2:]
        seen.setdefault(argv[0], set()).add((*prompt, stdin))
    assert seen == {
        "clone": {("0", "", "null")},
        "rev-parse": {("0", "", "null")},
        "ls-tree": {("0", "", "null")},
        "log": {("0", "", "null")},
        "cat-file": {("0", "", "input")},
    }
    assert len(calls) == 2 * 5


def test_rows_carry_git_history_columns(tmp_path):
    replay, work = make_world(tmp_path)
    assert run_cli(work, replay) == 0
    header, row = (work / "rows" / "beta__app.csv").read_text(encoding="utf-8").split("\n")[:2]
    columns = dict(zip(header.split(","), row.split(",")))
    assert columns["commits"] == "1"
    assert columns["authors"] == "1"
    assert columns["age_days"] == "0"
    assert int(columns["churn_added"]) > 0
    assert columns["churn_deleted"] == "0"


def test_reruns_are_byte_identical(tmp_path):
    replay, _ = make_world(tmp_path)
    work_a = tmp_path / "work_a"
    work_b = tmp_path / "work_b"
    assert run_cli(work_a, replay, "--jobs", "1") == 0
    assert run_cli(work_b, replay, "--jobs", "8") == 0
    assert (work_a / "dataset.zip").read_bytes() == (work_b / "dataset.zip").read_bytes()


# ---- incremental state --------------------------------------------------


def test_second_run_skips_finished_stages(tmp_path, capsys):
    replay, work = make_world(tmp_path)
    assert run_cli(work, replay) == 0
    capsys.readouterr()

    assert main(["run", "--workdir", str(work), "--replay", str(replay), "--reproducible"]) == 0
    lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert ("-", "discover", "skip") in {(f[1], f[2], f[3]) for f in lines}
    repo_lines = [f for f in lines if f[1] != "-"]
    assert repo_lines == []


def test_force_reruns_finished_stages(tmp_path, capsys):
    replay, work = make_world(tmp_path)
    assert run_cli(work, replay) == 0
    capsys.readouterr()

    args = ["run", "--workdir", str(work), "--replay", str(replay), "--reproducible", "--force"]
    assert main(args) == 0
    statuses = {line.split("\t")[3] for line in capsys.readouterr().out.splitlines()}
    assert "skip" not in statuses


def test_stale_filter_failure_clears_on_measure(tmp_path):
    replay, work = make_world(tmp_path)
    assert main(["discover", "--workdir", str(work), "--replay", str(replay), "--quiet"]) == 0
    state_path = work / "state" / "alpha__lib.json"
    state_path.parent.mkdir(parents=True)
    state_path.write_text(
        json.dumps({"stages": {"filter": "failed"}, "failure": "missing-clone"}), encoding="utf-8"
    )
    assert run_cli(work, replay) == 0

    manifest = json.loads((work / "out" / "manifest.json").read_text(encoding="utf-8"))
    alpha_entry = manifest["repos"][0]
    assert alpha_entry["status"] == "ok"
    assert alpha_entry["failure"] is None


def test_untracked_file_is_skipped_not_fatal(tmp_path):
    replay, work = make_world(tmp_path)
    assert run_cli(work, replay) == 0
    rows_path = work / "rows" / "beta__app.csv"
    tracked_only = rows_path.read_bytes()

    # Only a merge commit adds Loose.java, and `git log` shows a merge no
    # diff, so it has no history. Were its class in the graph, App would
    # gain a child and a coupling.
    beta = tmp_path / "remotes" / "beta"
    git(beta, "checkout", "-q", "-b", "side")
    git(beta, "commit", "-q", "--allow-empty", "-m", "side")
    git(beta, "checkout", "-q", "main")
    git(beta, "merge", "-q", "--no-ff", "--no-commit", "side")
    (beta / "app" / "Loose.java").write_text("class Loose extends App {\n  App peer;\n}\n", encoding="utf-8")
    git(beta, "add", "app/Loose.java")
    git(beta, "commit", "-q", "-m", "merge")
    pins = json.loads((work / "pins.json").read_text(encoding="utf-8"))
    (beta_pin,) = [entry for entry in pins["repos"] if entry["full_name"] == "beta/app"]
    beta_pin["head_commit"] = git(beta, "rev-parse", "HEAD")
    write_json_atomic(work / "pins.json", pins)
    args = ["run", "--workdir", str(work), "--replay", str(replay), "--reproducible", "--quiet"]
    assert main(args + ["--stages", "clone,measure,pack", "--force"]) == 0

    meta = json.loads((work / "rows" / "beta__app.meta.json").read_text(encoding="utf-8"))
    assert meta["untracked"] == ["app/Loose.java"]
    assert meta["classes"] == 1
    (app,) = read_csv_rows(rows_path)
    assert (app["class_name"], app["cbo"], app["noc"], app["dit"]) == ("App", "0", "0", "0")
    assert rows_path.read_bytes() == tracked_only


def test_lone_carriage_return_ends_a_line(tmp_path):
    files = {
        "src/Doubled.java": "class Doubled {\r\r\n  int a;\r\r\n}\r\n",
        "src/Hidden.java": "class Hidden {\n  int a; // note\r  int b;\n}\n",
    }
    remote, sha = single_commit_repo(tmp_path / "remotes" / "crlf", files)
    replay = build_replay_dir(
        tmp_path / "replay", DiscoveryCriteria(), [("crlf/lib", 200, 400, remote, sha)]
    )
    work = tmp_path / "work"
    assert run_cli(work, replay) == 0

    rows = {row["class_name"]: row for row in read_csv_rows(work / "rows" / "crlf__lib.csv")}
    picked = {
        name: [row[col] for col in ("loc", "blanks", "comments", "attributes")]
        for name, row in rows.items()
    }
    assert picked == {"Doubled": ["5", "2", "0", "1"], "Hidden": ["4", "0", "1", "2"]}


# ---- failure handling ---------------------------------------------------


def test_unreachable_pin_marks_repo_failed(tmp_path):
    replay, work = make_world(tmp_path, beta_sha="0" * 40)
    assert run_cli(work, replay) == 0

    state = json.loads((work / "state" / "beta__app.json").read_text(encoding="utf-8"))
    assert state["stages"]["clone"] == "failed"
    assert state["failure"] == "pin-unreachable"

    manifest = json.loads((work / "out" / "manifest.json").read_text(encoding="utf-8"))
    beta_entry = next(e for e in manifest["repos"] if e["full_name"] == "beta/app")
    assert beta_entry["status"] == "failed"
    assert beta_entry["failure"] == "pin-unreachable"
    assert beta_entry["classes"] == 0
    assert beta_entry["filter_stats"]["total"] == 0

    with zipfile.ZipFile(work / "dataset.zip") as archive:
        names = archive.namelist()
    assert "data/alpha__lib.csv" in names
    assert "data/beta__app.csv" not in names


def test_exit_one_when_every_repo_fails(tmp_path):
    alpha, _ = single_commit_repo(tmp_path / "remotes" / "alpha", ALPHA_FILES)
    replay = build_replay_dir(
        tmp_path / "replay",
        DiscoveryCriteria(),
        [("alpha/lib", 200, 400, alpha, "0" * 40)],
    )
    assert run_cli(tmp_path / "work", replay) == 1


def test_internal_error_fails_only_its_repo(tmp_path, monkeypatch):
    real_measure_repo = cam.pipeline.measure_repo

    def poisoned_measure_repo(repo, files, git_columns):
        if repo == "alpha/lib":
            raise RuntimeError("poison")
        return real_measure_repo(repo, files, git_columns)

    monkeypatch.setattr(cam.pipeline, "measure_repo", poisoned_measure_repo)
    alpha, alpha_sha = single_commit_repo(tmp_path / "remotes" / "alpha", {"src/Main.java": MAIN_JAVA})
    beta, beta_sha = single_commit_repo(tmp_path / "remotes" / "beta", BETA_FILES)
    replay = build_replay_dir(
        tmp_path / "replay",
        DiscoveryCriteria(),
        [("alpha/lib", 200, 400, alpha, alpha_sha), ("beta/app", 300, 500, beta, beta_sha)],
    )
    work = tmp_path / "work"
    assert run_cli(work, replay) == 0

    state = json.loads((work / "state" / "alpha__lib.json").read_text(encoding="utf-8"))
    assert state["stages"] == {"clone": "done", "measure": "failed"}
    with zipfile.ZipFile(work / "dataset.zip") as archive:
        names = archive.namelist()
        manifest = json.loads(archive.read("manifest.json"))
        all_csv = archive.read("data/all.csv").decode("utf-8")
    alpha_entry, beta_entry = manifest["repos"]
    assert alpha_entry["status"] == "failed"
    assert alpha_entry["failure"] == "internal-error:RuntimeError"
    assert beta_entry["status"] == "ok"
    assert "data/beta__app.csv" in names
    assert "data/alpha__lib.csv" not in names
    assert [line.split(",")[:3] for line in all_csv.split("\n")[1:] if line] == [
        ["beta/app", "app/App.java", "App"]
    ]


def test_a_missing_object_fails_only_its_repo(tmp_path):
    replay, work = make_world(tmp_path)
    assert run_cli(work, replay, "--stages", "discover,clone") == 0
    clone = work / "github" / "alpha" / "lib"
    blob = git(clone, "rev-parse", "HEAD:src/Main.java")
    (clone / "objects" / blob[:2] / blob[2:]).unlink()
    assert run_cli(work, replay, "--stages", "measure,pack") == 0

    with zipfile.ZipFile(work / "dataset.zip") as archive:
        names = archive.namelist()
        manifest = json.loads(archive.read("manifest.json"))
    assert [(e["full_name"], e["status"], e["failure"]) for e in manifest["repos"]] == [
        ("alpha/lib", "failed", "internal-error:GitCommandError"),
        ("beta/app", "ok", None),
    ]
    assert "data/beta__app.csv" in names
    assert "data/alpha__lib.csv" not in names


def test_clones_with_a_worktree_measure_like_bare_ones(tmp_path):
    """A work directory whose clones were checked out at the pin measures
    to the same bytes as bare clones; what the worktree holds is not read."""
    replay, bare_work = make_world(tmp_path)
    assert run_cli(bare_work, replay) == 0
    work = tmp_path / "checkouts"
    assert run_cli(work, replay, "--stages", "discover") == 0
    remotes = json.loads((replay / "remotes.json").read_text(encoding="utf-8"))
    for spec in json.loads((work / "pins.json").read_text(encoding="utf-8"))["repos"]:
        checkout = work / "github" / spec["full_name"]
        checkout.parent.mkdir(parents=True, exist_ok=True)
        git(tmp_path, "clone", "-q", remotes[spec["full_name"]], str(checkout))
        git(checkout, "checkout", "-q", spec["head_commit"])
        (checkout / "Stray.java").write_text("class Stray {}\n", encoding="utf-8")
        key = spec["full_name"].replace("/", "__")
        write_json_atomic(work / "state" / f"{key}.json", {"stages": {"clone": "done"}, "failure": None})
    assert run_cli(work, replay, "--stages", "measure,pack") == 0

    outputs = sorted(path.relative_to(bare_work) for sub in ("rows", "filtered") for path in (bare_work / sub).iterdir())
    assert len(outputs) == 6
    for rel in outputs:
        assert (work / rel).read_bytes() == (bare_work / rel).read_bytes()


def test_too_deep_nesting_is_unparseable_not_a_failure(tmp_path):
    deep = "class Deep {\n  int f(int x) {\n    return " + "(\n" * 400 + "x" + "\n)" * 400 + ";\n  }\n}\n"
    alpha, alpha_sha = single_commit_repo(
        tmp_path / "remotes" / "alpha", {"src/Main.java": MAIN_JAVA, "src/Deep.java": deep}
    )
    replay = build_replay_dir(
        tmp_path / "replay", DiscoveryCriteria(), [("alpha/lib", 200, 400, alpha, alpha_sha)]
    )
    work = tmp_path / "work"
    assert run_cli(work, replay) == 0

    filtered = json.loads((work / "filtered" / "alpha__lib.json").read_text(encoding="utf-8"))
    assert filtered["verdicts"] == [["src/Deep.java", "unparseable"], ["src/Main.java", None]]
    with zipfile.ZipFile(work / "dataset.zip") as archive:
        manifest = json.loads(archive.read("manifest.json"))
        all_csv = archive.read("data/all.csv").decode("utf-8")
    assert [(e["status"], e["failure"]) for e in manifest["repos"]] == [("ok", None)]
    assert [line.split(",")[:3] for line in all_csv.split("\n")[1:] if line] == [
        ["alpha/lib", "src/Main.java", "Main"]
    ]


def test_measure_only_run_keeps_a_failed_clones_reason(tmp_path, capsys):
    replay, work = make_world(tmp_path, beta_sha="0" * 40)
    assert run_cli(work, replay) == 0
    assert not (work / "github" / "beta" / "app").exists()
    capsys.readouterr()

    assert run_cli(work, replay, "--stages", "measure,pack") == 0
    assert "Traceback" not in capsys.readouterr().err
    state = json.loads((work / "state" / "beta__app.json").read_text(encoding="utf-8"))
    assert (state["stages"]["clone"], state["failure"]) == ("failed", "pin-unreachable")
    manifest = json.loads((work / "out" / "manifest.json").read_text(encoding="utf-8"))
    beta_entry = next(e for e in manifest["repos"] if e["full_name"] == "beta/app")
    assert (beta_entry["status"], beta_entry["failure"], beta_entry["classes"]) == ("failed", "pin-unreachable", 0)


def test_measure_without_clone_fails(tmp_path, capsys):
    replay, work = make_world(tmp_path)
    assert main(["discover", "--workdir", str(work), "--replay", str(replay), "--quiet"]) == 0
    assert main(["measure", "--workdir", str(work), "--quiet"]) == 1
    state = json.loads((work / "state" / "alpha__lib.json").read_text(encoding="utf-8"))
    assert state["stages"]["measure"] == "failed"
    assert state["failure"] == "missing-clone"


def test_pack_alone_after_measure_matches_run(tmp_path, capsys):
    replay, work = make_world(tmp_path)
    for stage in ("discover", "clone", "measure", "pack"):
        assert main([stage, "--workdir", str(work), "--replay", str(replay), "--reproducible", "--quiet"]) == 0
    assert run_cli(tmp_path / "whole", replay) == 0
    assert (work / "dataset.zip").read_bytes() == (tmp_path / "whole" / "dataset.zip").read_bytes()
    assert sorted(path.name for path in (work / "out").iterdir()) == ["manifest.json", "schema.md"]

    assert run_cli(work, replay, "--stages", "measure,aggregate,pack") == 2
    assert "unknown stages: aggregate" in capsys.readouterr().err


def test_pack_reads_pins_once(tmp_path, monkeypatch):
    replay, work = make_world(tmp_path)
    assert run_cli(work, replay) == 0
    reads = []
    real_read_text = Path.read_text

    def counting_read_text(path, *args, **kwargs):
        reads.append(path.name)
        return real_read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    assert main(["pack", "--workdir", str(work), "--replay", str(replay), "--reproducible", "--quiet"]) == 0
    assert reads.count("pins.json") == 1
    manifest = json.loads(real_read_text(work / "out" / "manifest.json", encoding="utf-8"))
    assert manifest["discovery"] == {"cap_exceeded": False, "total_available": 2}


def test_manifest_criteria_are_the_ones_the_pins_were_discovered_with(tmp_path):
    replay, work = make_world(tmp_path)
    common = ["--workdir", str(work), "--replay", str(replay), "--reproducible", "--quiet"]
    assert main(["discover", *common, "--max-repos", "1"]) == 0
    assert main(["run", *common, "--stages", "clone,measure,pack"]) == 0
    pins = json.loads((work / "pins.json").read_text(encoding="utf-8"))
    manifest = json.loads((work / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert pins["criteria"]["max_repos"] == 1
    assert manifest["criteria"] == pins["criteria"]
    assert [e["full_name"] for e in manifest["repos"]] == ["beta/app"]
    assert manifest["discovery"]["cap_exceeded"] is True


def test_pack_refuses_rows_under_another_header(tmp_path, capsys):
    replay, work = make_world(tmp_path)
    assert run_cli(work, replay) == 0
    rows = work / "rows" / "beta__app.csv"
    rows.write_bytes(b"repo,path,class_name\n" + rows.read_bytes().split(b"\n", 1)[1])
    assert main(["pack", "--workdir", str(work), "--quiet"]) == 2
    assert "stale-rows:beta__app" in capsys.readouterr().err


def test_forced_rerun_drops_a_failed_repositorys_old_results(tmp_path):
    replay, work = make_world(tmp_path)
    assert run_cli(work, replay) == 0
    remotes = json.loads((replay / "remotes.json").read_text(encoding="utf-8"))
    remotes["alpha/lib"] = str(tmp_path / "remotes" / "gone")
    (replay / "remotes.json").write_text(json.dumps(remotes), encoding="utf-8")
    assert run_cli(work, replay, "--force") == 0

    with zipfile.ZipFile(work / "dataset.zip") as archive:
        names = archive.namelist()
        manifest = json.loads(archive.read("manifest.json"))
        all_csv = archive.read("data/all.csv").decode("utf-8")
    alpha_entry = manifest["repos"][0]
    assert (alpha_entry["status"], alpha_entry["failure"], alpha_entry["classes"]) == ("failed", "clone-error", 0)
    assert alpha_entry["filter_stats"]["total"] == 0
    assert "data/alpha__lib.csv" not in names
    assert [line.split(",")[:3] for line in all_csv.split("\n")[1:] if line] == [
        ["beta/app", "app/App.java", "App"]
    ]


# File contents by kind: bytes (a class body takes its name from {}), the
# expected verdict, and whether the file holds one class.
_CONTENTS = {
    "class": (b"class {} {{ int f; }}\n", None, True),
    "empty": (b"", None, False),
    "bom": (b"\xef\xbb\xbfclass Bom {}\n", "unparseable", False),
    "broken": (b"class {", "unparseable", False),
    "latin-1": (b'class L { String s = "\xe9"; }\n', "undecodable", False),
}
# No 't', 'e' or 's', so no drawn name trips the test-file rules.
_NAME_TEXT = st.text("abxAB\n\t,\"' \u00e9", min_size=1, max_size=5).map(str.encode)
_SEGMENT = st.one_of(_NAME_TEXT, _NAME_TEXT.map(lambda name: name + b"\xe9"))
_PATH = st.builds(
    lambda dirs, stem, ext: b"/".join([*dirs, stem + ext]),
    st.lists(st.one_of(_SEGMENT, _SEGMENT.map(lambda name: name + b".java")), max_size=2),
    _SEGMENT,
    st.sampled_from([b".java", b".txt"]),
)


@st.composite
def odd_trees(draw) -> dict[bytes, str]:
    """Relative file paths mapped to a content kind; a name may have a twin
    that differs only in case, and no file sits where a directory is."""
    files = draw(st.dictionaries(_PATH, st.sampled_from(sorted(_CONTENTS)), min_size=1, max_size=6))
    if draw(st.booleans()):
        path = sorted(files)[0]
        files.setdefault(path.swapcase(), files[path])
    dirs = {path[:k] for path in files for k in range(len(path)) if path[k : k + 1] == b"/"}
    return {path: kind for path, kind in files.items() if path not in dirs}


def expected_verdict(path: bytes, kind: str) -> str | None:
    try:
        path.decode("utf-8")
    except UnicodeDecodeError:
        return "undecodable"
    if not path.endswith(b".java"):
        return "not-java-ext"
    return _CONTENTS[kind][1]


@example(
    {
        b"src/New\nLine.java": "class",
        b"src/Tab\tName.java": "class",
        b"src/Com,ma.java": "class",
        b'src/Qu"ote.java': "class",
        b"src/Bom.java": "bom",
        b"src/Empty.java": "empty",
        b"src/X.java/Inner.java": "class",
        b"src/Case.java": "class",
        b"src/case.java": "class",
        b"src/Caf\xe9.java": "class",
        b"notes.txt": "broken",
    }
)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(odd_trees())
def test_odd_file_names_end_to_end(files):
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        remote = init_repo(tmp_path / "remotes" / "odd")
        classes = {}
        for n, (rel, kind) in enumerate(sorted(files.items())):
            data, _reason, has_class = _CONTENTS[kind]
            if has_class:
                classes[rel] = f"K{n}"
            target = os.path.join(os.fsencode(remote), rel)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            with open(target, "wb") as handle:
                handle.write(data.replace(b"{}", classes.get(rel, "").encode(), 1) if has_class else data)
        os.symlink("Missing.java", remote / "Link.java")
        sha = commit_all(remote, "odd names")
        replay = build_replay_dir(tmp_path / "replay", DiscoveryCriteria(), [("odd/lib", 200, 400, remote, sha)])
        work = tmp_path / "work"
        assert run_cli(work, replay) == 0

        verdicts = json.loads((work / "filtered" / "odd__lib.json").read_text(encoding="utf-8"))["verdicts"]
        with zipfile.ZipFile(work / "dataset.zip") as archive:
            manifest = json.loads(archive.read("manifest.json"))
            tables = [
                list(csv.reader(io.StringIO(archive.read(name).decode("utf-8"), newline="")))
                for name in ("data/all.csv", "data/odd__lib.csv")
            ]

    # Verdicts come in the order of the walk, which sorts the decoded names.
    ordered = sorted(files, key=os.fsdecode)
    spelled = {rel: rel.replace(b"\\", b"\\\\").decode("utf-8", "backslashreplace") for rel in ordered}
    assert verdicts == [[spelled[rel], expected_verdict(rel, files[rel])] for rel in ordered]
    kept = [(rel.decode(), name) for rel, name in sorted(classes.items()) if expected_verdict(rel, files[rel]) is None]
    assert [(e["status"], e["classes"]) for e in manifest["repos"]] == [("ok", len(kept))]
    for table in tables:
        assert table[0] == list(HEADER)
        assert all(len(row) == len(HEADER) for row in table)
        assert [(row[1], row[2]) for row in table[1:]] == sorted(kept)


def test_submodule_gitlinks_get_no_verdict(tmp_path):
    remote = init_repo(tmp_path / "remotes" / "sub")
    (remote / "src").mkdir()
    (remote / "src" / "Main.java").write_text(MAIN_JAVA, encoding="utf-8")
    first = commit_all(remote, "main")
    # Gitlinks (mode 160000) as an uninitialised submodule leaves them: one
    # named like a Java file, one like a directory of sources.
    git(remote, "update-index", "--add", "--cacheinfo", f"160000,{first},vendor/Dep.java")
    git(remote, "update-index", "--add", "--cacheinfo", f"160000,{first},vendor/lib")
    git(remote, "commit", "-q", "-m", "gitlinks")
    sha = git(remote, "rev-parse", "HEAD")
    entries = [line.split(" ", 1)[0] + " " + line.split("\t", 1)[1] for line in git(remote, "ls-tree", "-r", sha).split("\n")]
    assert entries == ["100644 src/Main.java", "160000 vendor/Dep.java", "160000 vendor/lib"]
    replay = build_replay_dir(tmp_path / "replay", DiscoveryCriteria(), [("sub/lib", 200, 400, remote, sha)])
    work = tmp_path / "work"
    assert run_cli(work, replay) == 0

    filtered = json.loads((work / "filtered" / "sub__lib.json").read_text(encoding="utf-8"))
    assert filtered["verdicts"] == [["src/Main.java", None]]
    assert (filtered["stats"]["total"], filtered["stats"]["kept"]) == (1, 1)
    manifest = json.loads((work / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert [(e["status"], e["failure"], e["classes"]) for e in manifest["repos"]] == [("ok", None, 1)]


@pytest.mark.parametrize("rows_per_repo", [100, 1000])
def test_pack_memory_does_not_grow_with_rows(tmp_path, rows_per_repo):
    work = tmp_path / "work"
    specs = [RepoSpec(f"owner{i:02d}/lib", 2000, 400, "main", f"{i:040x}", "2020-01-04T10:00:00Z") for i in range(20)]
    write_json_atomic(work / "pins.json", {"repos": [spec.to_dict() for spec in specs]})
    for spec in specs:
        rows = [
            {"repo": spec.full_name, "path": f"src/C{n}.java", "class_name": f"C{n}", **{c.name: n for c in COLUMNS}}
            for n in range(rows_per_repo)
        ]
        (work / "rows").mkdir(exist_ok=True)
        (work / "rows" / f"{spec.key}.csv").write_bytes(rows_to_csv_bytes(rows))
        write_json_atomic(work / "state" / f"{spec.key}.json", {"stages": {"measure": "done"}, "failure": None})

    tracemalloc.start()
    try:
        assert main(["pack", "--workdir", str(work), "--reproducible", "--quiet"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with zipfile.ZipFile(work / "dataset.zip") as archive:
        assert archive.read("data/all.csv").count(b"\n") == 1 + 20 * rows_per_repo
    assert peak < 2 << 20


GEN_SOURCES = sorted((Path(__file__).parent / "data").glob("Gen*.java"))


def cloned_workdir(work: Path, files: dict[str, str | bytes]) -> Path:
    """A work directory whose one repository, of *files*, is cloned."""
    _, sha = single_commit_repo(work / "github" / "gen" / "lib", files)
    spec = RepoSpec("gen/lib", 200, 400, "main", sha, "2020-01-04T10:00:00Z")
    write_json_atomic(work / "pins.json", {"repos": [spec.to_dict()]})
    write_json_atomic(work / "state" / f"{spec.key}.json", {"stages": {"clone": "done"}, "failure": None})
    return work


def measure_stage_peak(root: Path, files: dict[str, str | bytes]) -> tuple[int, dict]:
    """The tracemalloc peak of the measure stage over one cloned repository
    of *files*, and the measured repository's `rows/<key>.meta.json`."""
    work = cloned_workdir(root / "work", files)
    # A first measure run imports and compiles what the stage loads on
    # first use (the measure stack and `locale` on Python 3.10), which
    # would set the peak; it runs outside the window.
    assert main(["measure", "--workdir", str(cloned_workdir(root / "warm", {"W.java": "class W {}\n"})), "--quiet"]) == 0

    tracemalloc.start()
    try:
        assert main(["measure", "--workdir", str(work), "--quiet"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, json.loads((work / "rows" / "gen__lib.meta.json").read_text(encoding="utf-8"))


def gen_files(count: int) -> dict[str, str]:
    """*count* renamed copies of the Gen*.java classes."""
    files = {}
    for n in range(count):
        source = GEN_SOURCES[n % len(GEN_SOURCES)]
        # The class and its constructors take the new name together.
        files[f"src/C{n:04d}.java"] = source.read_text(encoding="utf-8").replace(source.stem, f"C{n:04d}")
    return files


def test_measure_memory_does_not_grow_with_kept_files(tmp_path):
    """Each kept file is measured as it is parsed and its parse dropped, and
    its rows are kept as CSV text, so what stays per file is that text and
    its graph stubs. The bound is twice the 1.2 KiB this reads on CPython
    3.11; with dict rows and set stubs it read 4.4 KiB."""
    (small, small_meta), (large, large_meta) = (measure_stage_peak(tmp_path / f"r{n}", gen_files(n)) for n in (30, 130))
    assert [(meta["classes"], meta["untracked"]) for meta in (small_meta, large_meta)] == [(30, []), (130, [])]
    per_file = (large - small) / 100
    print(f"measure stage peak: {small / 1024:.0f} KiB, {large / 1024:.0f} KiB; {per_file / 1024:.1f} KiB per kept file")
    assert per_file < 2.4 * 1024


def test_measure_stage_reads_no_blob_that_its_name_rejects(tmp_path):
    """A 16 MiB jar is rejected by its name, so its bytes are never read,
    and a kept file's bytes are read without a second copy."""
    peak, meta = measure_stage_peak(tmp_path, {"lib/big.jar": os.urandom(16 << 20), "src/Main.java": MAIN_JAVA})
    assert meta["classes"] == 1
    print(f"measure stage peak: {peak / 1024:.0f} KiB")
    assert peak < 2 << 20


# ---- garbage collection -------------------------------------------------


def test_run_restores_the_callers_gc_thresholds(tmp_path):
    replay, work = make_world(tmp_path)
    before = gc.get_threshold()
    gc.set_threshold(123, 4, 5)
    try:
        assert run_cli(work, replay) == 0
        assert gc.get_threshold() == (123, 4, 5)
        assert main(["run"]) == 2
        assert gc.get_threshold() == (123, 4, 5)
        with pytest.raises(SystemExit):
            main(["no-such-stage"])
        assert gc.get_threshold() == (123, 4, 5)
    finally:
        gc.set_threshold(*before)


def test_run_skips_collections_that_find_nothing(tmp_path):
    # One class of 1000 methods: enough objects for the default thresholds
    # to collect about a dozen times.
    methods = "".join(f"  int m{i}(int x) {{ if (x > {i}) {{ return x * {i} + 1; }} return m{i}(x - 1); }}\n" for i in range(1000))
    files = {"src/Big.java": "class Big {\n" + methods + "}\n"}
    alpha, alpha_sha = single_commit_repo(tmp_path / "remotes" / "alpha", files)
    replay = build_replay_dir(tmp_path / "replay", DiscoveryCriteria(), [("alpha/lib", 200, 400, alpha, alpha_sha)])
    starts = []

    def on_gc(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    before = gc.get_threshold()
    gc.set_threshold(700, 10, 10)
    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        assert run_cli(tmp_path / "work", replay) == 0
    finally:
        gc.callbacks.remove(on_gc)
        gc.set_threshold(*before)
    stats = json.loads((tmp_path / "work" / "out" / "manifest.json").read_text(encoding="utf-8"))["filter_stats"]
    assert stats["kept"] == 1
    # With the default thresholds for the whole run there are about 12.
    assert len(starts) <= 2


# ---- command line -------------------------------------------------------


def test_cli_requires_workdir(capsys):
    assert main(["run"]) == 2
    assert "error: --workdir is required" in capsys.readouterr().err


def test_cli_rejects_unknown_stage_name(tmp_path, capsys):
    assert main(["run", "--workdir", str(tmp_path), "--stages", "discover,fly"]) == 2
    assert "fly" in capsys.readouterr().err


def test_cli_rejects_bad_jobs(tmp_path, capsys):
    assert main(["run", "--workdir", str(tmp_path), "--jobs", "0"]) == 2
    assert "jobs" in capsys.readouterr().err


def test_cli_rejects_bad_criteria(tmp_path, capsys):
    assert main(["run", "--workdir", str(tmp_path), "--min-stars", "50", "--max-stars", "10"]) == 2
    capsys.readouterr()


def test_cli_stage_subcommands_exist():
    parser_stages = set(STAGES)
    assert parser_stages == {"discover", "clone", "measure", "pack"}


def test_cli_discover_subcommand_writes_pins_only(tmp_path):
    replay, work = make_world(tmp_path)
    assert main(["discover", "--workdir", str(work), "--replay", str(replay), "--quiet"]) == 0
    pins = json.loads((work / "pins.json").read_text(encoding="utf-8"))
    assert [entry["full_name"] for entry in pins["repos"]] == ["beta/app", "alpha/lib"]
    assert not (work / "github").exists()


def test_cli_config_file_supplies_defaults(tmp_path):
    replay, work = make_world(tmp_path)
    config = tmp_path / "settings.json"
    config.write_text(
        json.dumps(
            {
                "workdir": str(work),
                "replay": str(replay),
                "reproducible": True,
                "quiet": True,
                "jobs": 2,
            }
        ),
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config)]) == 0
    assert (work / "dataset.zip").exists()


def test_cli_flag_beats_config_file(tmp_path):
    replay, _ = make_world(tmp_path)
    decoy = tmp_path / "decoy"
    actual = tmp_path / "actual"
    config = tmp_path / "settings.json"
    config.write_text(
        json.dumps({"workdir": str(decoy), "replay": str(replay), "quiet": True}),
        encoding="utf-8",
    )
    args = ["run", "--config", str(config), "--workdir", str(actual), "--reproducible"]
    assert main(args) == 0
    assert (actual / "dataset.zip").exists()
    assert not decoy.exists()


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"workdir": "w", "token": "x"}), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 2
    assert "unknown config keys: token" in capsys.readouterr().err


def test_cli_rejects_non_object_config(tmp_path, capsys):
    config = tmp_path / "settings.json"
    config.write_text("[]", encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err


def test_cli_reports_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"jobs": "4"}, "config key jobs must be an integer"),
        ({"jobs": True}, "config key jobs must be an integer"),
        ({"jobs": 4.0}, "config key jobs must be an integer"),
        ({"min_stars": "5"}, "config key min_stars must be an integer"),
        ({"force": "no"}, "config key force must be true or false"),
        ({"quiet": 0}, "config key quiet must be true or false"),
        ({"replay": 7}, "config key replay must be a string"),
        ({"stages": ["clone"]}, "config key stages must be a comma-separated string"),
    ],
)
def test_cli_rejects_config_values_of_the_wrong_type(tmp_path, capsys, settings, message):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"workdir": str(tmp_path / "w"), **settings}), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_cli_config_stages_are_a_comma_separated_string(tmp_path):
    replay, work = make_world(tmp_path)
    config = tmp_path / "settings.json"
    settings = {"workdir": str(work), "replay": str(replay), "stages": "discover, ", "quiet": True, "force": False}
    config.write_text(json.dumps(settings), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 0
    assert (work / "pins.json").exists()
    assert not (work / "github").exists()


@pytest.mark.parametrize("stages", ["", ",", " , "])
def test_cli_an_empty_stage_list_selects_no_stage(tmp_path, capsys, stages):
    """An empty --stages, or an empty "stages" in a config file, runs no
    stage and exits 2, rather than running every stage."""
    work = tmp_path / "w"
    replay = tmp_path / "no-replay"  # a run that went ahead would fail here, offline
    assert main(["run", "--workdir", str(work), "--replay", str(replay), "--stages", stages]) == 2
    assert "no stages selected" in capsys.readouterr().err
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"workdir": str(work), "replay": str(replay), "stages": stages}), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 2
    assert "no stages selected" in capsys.readouterr().err
    assert not work.exists()


# ---- what each command loads -------------------------------------------

MEASURE_STACK = ("cam.filters", "cam.measure", "cam.gitstats", "cam.metrics.code", "cam.metrics.oo", "cam.metrics.structural")
OPENSSL = ("hashlib", "_hashlib")


def modules_loaded_by(*argv: str) -> set[str]:
    """Every module that a fresh `cam <argv>` process imported."""
    script = "import sys; from cam.cli import main; code = main(sys.argv[1:]); print(*sys.modules); sys.exit(code)"
    env = {**os.environ, "PYTHONPATH": str(Path(cam.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def measure_stack_loaded_by(*argv: str) -> set[str]:
    """The measure stack's modules that a fresh `cam <argv>` process
    imported, `subprocess` if it did (only stages that run git need it),
    and `hashlib` and `_hashlib` if it did (the column hashes need neither,
    and `_hashlib` loads OpenSSL)."""
    return {m for m in modules_loaded_by(*argv) if m in MEASURE_STACK + OPENSSL or m.startswith("cam.javasrc.") or m == "subprocess"}


def test_only_a_measure_stage_loads_the_parser_and_metrics(tmp_path):
    replay, work = make_world(tmp_path)
    args = ["--workdir", str(work), "--replay", str(replay), "--reproducible", "--quiet"]
    fresh = measure_stack_loaded_by("run", *args)
    assert set(MEASURE_STACK) | {"subprocess"} <= fresh
    assert {"cam.javasrc.lexer", "cam.javasrc.parser", "cam.javasrc.model"} <= fresh
    assert not fresh & set(OPENSSL)
    assert (work / "dataset.zip").exists()

    assert measure_stack_loaded_by("run", *args) == set()
    assert measure_stack_loaded_by("pack", *args) == set()
    assert measure_stack_loaded_by("discover", "--workdir", str(tmp_path / "pins"), "--replay", str(replay), "--quiet") == set()
    assert (tmp_path / "pins" / "pins.json").exists()
    assert measure_stack_loaded_by("clone", "--force", *args) == {"subprocess"}
    assert json.loads((work / "state" / "alpha__lib.json").read_text(encoding="utf-8"))["stages"] == {"clone": "done"}


def test_a_resume_that_only_retries_failed_clones_loads_no_measure_stack(tmp_path):
    replay, work = make_world(tmp_path, beta_sha="0" * 40)
    args = ["--workdir", str(work), "--replay", str(replay), "--reproducible", "--quiet"]
    assert set(MEASURE_STACK) <= measure_stack_loaded_by("run", *args)
    assert json.loads((work / "state" / "beta__app.json").read_text(encoding="utf-8"))["stages"] == {"clone": "failed"}
    assert measure_stack_loaded_by("run", *args) == {"subprocess"}


# Slow to import and needed by no command that only discovers or packs:
# `dataclasses` (with `inspect`) for the measure stack's records and `email`
# for a Date header in any form but an IMF-fixdate. No command imports
# `concurrent.futures`: the repository workers are plain threads.
STARTUP_COST = {"dataclasses", "inspect", "email", "concurrent.futures"}


def test_commands_that_do_not_measure_skip_dataclasses_email_and_the_pool(tmp_path):
    replay, work = make_world(tmp_path)
    args = ["--workdir", str(work), "--replay", str(replay), "--reproducible", "--quiet", "--jobs", "1"]
    fresh = modules_loaded_by("run", *args)
    assert "cam.measure" in fresh
    assert not fresh & {"email", "concurrent.futures"}
    assert (work / "dataset.zip").exists()

    assert not modules_loaded_by("run", *args) & STARTUP_COST
    assert "concurrent.futures" not in modules_loaded_by("run", "--force", *args[:-1], "4")
    assert not modules_loaded_by("pack", *args) & STARTUP_COST
    assert not modules_loaded_by("discover", "--workdir", str(tmp_path / "pins"), "--replay", str(replay), "--quiet") & STARTUP_COST
    assert (tmp_path / "pins" / "pins.json").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_the_measure_stack_is_imported_before_the_workers_start(tmp_path, monkeypatch, jobs):
    """With a measure stage to run, the stack is imported on the calling
    thread before any worker starts; with none, it is not imported."""
    import threading

    replay, work = make_world(tmp_path)
    stack_at_start = []
    start = threading.Thread.start

    def recording_start(thread):
        stack_at_start.append({name for name in cam.pipeline._MEASURE_STACK if name in vars(cam.pipeline)})
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    for name in cam.pipeline._MEASURE_STACK:
        monkeypatch.delitem(vars(cam.pipeline), name, raising=False)
    assert run_cli(work, replay, "--jobs", jobs) == 0
    assert stack_at_start and all(names == set(cam.pipeline._MEASURE_STACK) for names in stack_at_start)

    stack_at_start.clear()
    for name in cam.pipeline._MEASURE_STACK:
        monkeypatch.delitem(vars(cam.pipeline), name)
    assert run_cli(work, replay, "--jobs", jobs) == 0
    assert stack_at_start and not any(stack_at_start)
    assert not set(cam.pipeline._MEASURE_STACK) & set(vars(cam.pipeline))


def test_a_worker_error_surfaces_after_every_repository_ran(tmp_path, monkeypatch):
    replay, work = make_world(tmp_path)
    assert run_cli(work, replay, "--stages", "discover") == 0
    seen = []

    def first_one_fails(self, spec):
        seen.append(spec.full_name)
        if len(seen) == 1:
            raise KeyboardInterrupt
        return True

    monkeypatch.setattr(Pipeline, "_process_repo", first_one_fails)
    with pytest.raises(KeyboardInterrupt):
        run_cli(work, replay, "--stages", "clone", "--jobs", "1")
    assert sorted(seen) == ["alpha/lib", "beta/app"]
