"""End-to-end pipeline runs over replay directories and local git remotes."""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import pytest

import cam.javasrc.parser
from cam.cli import main
from cam.dataset import HEADER, read_csv_rows
from cam.pipeline import STAGES, ConfigError, Pipeline, PipelineConfig
from cam.repos import DiscoveryCriteria
from conftest import build_replay_dir, single_commit_repo

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

    loose = work / "github" / "beta" / "app" / "app" / "Loose.java"
    loose.write_text("class Loose {}\n", encoding="utf-8")
    args = ["run", "--workdir", str(work), "--replay", str(replay), "--reproducible", "--quiet"]
    assert main(args + ["--stages", "measure,aggregate,pack", "--force"]) == 0

    meta = json.loads((work / "rows" / "beta__app.meta.json").read_text(encoding="utf-8"))
    assert meta["untracked"] == ["app/Loose.java"]
    assert meta["classes"] == 1
    rows = (work / "rows" / "beta__app.csv").read_text(encoding="utf-8")
    assert "Loose" not in rows


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


def test_internal_error_fails_only_its_repo(tmp_path):
    arms = "".join(f"    else if (x == {i}) {{ y = {i}; }}\n" for i in range(1, 1000))
    poison = "class Poison {\n  int y;\n  void f(int x) {\n    if (x == 0) { y = 0; }\n" + arms + "  }\n}\n"
    alpha, alpha_sha = single_commit_repo(
        tmp_path / "remotes" / "alpha", {"src/Main.java": MAIN_JAVA, "src/Poison.java": poison}
    )
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
    assert alpha_entry["failure"] == "internal-error:RecursionError"
    assert beta_entry["status"] == "ok"
    assert "data/beta__app.csv" in names
    assert "data/alpha__lib.csv" not in names
    assert [line.split(",")[:3] for line in all_csv.split("\n")[1:] if line] == [
        ["beta/app", "app/App.java", "App"]
    ]


def test_measure_without_clone_fails(tmp_path, capsys):
    replay, work = make_world(tmp_path)
    assert main(["discover", "--workdir", str(work), "--replay", str(replay), "--quiet"]) == 0
    assert main(["measure", "--workdir", str(work), "--quiet"]) == 1
    state = json.loads((work / "state" / "alpha__lib.json").read_text(encoding="utf-8"))
    assert state["stages"]["measure"] == "failed"
    assert state["failure"] == "missing-clone"


def test_pack_without_aggregate_fails(tmp_path, capsys):
    replay, work = make_world(tmp_path)
    for stage in ("discover", "clone", "measure"):
        assert main([stage, "--workdir", str(work), "--replay", str(replay), "--quiet"]) == 0
    assert main(["pack", "--workdir", str(work), "--quiet"]) == 2
    assert "missing-aggregate" in capsys.readouterr().err
    for stage in ("aggregate", "pack"):
        assert main([stage, "--workdir", str(work), "--replay", str(replay), "--quiet"]) == 0
    assert (work / "dataset.zip").exists()


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
    assert parser_stages == {"discover", "clone", "measure", "aggregate", "pack"}


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
