"""Batch pipeline over discovered repositories.

The work directory is the unit of resumability: every stage leaves its
results as files there, records per-repository status, and a rerun skips
whatever already finished. Stage artifacts are self-contained so each
stage can also run on its own against a prepared work directory.

After its clone, each repository gets one measure pass: walk, decode,
apply the filter rules, parse once, read git history, compute metrics.
Any error in a repository's stages is recorded as that repository's
failure, so the other repositories still ship.

Layout under the work directory:
  pins.json                  discovery output with pinned commits
  github/<owner>/<name>/     clones, checked out at the pin
  state/<owner>__<name>.json per-repository stage status
  filtered/<key>.json        filter verdicts and counters (measure stage)
  rows/<key>.csv, .meta.json per-repository metric rows (measure stage)
  out/                       merged CSVs, manifest, column reference
  dataset.zip                the deliverable archive
"""

from __future__ import annotations

import json
import shutil
import sys
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from cam.dataset import (
    build_manifest,
    canonical_json,
    generated_at,
    pack_archive,
    read_csv_rows,
    rows_to_csv_bytes,
    write_bytes_atomic,
    write_json_atomic,
)
from cam.filters import empty_stats, filter_tree, merge_stats
from cam.gitstats import UntrackedFile, derived_columns, file_history
from cam.javasrc.model import CompilationUnit
from cam.measure import measure_repo
from cam.metrics.schema import schema_markdown
from cam.repos import (
    CloneFailed,
    DiscoveryCriteria,
    DiscoveryResult,
    LiveTransport,
    RepoSpec,
    ReplayTransport,
    TransportError,
    clone_repo,
    discover,
)

STAGES = ("discover", "clone", "measure", "aggregate", "pack")
REPO_STAGES = ("clone", "measure")


class ConfigError(Exception):
    pass


class StageError(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class PipelineConfig:
    workdir: Path
    criteria: DiscoveryCriteria = field(default_factory=DiscoveryCriteria)
    stages: tuple[str, ...] = STAGES
    jobs: int = 4
    force: bool = False
    reproducible: bool = False
    replay: Path | None = None
    quiet: bool = False

    def __post_init__(self) -> None:
        self.workdir = Path(self.workdir)
        if self.replay is not None:
            self.replay = Path(self.replay)
        unknown = [s for s in self.stages if s not in STAGES]
        if unknown:
            raise ConfigError(f"unknown stages: {', '.join(unknown)}")
        if not self.stages:
            raise ConfigError("no stages selected")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")


class _Progress:
    def __init__(self, quiet: bool):
        self._quiet = quiet
        self._lock = threading.Lock()
        self.ok = 0
        self.failed = 0

    def repo_done(self, repo: str, success: bool) -> None:
        with self._lock:
            if success:
                self.ok += 1
            else:
                self.failed += 1

    def emit(self, repo: str, stage: str, status: str, detail: str = "") -> None:
        if self._quiet:
            return
        with self._lock:
            stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
            fields = [stamp, repo, stage, status, str(self.ok), str(self.failed)]
            if detail:
                fields.append(detail)
            print("\t".join(fields), flush=True)


class Pipeline:
    def __init__(self, config: PipelineConfig):
        self.config = config
        self.workdir = config.workdir
        self._progress = _Progress(config.quiet)
        self._remotes: dict[str, str] = {}
        if config.replay is not None:
            remotes_file = config.replay / "remotes.json"
            if remotes_file.exists():
                self._remotes = json.loads(remotes_file.read_text(encoding="utf-8"))

    # ---- paths ----------------------------------------------------------

    def _pins_path(self) -> Path:
        return self.workdir / "pins.json"

    def _clone_dir(self, spec: RepoSpec) -> Path:
        owner, name = spec.full_name.split("/", 1)
        return self.workdir / "github" / owner / name

    def _state_path(self, spec: RepoSpec) -> Path:
        return self.workdir / "state" / f"{spec.key}.json"

    def _filtered_path(self, spec: RepoSpec) -> Path:
        return self.workdir / "filtered" / f"{spec.key}.json"

    def _rows_path(self, spec: RepoSpec) -> Path:
        return self.workdir / "rows" / f"{spec.key}.csv"

    def _meta_path(self, spec: RepoSpec) -> Path:
        return self.workdir / "rows" / f"{spec.key}.meta.json"

    # ---- state ----------------------------------------------------------

    def _load_state(self, spec: RepoSpec) -> dict:
        path = self._state_path(spec)
        if path.exists():
            return json.loads(path.read_text(encoding="utf-8"))
        return {"stages": {}, "failure": None}

    def _save_state(self, spec: RepoSpec, state: dict) -> None:
        write_json_atomic(self._state_path(spec), state)

    # ---- stages ---------------------------------------------------------

    def run(self) -> int:
        self.workdir.mkdir(parents=True, exist_ok=True)

        if "discover" in self.config.stages:
            self._stage_discover()

        specs = self._load_pins() if self._needs_pins() else []

        repo_ok = 0
        repo_failed = 0
        requested_repo_stages = [s for s in self.config.stages if s in REPO_STAGES]
        if requested_repo_stages:
            with ThreadPoolExecutor(max_workers=self.config.jobs) as pool:
                results = list(pool.map(self._process_repo, specs))
            repo_ok = sum(1 for ok in results if ok)
            repo_failed = len(results) - repo_ok

        if "aggregate" in self.config.stages:
            self._stage_aggregate(specs)
        if "pack" in self.config.stages:
            self._stage_pack(specs)

        if requested_repo_stages and repo_ok == 0:
            return 1
        return 0

    def _needs_pins(self) -> bool:
        return any(s in self.config.stages for s in REPO_STAGES + ("aggregate", "pack"))

    def _load_pins(self) -> list[RepoSpec]:
        path = self._pins_path()
        if not path.exists():
            raise ConfigError("pins.json not found in workdir; run the discover stage first")
        data = json.loads(path.read_text(encoding="utf-8"))
        return [RepoSpec.from_dict(entry) for entry in data["repos"]]

    def _pins_metadata(self) -> dict:
        data = json.loads(self._pins_path().read_text(encoding="utf-8"))
        return {
            "cap_exceeded": data.get("cap_exceeded", False),
            "total_available": data.get("total_available", 0),
        }

    def _stage_discover(self) -> None:
        path = self._pins_path()
        if path.exists() and not self.config.force:
            self._progress.emit("-", "discover", "skip")
            return
        self._progress.emit("-", "discover", "start")
        transport = (
            ReplayTransport(self.config.replay)
            if self.config.replay is not None
            else LiveTransport()
        )
        try:
            result = discover(transport, self.config.criteria)
        except TransportError as exc:
            self._progress.emit("-", "discover", "failed", str(exc))
            raise StageError(f"discover: {exc}") from exc
        write_json_atomic(path, result.to_dict(self.config.criteria))
        self._progress.emit("-", "discover", "done", f"repos={len(result.specs)}")

    def _process_repo(self, spec: RepoSpec) -> bool:
        state = self._load_state(spec)
        success = True
        for stage in REPO_STAGES:
            if stage not in self.config.stages:
                continue
            if state["stages"].get(stage) == "done" and not self.config.force:
                continue
            self._progress.emit(spec.full_name, stage, "start")
            reason = None
            try:
                if stage == "clone":
                    self._stage_clone(spec)
                else:
                    self._stage_measure(spec)
            except StageError as exc:
                reason = exc.reason
            except Exception as exc:
                # One repository's fault must not abort the others.
                reason = f"internal-error:{type(exc).__name__}"
                print(f"{spec.full_name}: {traceback.format_exc(limit=-3)}", end="", file=sys.stderr)
            if reason is not None:
                state["stages"][stage] = "failed"
                state["failure"] = reason
                self._save_state(spec, state)
                self._progress.emit(spec.full_name, stage, "failed", reason)
                success = False
                break
            state["stages"][stage] = "done"
            if all(state["stages"].get(s) != "failed" for s in REPO_STAGES):
                state["failure"] = None
            self._save_state(spec, state)
            self._progress.emit(spec.full_name, stage, "done")
        self._progress.repo_done(spec.full_name, success)
        return success

    def _stage_clone(self, spec: RepoSpec) -> None:
        dest = self._clone_dir(spec)
        if dest.exists():
            shutil.rmtree(dest)
        url = self._remotes.get(spec.full_name)
        try:
            clone_repo(spec, dest, url=url)
        except CloneFailed as exc:
            raise StageError(exc.reason) from exc

    def _stage_measure(self, spec: RepoSpec) -> None:
        clone_dir = self._clone_dir(spec)
        if not clone_dir.is_dir():
            raise StageError("missing-clone")
        outcome = filter_tree(clone_dir)
        payload = {
            "stats": outcome.stats,
            "kept": [record.path for record in outcome.kept],
            "verdicts": [[v.path, v.reason] for v in outcome.verdicts],
        }
        write_json_atomic(self._filtered_path(spec), payload)

        units: dict[str, CompilationUnit] = {}
        git_columns: dict[str, dict[str, int]] = {}
        untracked: list[str] = []
        for record in outcome.kept:
            try:
                history = file_history(str(clone_dir), spec.head_commit, record.path)
            except UntrackedFile:
                untracked.append(record.path)
                self._progress.emit(spec.full_name, "measure", "untracked", record.path)
                continue
            units[record.path] = record.unit
            git_columns[record.path] = derived_columns(history)

        result = measure_repo(spec.full_name, units, git_columns)
        write_bytes_atomic(self._rows_path(spec), rows_to_csv_bytes(result.rows))
        write_json_atomic(
            self._meta_path(spec),
            {
                "classes": result.class_count,
                "inheritance_cycles": result.inheritance_cycles,
                "untracked": untracked,
            },
        )

    def _stage_aggregate(self, specs: list[RepoSpec]) -> None:
        self._progress.emit("-", "aggregate", "start")
        merged: list[dict] = []
        out_dir = self.workdir / "out"
        for spec in specs:
            rows_path = self._rows_path(spec)
            if not rows_path.exists():
                continue
            rows = read_csv_rows(rows_path)
            merged.extend(rows)
            write_bytes_atomic(out_dir / f"{spec.key}.csv", rows_to_csv_bytes(rows))
        write_bytes_atomic(out_dir / "all.csv", rows_to_csv_bytes(merged))
        self._progress.emit("-", "aggregate", "done", f"rows={len(merged)}")

    def _stage_pack(self, specs: list[RepoSpec]) -> None:
        self._progress.emit("-", "pack", "start")
        out_dir = self.workdir / "out"
        all_csv = out_dir / "all.csv"
        if not all_csv.exists():
            raise StageError("missing-aggregate")

        repo_entries = []
        global_stats = empty_stats()
        for spec in specs:
            state = self._load_state(spec)
            entry = spec.to_dict()
            entry["status"] = "ok" if state["stages"].get("measure") == "done" else "failed"
            entry["failure"] = state["failure"]
            filtered_path = self._filtered_path(spec)
            if filtered_path.exists():
                stats = json.loads(filtered_path.read_text(encoding="utf-8"))["stats"]
            else:
                stats = empty_stats()
            entry["filter_stats"] = stats
            merge_stats(global_stats, stats)
            meta_path = self._meta_path(spec)
            if meta_path.exists():
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
                entry["classes"] = meta["classes"]
                entry["inheritance_cycles"] = meta["inheritance_cycles"]
            else:
                entry["classes"] = 0
                entry["inheritance_cycles"] = []
            repo_entries.append(entry)

        discovery_info = (
            self._pins_metadata()
            if self._pins_path().exists()
            else {"cap_exceeded": False, "total_available": 0}
        )
        manifest = build_manifest(
            self.config.criteria.to_dict(),
            repo_entries,
            global_stats,
            discovery_info,
            self.config.reproducible,
            generated_at(self.config.reproducible, specs),
        )
        manifest_bytes = canonical_json(manifest) + b"\n"
        schema_bytes = schema_markdown().encode("utf-8")
        write_bytes_atomic(out_dir / "manifest.json", manifest_bytes)
        write_bytes_atomic(out_dir / "schema.md", schema_bytes)

        members: dict[str, bytes] = {
            "data/all.csv": all_csv.read_bytes(),
            "manifest.json": manifest_bytes,
            "schema.md": schema_bytes,
        }
        for spec in specs:
            per_repo = out_dir / f"{spec.key}.csv"
            if per_repo.exists():
                members[f"data/{spec.key}.csv"] = per_repo.read_bytes()
        pack_archive(self.workdir / "dataset.zip", members)
        self._progress.emit("-", "pack", "done", f"members={len(members)}")
