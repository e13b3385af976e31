"""Batch pipeline over discovered repositories.

The work directory is the unit of resumability: every stage leaves its
results as files there, records per-repository status, and a rerun skips
whatever already finished. Stage artifacts are self-contained so each
stage can also run on its own against a prepared work directory.

After its clone, each repository gets one measure pass: list the pinned
tree, read each file's committed bytes, apply the filter rules, then
parse and measure each kept file once and drop its parse; read git
history once (one `git log` for all kept files), and only then link the
tracked files' classes for the graph columns.
Any error in a repository's stages is recorded as that repository's
failure, so the other repositories still ship.

Layout under the work directory:
  pins.json                  discovery output with pinned commits
  github/<owner>/<name>/     bare clones that hold the pin
  state/<owner>__<name>.json per-repository stage status
  filtered/<key>.json        filter verdicts and counters (measure stage)
  rows/<key>.csv, .meta.json per-repository metric rows (measure stage)
  out/                       manifest.json and schema.md (pack stage)
  dataset.zip                the deliverable (pack stage): rows/<key>.csv
                             as data/<key>.csv, and data/all.csv
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys
import threading
from datetime import datetime, timezone
from pathlib import Path

# Unused here; perfbench/tracing.py wraps this name, and fails without it.
from cam.dataset import read_csv_rows  # noqa: F401
from cam.dataset import (
    build_manifest,
    canonical_json,
    empty_stats,
    generated_at,
    merge_stats,
    pack_archive,
    rows_to_csv_bytes,
    write_bytes_atomic,
    write_json_atomic,
)
from cam.repos import (
    CloneFailed,
    DiscoveryCriteria,
    LiveTransport,
    RepoSpec,
    ReplayTransport,
    TransportError,
    clone_repo,
    discover,
)

STAGES = ("discover", "clone", "measure", "pack")
REPO_STAGES = ("clone", "measure")
DEFAULT_JOBS = 4

# The measure stage's entry points and their modules. Only a measure stage
# imports them, with the parser and the metrics behind them, so discover,
# pack and a resumed run with nothing to measure start without that stack.
# Likewise cam.metrics.schema is imported only where a header, the manifest
# or schema.md is written.
_MEASURE_STACK = {
    "filter_tree": "cam.filters",
    "file_history": "cam.gitstats",
    "measure_repo": "cam.measure",
}


def __getattr__(name: str):
    """Import a measure stage entry point on first use and keep it here."""
    if name not in _MEASURE_STACK:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_MEASURE_STACK[name]), name)
    globals()[name] = value
    return value


def _read_json(path: Path, default: dict) -> dict:
    """The JSON object in *path*, or *default* when there is no such file."""
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else default


class ConfigError(Exception):
    pass


class StageError(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class PipelineConfig:
    def __init__(
        self,
        workdir: Path,
        criteria: DiscoveryCriteria = DiscoveryCriteria(),
        stages: tuple[str, ...] = STAGES,
        jobs: int = DEFAULT_JOBS,
        force: bool = False,
        replay: Path | None = None,
        quiet: bool = False,
    ):
        self.workdir = Path(workdir)
        self.criteria = criteria
        self.stages = stages
        self.jobs = jobs
        self.force = force
        self.replay = None if replay is None else Path(replay)
        self.quiet = quiet
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")


class _Progress:
    def __init__(self, quiet: bool):
        self._quiet = quiet
        self._lock = threading.Lock()
        self.ok = 0
        self.failed = 0

    def repo_done(self, success: bool) -> None:
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
        return _read_json(self._state_path(spec), {"stages": {}, "failure": None})

    def _save_state(self, spec: RepoSpec, state: dict) -> None:
        write_json_atomic(self._state_path(spec), state)

    # ---- stages ---------------------------------------------------------

    def run(self) -> int:
        self.workdir.mkdir(parents=True, exist_ok=True)

        if "discover" in self.config.stages:
            self._stage_discover()

        pins = self._load_pins() if set(self.config.stages) - {"discover"} else {"repos": []}
        specs = [RepoSpec.from_dict(entry) for entry in pins["repos"]]

        repo_ok = 0
        requested_repo_stages = [s for s in self.config.stages if s in REPO_STAGES]
        if requested_repo_stages:
            repo_ok = sum(1 for ok in self._process_repos(specs) if ok)

        if "pack" in self.config.stages:
            self._stage_pack(specs, pins)

        if requested_repo_stages and repo_ok == 0:
            return 1
        return 0

    def _load_pins(self) -> dict:
        path = self._pins_path()
        if not path.exists():
            raise ConfigError("pins.json not found in workdir; run the discover stage first")
        return json.loads(path.read_text(encoding="utf-8"))

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

    def _process_repos(self, specs: list[RepoSpec]) -> list[bool]:
        """Each repository's stages, on `jobs` worker threads that take the
        specs in order."""
        # A repository whose clone failed is not measured unless a retried
        # clone succeeds, so a resume over failed clones imports nothing.
        states = (self._load_state(spec)["stages"] for spec in specs)
        if "measure" in self.config.stages and (
            self.config.force or any(s.get("measure") != "done" and s.get("clone") != "failed" for s in states)
        ):
            # Imported on this thread, not in the first worker: there it
            # raised cam's peak RSS by 0.7 MB (many_small_repos, --jobs 2).
            for name in _MEASURE_STACK:
                getattr(sys.modules[__name__], name)
        results: list = [None] * len(specs)
        pending = iter(enumerate(specs))
        lock = threading.Lock()

        def take():
            with lock:
                return next(pending, None)

        def work() -> None:
            for index, spec in iter(take, None):
                try:
                    results[index] = self._process_repo(spec)
                except BaseException as exc:  # raised below, once every worker is done
                    results[index] = exc

        workers = [threading.Thread(target=work) for _ in range(min(self.config.jobs, len(specs)))]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return results

    def _process_repo(self, spec: RepoSpec) -> bool:
        state = self._load_state(spec)
        success = True
        for stage in REPO_STAGES:
            if stage not in self.config.stages:
                continue
            if state["stages"].get(stage) == "done" and not self.config.force:
                continue
            if stage == "measure" and state["stages"].get("clone") == "failed":
                # This run does not retry the failed clone; its reason stands.
                self._progress.emit(spec.full_name, stage, "skip", state["failure"])
                success = False
                break
            self._progress.emit(spec.full_name, stage, "start")
            # What this stage and later ones made before is stale from now on.
            for later in REPO_STAGES[REPO_STAGES.index(stage):]:
                state["stages"].pop(later, None)
            self._save_state(spec, state)
            for path in (self._filtered_path(spec), self._rows_path(spec), self._meta_path(spec)):
                path.unlink(missing_ok=True)
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
                import traceback

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
            state["failure"] = None
            self._save_state(spec, state)
            self._progress.emit(spec.full_name, stage, "done")
        self._progress.repo_done(success)
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
        # Through the module, so a patch of any of these names takes effect.
        stack = sys.modules[__name__]
        payload, kept = stack.filter_tree(str(clone_dir), spec.head_commit)
        write_json_atomic(self._filtered_path(spec), payload)

        git_columns = stack.file_history(str(clone_dir), spec.head_commit, payload["kept"])
        result = stack.measure_repo(spec.full_name, dict(kept), git_columns)
        write_bytes_atomic(self._rows_path(spec), [rows_to_csv_bytes([]), *result.rows])
        meta = {"classes": len(result.rows), "inheritance_cycles": result.inheritance_cycles, "untracked": result.untracked}
        write_json_atomic(self._meta_path(spec), meta)
        for path in result.untracked:
            self._progress.emit(spec.full_name, "measure", "untracked", path)

    def _stage_pack(self, specs: list[RepoSpec], pins: dict) -> None:
        from cam.metrics.schema import schema_markdown

        self._progress.emit("-", "pack", "start")
        out_dir = self.workdir / "out"

        repo_entries = []
        global_stats = empty_stats()
        for spec in specs:
            state = self._load_state(spec)
            entry = spec.to_dict()
            entry["status"] = "ok" if state["stages"].get("measure") == "done" else "failed"
            entry["failure"] = state["failure"]
            stats = _read_json(self._filtered_path(spec), {"stats": empty_stats()})["stats"]
            merge_stats(global_stats, stats)
            meta = _read_json(self._meta_path(spec), {"classes": 0, "inheritance_cycles": []})
            entry.update(filter_stats=stats, classes=meta["classes"], inheritance_cycles=meta["inheritance_cycles"])
            repo_entries.append(entry)

        manifest = build_manifest(
            # The criteria the pins were discovered with; this command's own
            # flags may differ. Hand-written pins carry none.
            pins.get("criteria", self.config.criteria.to_dict()),
            repo_entries,
            global_stats,
            {"cap_exceeded": pins.get("cap_exceeded", False), "total_available": pins.get("total_available", 0)},
            generated_at(specs),
        )
        manifest_bytes = canonical_json(manifest) + b"\n"
        schema_bytes = schema_markdown().encode("utf-8")
        write_bytes_atomic(out_dir / "manifest.json", manifest_bytes)
        write_bytes_atomic(out_dir / "schema.md", schema_bytes)

        # Each rows file is in row order and starts with the header, so
        # all.csv is the header plus their bodies in full_name order.
        header = rows_to_csv_bytes([])
        all_parts = [header]
        members = {"data/all.csv": all_parts, "manifest.json": [manifest_bytes], "schema.md": [schema_bytes]}
        for spec in sorted(specs, key=lambda s: s.full_name):
            rows_path = self._rows_path(spec)
            if not rows_path.exists():
                continue
            with open(rows_path, "rb") as handle:
                if handle.read(len(header)) != header:
                    raise StageError(f"stale-rows:{spec.key}")
            all_parts.append((rows_path, len(header)))
            members[f"data/{spec.key}.csv"] = [(rows_path, 0)]
        pack_archive(self.workdir / "dataset.zip", members)
        self._progress.emit("-", "pack", "done", f"members={len(members)}")
