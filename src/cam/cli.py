"""Command line entry point.

One subcommand per stage plus `run` for the whole chain. Flags beat the
optional JSON config file, which beats built-in defaults. The GitHub token
comes from the CAM_TOKEN environment variable; there is no flag for it so
it cannot leak into shell history or process listings.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from cam.pipeline import STAGES, ConfigError, Pipeline, PipelineConfig, StageError
from cam.repos import DiscoveryCriteria

_DEFAULTS = {
    "workdir": None,
    "jobs": 4,
    "min_stars": 1000,
    "max_stars": 10000,
    "min_size_kb": 200,
    "max_repos": 1000,
    "force": False,
    "reproducible": False,
    "replay": None,
    "quiet": False,
    "stages": None,
}
# A config value must have its flag's type: a setting whose default is None
# takes a string (stages a comma-separated one) or null.
_TYPE_NAMES = {int: "an integer", bool: "true or false", str: "a string"}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--workdir", help="work directory holding all stage outputs")
    shared.add_argument("--jobs", type=int, help="parallel repository workers (default 4)")
    shared.add_argument("--min-stars", type=int, help="minimum star count (default 1000)")
    shared.add_argument("--max-stars", type=int, help="maximum star count (default 10000)")
    shared.add_argument("--min-size-kb", type=int, help="minimum repository size in KB (default 200)")
    shared.add_argument("--max-repos", type=int, help="maximum repositories to keep (default 1000)")
    shared.add_argument("--force", action="store_true", default=None, help="re-run stages that already finished")
    shared.add_argument("--reproducible", action="store_true", default=None, help="derive the manifest timestamp from the pins instead of the clock")
    shared.add_argument("--replay", help="directory of recorded API responses and clone remotes")
    shared.add_argument("--quiet", action="store_true", default=None, help="suppress progress output")
    shared.add_argument("--config", help="JSON file with defaults for any flag")

    parser = argparse.ArgumentParser(prog="cam", description="Build a per-class Java metrics dataset from public repositories.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", parents=[shared], help="run every stage in order")
    run.add_argument("--stages", help="comma-separated subset of stages to run")
    for stage in STAGES:
        sub.add_parser(stage, parents=[shared], help=f"run only the {stage} stage")
    return parser


def _merge_settings(args: argparse.Namespace) -> dict:
    settings = dict(_DEFAULTS)
    if args.config:
        config_path = Path(args.config)
        try:
            loaded = json.loads(config_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        unknown = set(loaded) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, value in loaded.items():
            default = _DEFAULTS[key]
            expected = str if default is None else type(default)
            if type(value) is not expected and not (default is None and value is None):
                kind = "a comma-separated string" if key == "stages" else _TYPE_NAMES[expected]
                raise ConfigError(f"config key {key} must be {kind}, not {json.dumps(value)}")
        settings.update(loaded)
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def _build_config(command: str, settings: dict) -> PipelineConfig:
    if not settings["workdir"]:
        raise ConfigError("--workdir is required (flag or config file)")
    stages = (command,)
    if command == "run":
        stages = tuple(s.strip() for s in settings["stages"].split(",") if s.strip()) if settings["stages"] is not None else STAGES
    try:
        criteria = DiscoveryCriteria(
            min_stars=settings["min_stars"],
            max_stars=settings["max_stars"],
            min_size_kb=settings["min_size_kb"],
            max_repos=settings["max_repos"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return PipelineConfig(
        workdir=Path(settings["workdir"]),
        criteria=criteria,
        stages=stages,
        jobs=settings["jobs"],
        force=settings["force"],
        reproducible=settings["reproducible"],
        replay=Path(settings["replay"]) if settings["replay"] else None,
        quiet=settings["quiet"],
    )


def main(argv: list[str] | None = None) -> int:
    thresholds = gc.get_threshold()
    # Parsed files form no cycles: on large_sources, default thresholds ran 50 collections (0.04 s) that freed 61 objects.
    gc.set_threshold(50_000, 20, 100)
    try:
        return _main(argv)
    finally:
        gc.set_threshold(*thresholds)


def _main(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _merge_settings(args)
        config = _build_config(args.command, settings)
        pipeline = Pipeline(config)
        return pipeline.run()
    except (ConfigError, StageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
