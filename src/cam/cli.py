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

from cam.pipeline import DEFAULT_JOBS, STAGES, ConfigError, Pipeline, PipelineConfig, StageError
from cam.repos import DiscoveryCriteria

_CRITERIA = DiscoveryCriteria()
# Each setting once: its type, default and help. Its flag is --<key> with
# dashes for underscores, and an integer's help gives its default. A config
# value must have the setting's type; null is taken where the default is null.
_SETTINGS = {
    "workdir": (str, None, "work directory holding all stage outputs"),
    "jobs": (int, DEFAULT_JOBS, "parallel repository workers"),
    "min_stars": (int, _CRITERIA.min_stars, "minimum star count"),
    "max_stars": (int, _CRITERIA.max_stars, "maximum star count"),
    "min_size_kb": (int, _CRITERIA.min_size_kb, "minimum repository size in KB"),
    "max_repos": (int, _CRITERIA.max_repos, "maximum repositories to keep"),
    "force": (bool, False, "re-run stages that already finished"),
    "reproducible": (bool, False, "no effect: every run derives the manifest timestamp from the pins"),
    "replay": (str, None, "directory of recorded API responses and clone remotes"),
    "quiet": (bool, False, "suppress progress output"),
}
_TYPE_NAMES = {int: "an integer", bool: "true or false", str: "a string"}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    for key, (kind, default, text) in _SETTINGS.items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            shared.add_argument(flag, action="store_true", default=None, help=text)
        else:
            shared.add_argument(flag, type=kind, help=text if default is None else f"{text} (default {default})")
    shared.add_argument("--config", help="JSON file with defaults for any flag")

    parser = argparse.ArgumentParser(prog="cam", description="Build a per-class Java metrics dataset from public repositories.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[shared], help="run every stage in order")
    for stage in STAGES:
        sub.add_parser(stage, parents=[shared], help=f"run only the {stage} stage")
    return parser


def _merge_settings(args: argparse.Namespace) -> dict:
    settings = {key: default for key, (_kind, default, _text) in _SETTINGS.items()}
    if args.config:
        config_path = Path(args.config)
        try:
            loaded = json.loads(config_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        unknown = set(loaded) - set(_SETTINGS)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, value in loaded.items():
            kind, default, _text = _SETTINGS[key]
            if type(value) is not kind and not (default is None and value is None):
                raise ConfigError(f"config key {key} must be {_TYPE_NAMES[kind]}, not {json.dumps(value)}")
        settings.update(loaded)
    for key in _SETTINGS:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    return settings


def _build_config(command: str, settings: dict) -> PipelineConfig:
    if not settings["workdir"]:
        raise ConfigError("--workdir is required (flag or config file)")
    try:
        criteria = DiscoveryCriteria(**{field: settings[field] for field in DiscoveryCriteria._fields})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return PipelineConfig(
        workdir=Path(settings["workdir"]),
        criteria=criteria,
        stages=STAGES if command == "run" else (command,),
        jobs=settings["jobs"],
        force=settings["force"],
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
