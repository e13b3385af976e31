"""Shared helpers: deterministic git repositories and replay directories."""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path

AUTHOR_A = ("Ada Dev", "ada@example.com")
AUTHOR_B = ("Ben Dev", "Ben@Example.com")
DAY_ONE = "2020-01-01T00:00:00Z"


def git_env(when: str, author: tuple[str, str] = AUTHOR_A) -> dict:
    name, email = author
    env = dict(os.environ)
    env.update(
        GIT_AUTHOR_NAME=name,
        GIT_AUTHOR_EMAIL=email,
        GIT_COMMITTER_NAME=name,
        GIT_COMMITTER_EMAIL=email,
        GIT_AUTHOR_DATE=when,
        GIT_COMMITTER_DATE=when,
    )
    return env


def git(repo: Path, *args: str, when: str = DAY_ONE, author: tuple[str, str] = AUTHOR_A) -> str:
    proc = subprocess.run(
        ["git", "-C", str(repo), *args],
        capture_output=True,
        text=True,
        env=git_env(when, author),
    )
    assert proc.returncode == 0, f"git {args} failed: {proc.stderr}"
    return proc.stdout.strip()


def init_repo(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    git(path, "init", "-q", "-b", "main")
    return path


def commit_all(repo: Path, message: str, when: str = DAY_ONE, author: tuple[str, str] = AUTHOR_A) -> str:
    git(repo, "add", "-A", when=when, author=author)
    git(repo, "commit", "-q", "-m", message, when=when, author=author)
    return git(repo, "rev-parse", "HEAD")


def single_commit_repo(path: Path, files: dict[str, str | bytes], when: str = DAY_ONE) -> tuple[Path, str]:
    """A repository whose whole history is one commit adding *files*, given
    as text (written as UTF-8) or as bytes."""
    init_repo(path)
    for rel, content in files.items():
        target = path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    return path, commit_all(path, "add sources", when=when)


def build_replay_dir(
    replay: Path,
    criteria,
    repos: list[tuple[str, int, int, Path, str]],
    date_header: str = "Sat, 04 Jan 2020 10:00:00 GMT",
) -> Path:
    """Recorded discovery responses plus remotes for local cloning.

    repos holds (full_name, stars, size_kb, local_path, head_sha) tuples.
    """
    from cam.repos import branch_url, search_url

    replay.mkdir(parents=True, exist_ok=True)
    index = []

    def record(url: str, body: dict, fname: str) -> None:
        (replay / fname).write_bytes(json.dumps(body).encode("utf-8"))
        index.append(
            {"url": url, "file": fname, "status": 200, "headers": {"Date": date_header}}
        )

    items = [
        {
            "full_name": full_name,
            "stargazers_count": stars,
            "size": size_kb,
            "default_branch": "main",
        }
        for full_name, stars, size_kb, _path, _sha in repos
    ]
    record(search_url(criteria, 1), {"total_count": len(items), "items": items}, "search-1.json")
    for pos, (full_name, _stars, _size, _path, sha) in enumerate(repos):
        record(branch_url(full_name, "main"), {"commit": {"sha": sha}}, f"branch-{pos}.json")
    (replay / "index.json").write_text(json.dumps(index), encoding="utf-8")
    remotes = {full_name: str(path) for full_name, _s, _k, path, _sha in repos}
    (replay / "remotes.json").write_text(json.dumps(remotes), encoding="utf-8")
    return replay
