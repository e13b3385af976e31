"""Per-file change history pulled from a repository's git log.

All figures are anchored to a pinned commit so reruns over the same
checkout produce identical numbers no matter when they happen.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass

_FIELD_SEP = "\x1f"


class UntrackedFile(Exception):
    """The pinned history contains no commit touching the file."""

    def __init__(self, path: str):
        super().__init__(f"no history for {path}")
        self.path = path


class GitCommandError(Exception):
    pass


@dataclass(frozen=True)
class CommitInfo:
    sha: str
    author_email: str
    timestamp: int


@dataclass
class FileHistory:
    path: str
    commits: list[CommitInfo]
    added: int
    deleted: int


def _run_git(repo_dir: str, args: list[str]) -> str:
    proc = subprocess.run(
        ["git", "-C", repo_dir] + args,
        capture_output=True,
        text=True,
        errors="replace",
    )
    if proc.returncode != 0:
        raise GitCommandError(proc.stderr.strip() or f"git {args[0]} failed")
    return proc.stdout


def file_history(repo_dir: str, pin: str, path: str) -> FileHistory:
    """History of one file up to the pinned commit, following renames."""
    out = _run_git(
        repo_dir,
        [
            "log",
            pin,
            "--follow",
            f"--format=%H{_FIELD_SEP}%ae{_FIELD_SEP}%at",
            "--numstat",
            "--",
            path,
        ],
    )
    commits: list[CommitInfo] = []
    added = 0
    deleted = 0
    for line in out.split("\n"):
        if _FIELD_SEP in line:
            sha, email, stamp = line.split(_FIELD_SEP)
            commits.append(CommitInfo(sha, email, int(stamp)))
            continue
        if "\t" in line:
            plus, minus, _ = line.split("\t", 2)
            added += 0 if plus == "-" else int(plus)
            deleted += 0 if minus == "-" else int(minus)
    if not commits:
        raise UntrackedFile(path)
    return FileHistory(path, commits, added, deleted)


def derived_columns(history: FileHistory) -> dict[str, int]:
    """The five dataset columns for one file's history.

    Age is the span between the first and last commit, not the distance
    from the run, so reruns give the same numbers.
    """
    stamps = [c.timestamp for c in history.commits]
    emails = {c.author_email.lower() for c in history.commits}
    return {
        "commits": len(history.commits),
        "authors": len(emails),
        "age_days": (max(stamps) - min(stamps)) // 86400,
        "churn_added": history.added,
        "churn_deleted": history.deleted,
    }
