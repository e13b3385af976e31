"""Per-file change history pulled from one pass over a repository's git log.

One `git log <pin> -M --numstat` per repository walks the pinned history
from newest to oldest. Each kept file is tracked under its name at that
point of the walk, so a rename moves it to its old name for older
commits. A file deleted and added again keeps the history of its name.
Copies are not followed, and merge commits show no diff, so they count
for no file.

All figures are anchored to a pinned commit so reruns over the same
clone produce identical numbers no matter when they happen.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from cam.repos import run_git

_FIELD_SEP = "\x1f"
_COMMIT_MARK = "\x01"


# Unused here; perfbench/tracing.py imports this name, and fails without it.
class UntrackedFile(Exception):
    pass


class GitCommandError(Exception):
    pass


@dataclass(frozen=True)
class CommitInfo:
    author_email: str
    timestamp: int


@dataclass
class FileHistory:
    commits: list[CommitInfo]
    added: int
    deleted: int


def _run_git(repo_dir: str, args: list[str]) -> str:
    """Stdout decoded with `os.fsdecode`, so odd bytes in a path survive."""
    proc = run_git("-C", repo_dir, *args)
    if proc.returncode != 0:
        stderr = proc.stderr.decode("utf-8", errors="replace").strip()
        raise GitCommandError(stderr or f"git {args[0]} failed")
    return os.fsdecode(proc.stdout)


def file_history(repo_dir: str, pin: str, paths: list[str]) -> dict[str, FileHistory]:
    """History up to the pinned commit of each path, following renames.

    A path that no commit's diff touches is untracked and left out.
    """
    if not paths:
        return {}
    out = _run_git(
        repo_dir,
        ["log", pin, "-z", "--numstat", "-M", f"--format={_COMMIT_MARK}%ae{_FIELD_SEP}%at"],
    )
    histories = {path: FileHistory([], 0, 0) for path in paths}
    # name at this point of the walk -> history of the kept file it is
    names = dict(histories)
    commit = None
    tokens = iter(out.split("\0"))
    for token in tokens:
        token = token.lstrip("\n")
        if token.startswith(_COMMIT_MARK):
            email, stamp = token[1:].split(_FIELD_SEP)
            commit = CommitInfo(email, int(stamp))
            continue
        if not token:
            continue
        plus, minus, name = token.split("\t", 2)
        old = name
        if not name:  # a rename: its old and new names follow
            old, name = next(tokens), next(tokens)
        history = names.get(name)
        if history is None:
            continue
        history.commits.append(commit)
        history.added += 0 if plus == "-" else int(plus)
        history.deleted += 0 if minus == "-" else int(minus)
        # Older commits know the file by its old name. A kept file that
        # reuses that name later starts its history here.
        if old != name:
            names[old] = names.pop(name)
    return {path: history for path, history in histories.items() if history.commits}


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
