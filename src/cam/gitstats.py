"""The five git columns of each kept file, from one pass over a repository's git log.

One `git log <pin> -M --numstat` per repository walks the pinned history
from newest to oldest and keeps a running tally per kept file. Each kept
file is tracked under its name at that point of the walk, so a rename
moves it to its old name for older commits. A file deleted and added
again keeps the history of its name. Copies are not followed, and merge
commits show no diff, so they count for no file.

All figures are anchored to a pinned commit so reruns over the same
clone produce identical numbers no matter when they happen.
"""

from __future__ import annotations

from cam.repos import run_git

_FIELD_SEP = "\x1f"
_COMMIT_MARK = "\x01"


# Unused here; perfbench/tracing.py imports this name, and fails without it.
class UntrackedFile(Exception):
    pass


def file_history(repo_dir: str, pin: str, paths: list[str]) -> dict[str, dict[str, int]]:
    """The git columns of each path, from its history up to the pinned
    commit with renames followed.

    Authors are told apart by email, compared lowercased. Age is the span
    between the earliest and latest author timestamp, not the distance
    from the run, so reruns give the same numbers. A path that no
    commit's diff touches is untracked and left out.
    """
    if not paths:
        return {}
    out = run_git("-C", repo_dir, "log", pin, "-z", "--numstat", "-M", f"--format={_COMMIT_MARK}%ae{_FIELD_SEP}%at")
    tallies = {path: {"stamps": [], "emails": set(), "churn_added": 0, "churn_deleted": 0} for path in paths}
    # name at this point of the walk -> tally of the kept file it is
    names = dict(tallies)
    tokens = iter(out.split("\0"))
    for token in tokens:
        token = token.lstrip("\n")
        if token.startswith(_COMMIT_MARK):
            email, stamp = token[1:].split(_FIELD_SEP)
            email, stamp = email.lower(), int(stamp)
            continue
        if not token:
            continue
        plus, minus, name = token.split("\t", 2)
        old = name
        if not name:  # a rename: its old and new names follow
            old, name = next(tokens), next(tokens)
        tally = names.get(name)
        if tally is None:
            continue
        tally["stamps"].append(stamp)
        tally["emails"].add(email)
        tally["churn_added"] += 0 if plus == "-" else int(plus)
        tally["churn_deleted"] += 0 if minus == "-" else int(minus)
        # Older commits know the file by its old name. A kept file that
        # reuses that name later starts its history here.
        if old != name:
            names[old] = names.pop(name)
    return {
        path: {
            "commits": len(tally["stamps"]),
            "authors": len(tally["emails"]),
            "age_days": (max(tally["stamps"]) - min(tally["stamps"])) // 86400,
            "churn_added": tally["churn_added"],
            "churn_deleted": tally["churn_deleted"],
        }
        for path, tally in tallies.items()
        if tally["stamps"]
    }
