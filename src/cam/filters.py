"""File selection rules applied to the pinned tree of a cloned repository.

Rules run in a fixed order and the first hit wins, so every rejected file
carries exactly one reason, and the per-reason counts that end up in the
manifest follow the same order. A kept file is measured as soon as it is
parsed, and only its measured rows and graph stubs leave this module,
next to the verdicts and counters that `filtered/<key>.json` holds.
"""

from __future__ import annotations

import fnmatch
import os
import re
import subprocess

# The verdict counters live with the manifest, so pack needs no parser.
from cam.dataset import empty_stats
from cam.javasrc.lexer import LexError
from cam.javasrc.parser import JavaSyntaxError, parse
from cam.measure import MeasuredFile, measure_file
from cam.repos import GitCommandError, git_env, run_git

MAX_LINE_LENGTH = 1024

_FORBIDDEN_BASENAMES = frozenset({"package-info.java", "module-info.java"})
_TEST_DIR_SEGMENTS = frozenset({"test", "tests", "testfixtures"})
_TEST_NAME_PATTERNS = ("*Test.java", "*Tests.java", "*TestCase.java", "Test*.java")
# Blanks before the import, but no newline: '\s*' would scan from each line
# start of a blank run to its end, which is quadratic in the run's length. An
# import after blank lines still matches from its own line start.
_TEST_IMPORT_RE = re.compile(
    r"^[^\S\n]*import\s+(static\s+)?(org\.junit|junit\.framework|org\.testng)",
    re.MULTILINE,
)
# Anchored at line starts, so each line is scanned at most once and no list
# of lines is built; unanchored, a long line is rescanned from each position.
_has_long_line = re.compile(rf"^[^\n]{{{MAX_LINE_LENGTH + 1}}}", re.MULTILINE).search


def _decode(data: bytes) -> str | None:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return None




def _looks_like_test(relpath: str, content: str) -> bool:
    parts = relpath.split("/")
    for segment in parts[:-1]:
        if segment.lower() in _TEST_DIR_SEGMENTS:
            return True
    basename = parts[-1]
    for pattern in _TEST_NAME_PATTERNS:
        if fnmatch.fnmatchcase(basename, pattern):
            return True
    return bool(_TEST_IMPORT_RE.search(content))


def _name_verdict(relpath: str) -> str | None:
    """The verdict that a file's name alone decides, if any."""
    if not relpath.endswith(".java"):
        return "not-java-ext"
    if relpath.rsplit("/", 1)[-1] in _FORBIDDEN_BASENAMES:
        return "forbidden-name"
    return None


def evaluate_file(relpath: str, data: bytes) -> tuple[str | None, MeasuredFile | None]:
    """Apply the rule chain to one file, and measure it if it is kept.

    Returns (reason, measured): a kept file has reason None and its
    measured rows; a rejected file has its reason and None. Every rule
    after decoding sees the text with "\r\n" and lone "\r" line ends
    turned into "\n", as Java reads lines, and so does the measurement.
    A file nested deeper than the parser allows is unparseable; any other
    error, while parsing or measuring, is not a verdict and propagates.
    """
    reason = _name_verdict(relpath)
    if reason is not None:
        return reason, None
    content = _decode(data)
    if content is None:
        return "undecodable", None
    if "\r" in content:
        content = content.replace("\r\n", "\n").replace("\r", "\n")
    if _has_long_line(content):
        return "too-long-line", None
    if _looks_like_test(relpath, content):
        return "test-file", None
    try:
        unit = parse(content)
    except (LexError, JavaSyntaxError):
        return "unparseable", None
    return None, measure_file(content, unit)


def _pinned_files(repo_dir: str, pin: str) -> list[tuple[str, str]]:
    """(path, blob id) of each file in the pinned tree, sorted by path.
    Symlinks (mode 120000) and gitlinks (mode 160000) are left out."""
    files = []
    for entry in run_git("-C", repo_dir, "ls-tree", "-r", "-z", "--full-tree", pin).split("\0")[:-1]:
        meta, path = entry.split("\t", 1)
        mode, _kind, blob = meta.split(" ")
        if mode not in ("120000", "160000"):
            files.append((path, blob))
    return sorted(files)


def _read_blob(batch: subprocess.Popen, blob: str) -> bytes:
    """One object's bytes from a running `git cat-file --batch`."""
    batch.stdin.write(f"{blob}\n".encode())
    batch.stdin.flush()
    header = batch.stdout.readline()
    fields = header.split()
    data = batch.stdout.read(int(fields[2])) if len(fields) == 3 else b""
    # The object ends in a newline, read apart so the bytes are not copied to drop it.
    if len(fields) != 3 or len(data) != int(fields[2]) or batch.stdout.read(1) != b"\n":
        raise GitCommandError(f"cat-file {blob}: {header.decode('utf-8', 'replace').strip() or 'no reply'}")
    return data


def filter_tree(repo_dir: str, pin: str) -> tuple[dict, list[tuple[str, MeasuredFile]]]:
    """Classify every file in a repository's tree at the pinned commit.

    Names and bytes come from git's objects, never from a worktree, and
    the bytes of a file that its name rejects are never read. Symlinks and
    gitlinks are ignored; a missing object raises GitCommandError. A file
    whose name is not valid UTF-8 is undecodable before any rule. Returns
    the `filtered/<key>.json` payload (the counters under "stats", the
    kept paths under "kept" and a `[path, reason]` pair per file under
    "verdicts") and a `(path, measured)` pair per kept file, all in
    lexicographic path order; each measured file is what the file's only
    parse measured. A verdict's path spells a byte that is not UTF-8 as
    `\\xNN` and a backslash as `\\\\`, so no two files share one.
    """
    stats = empty_stats()
    payload = {"stats": stats, "kept": [], "verdicts": []}
    kept: list[tuple[str, MeasuredFile]] = []
    files = _pinned_files(repo_dir, pin)
    git = ["git", "-C", repo_dir, "cat-file", "--batch"]
    with subprocess.Popen(git, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=git_env()) as batch:
        for rel, blob in files:
            # A name that is not UTF-8 comes back surrogate-escaped.
            raw = os.fsencode(rel)
            reason = "undecodable" if _decode(raw) is None else _name_verdict(rel)
            # Only a file that its name does not reject has its bytes read.
            reason, measured = evaluate_file(rel, _read_blob(batch, blob)) if reason is None else (reason, None)
            stats["total"] += 1
            if reason is None:
                stats["kept"] += 1
                payload["kept"].append(rel)
                kept.append((rel, measured))
            else:
                stats["rejected"][reason] += 1
            payload["verdicts"].append([raw.replace(b"\\", b"\\\\").decode("utf-8", "backslashreplace"), reason])
    return payload, kept
