"""File selection rules applied to a cloned repository tree.

Rules run in a fixed order and the first hit wins, so every rejected file
carries exactly one reason. The same ordering governs the aggregate
counters that end up in the manifest.
"""

from __future__ import annotations

import fnmatch
import os
import re
from dataclasses import dataclass
from pathlib import Path

from cam.javasrc.lexer import LexError
from cam.javasrc.model import CompilationUnit
from cam.javasrc.parser import JavaSyntaxError, parse

REASONS = (
    "not-java-ext",
    "forbidden-name",
    "undecodable",
    "too-long-line",
    "test-file",
    "unparseable",
)

MAX_LINE_LENGTH = 1024

_FORBIDDEN_BASENAMES = frozenset({"package-info.java", "module-info.java"})
_TEST_DIR_SEGMENTS = frozenset({"test", "tests", "testfixtures"})
_TEST_NAME_PATTERNS = ("*Test.java", "*Tests.java", "*TestCase.java", "Test*.java")
_TEST_IMPORT_RE = re.compile(
    r"^\s*import\s+(static\s+)?(org\.junit|junit\.framework|org\.testng)",
    re.MULTILINE,
)
_LONE_CR_RE = re.compile(r"\r(?!\n)")


@dataclass(frozen=True)
class FileVerdict:
    path: str
    kept: bool
    reason: str | None


@dataclass
class FileRecord:
    path: str
    unit: CompilationUnit


@dataclass
class FilterOutcome:
    kept: list[FileRecord]
    verdicts: list[FileVerdict]
    stats: dict


def _decode(data: bytes) -> str | None:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return None


def _has_long_line(content: str) -> bool:
    for line in content.split("\n"):
        if line.endswith("\r"):
            line = line[:-1]
        if len(line) > MAX_LINE_LENGTH:
            return True
    return False


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


def evaluate_file(relpath: str, data: bytes) -> tuple[str | None, CompilationUnit | None]:
    """Apply the rule chain to one file.

    Returns (reason, unit): a kept file has reason None and its parsed
    unit, which carries the text that is measured; a rejected file has
    its reason and no unit.
    """
    if not relpath.endswith(".java"):
        return "not-java-ext", None
    if relpath.rsplit("/", 1)[-1] in _FORBIDDEN_BASENAMES:
        return "forbidden-name", None
    content = _decode(data)
    if content is None:
        return "undecodable", None
    if _has_long_line(content):
        return "too-long-line", None
    if _looks_like_test(relpath, content):
        return "test-file", None
    try:
        unit = parse(content)
    except (LexError, JavaSyntaxError):
        return "unparseable", None
    if _LONE_CR_RE.search(content):
        # Metrics are taken on universal-newline text, where a lone "\r"
        # ends a line; the verdict above stays on the raw text.
        unit = parse(content.replace("\r\n", "\n").replace("\r", "\n"))
    return None, unit


def _walk_files(root: Path) -> list[tuple[str, Path]]:
    found: list[tuple[str, Path]] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if d != ".git" and not os.path.islink(os.path.join(dirpath, d))
        )
        for name in sorted(filenames):
            full = Path(dirpath) / name
            if full.is_symlink():
                continue
            rel = full.relative_to(root).as_posix()
            found.append((rel, full))
    found.sort(key=lambda item: item[0])
    return found


def empty_stats() -> dict:
    return {"total": 0, "kept": 0, "rejected": {reason: 0 for reason in REASONS}}


def merge_stats(target: dict, extra: dict) -> dict:
    target["total"] += extra["total"]
    target["kept"] += extra["kept"]
    for reason in REASONS:
        target["rejected"][reason] += extra["rejected"][reason]
    return target


def filter_tree(root: str | Path) -> FilterOutcome:
    """Walk a repository checkout and classify every regular file.

    Symlinks are ignored entirely and the .git directory is never entered.
    Verdicts and kept records come back in lexicographic relative-path
    order; each kept record holds the file's only parse.
    """
    root = Path(root)
    kept: list[FileRecord] = []
    verdicts: list[FileVerdict] = []
    stats = empty_stats()
    for rel, full in _walk_files(root):
        reason, unit = evaluate_file(rel, full.read_bytes())
        stats["total"] += 1
        if reason is None:
            stats["kept"] += 1
            kept.append(FileRecord(rel, unit))
            verdicts.append(FileVerdict(rel, True, None))
        else:
            stats["rejected"][reason] += 1
            verdicts.append(FileVerdict(rel, False, reason))
    return FilterOutcome(kept, verdicts, stats)
