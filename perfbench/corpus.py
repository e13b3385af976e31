"""Seeded local corpora: bare git repositories plus a replay directory.

Each workload builder writes repositories with `git fast-import` (one
process per repository, however many commits) and a replay directory of
the same shape the test suite uses: recorded search and branch responses
in `index.json` plus `remotes.json` mapping each repository to its local
path. cam sees only these files; the seed never reaches it.

A builder returns a `Corpus` holding what it planted, which is what the
benchmark checks cam's output against.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

from javagen import java_class

EPOCH = 1577836800  # 2020-01-01T00:00:00Z
DAY = 86400
REPLAY_DATE = "Sat, 04 Jan 2020 10:00:00 GMT"
AUTHORS = (
    ("Ada Dev", "ada@example.com"),
    ("Ben Dev", "Ben@Example.com"),
    ("Cy Dev", "cy@example.com"),
    ("Di Dev", "di@example.com"),
)

# Git must not read the user's or the system's configuration, so a corpus
# and cam's view of it do not depend on the machine.
GIT_ISOLATION = {
    "GIT_CONFIG_NOSYSTEM": "1",
    "GIT_CONFIG_GLOBAL": os.devnull,
    "GIT_TERMINAL_PROMPT": "0",
}


@dataclass
class Corpus:
    replay: Path
    repos: int
    total_files: int = 0
    rejected: dict[str, int] = field(default_factory=dict)
    classes: int = 0
    failures: dict[str, str] = field(default_factory=dict)

    def plant(self, reason: str | None) -> None:
        """Record one file of a repository that should succeed: a kept
        one-class file when *reason* is None, else a reject for *reason*."""
        self.total_files += 1
        if reason is None:
            self.classes += 1
        else:
            self.rejected[reason] = self.rejected.get(reason, 0) + 1


class FastImport:
    """Builds one fast-import stream in memory."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []
        self._marks = 0

    def commit(
        self,
        ops: list[tuple],
        when: int,
        author: tuple[str, str],
        message: str,
        ref: str = "refs/heads/main",
        parent: int | None = None,
        merge: int | None = None,
    ) -> int:
        """Append a commit; ops are ("M", path, bytes), ("D", path) or ("R", old, new)."""
        self._marks += 1
        name, email = author
        msg = message.encode("utf-8")
        out = [
            f"commit {ref}\nmark :{self._marks}\n".encode(),
            f"author {name} <{email}> {when} +0000\n".encode(),
            f"committer {name} <{email}> {when} +0000\n".encode(),
            b"data %d\n%s\n" % (len(msg), msg),
        ]
        if parent is not None:
            out.append(b"from :%d\n" % parent)
        if merge is not None:
            out.append(b"merge :%d\n" % merge)
        for op in ops:
            if op[0] == "M":
                out.append(b"M 100644 inline %s\ndata %d\n%s\n" % (op[1].encode(), len(op[2]), op[2]))
            elif op[0] == "D":
                out.append(b"D %s\n" % op[1].encode())
            else:
                out.append(b"R %s %s\n" % (op[1].encode(), op[2].encode()))
        self._parts.append(b"".join(out))
        return self._marks

    def write(self, path: Path) -> str:
        """Create a bare repository at *path* from the stream; return main's sha."""
        git("init", "-q", "--bare", "-b", "main", str(path))
        git("--git-dir", str(path), "fast-import", "--quiet", stdin=b"".join(self._parts) + b"done\n")
        return git("--git-dir", str(path), "rev-parse", "refs/heads/main").strip()


def git(*args: str, stdin: bytes | None = None) -> str:
    proc = subprocess.run(["git", *args], input=stdin, capture_output=True, env={**os.environ, **GIT_ISOLATION})
    if proc.returncode != 0:
        raise RuntimeError(f"git {args[0]} failed: {proc.stderr.decode(errors='replace')}")
    return proc.stdout.decode()


def write_replay(replay: Path, repos: list[tuple[str, str, str]]) -> None:
    """Replay directory for (full_name, remote_path, head_sha) entries.

    The URLs come from cam's own helpers, so they match whatever discovery
    asks for with default criteria.
    """
    from cam.repos import DiscoveryCriteria, branch_url, search_url

    replay.mkdir(parents=True)
    index = []

    def record(url: str, body: dict, fname: str) -> None:
        (replay / fname).write_text(json.dumps(body), encoding="utf-8")
        index.append({"url": url, "file": fname, "status": 200, "headers": {"Date": REPLAY_DATE}})

    items = [
        {"full_name": name, "stargazers_count": 9000 - pos, "size": 500, "default_branch": "main"}
        for pos, (name, _path, _sha) in enumerate(repos)
    ]
    record(search_url(DiscoveryCriteria(), 1), {"total_count": len(items), "items": items}, "search-1.json")
    for pos, (name, _path, sha) in enumerate(repos):
        record(branch_url(name, "main"), {"commit": {"sha": sha}}, f"branch-{pos}.json")
    (replay / "index.json").write_text(json.dumps(index), encoding="utf-8")
    remotes = {name: path for name, path, _sha in repos}
    (replay / "remotes.json").write_text(json.dumps(remotes), encoding="utf-8")


def _single_commit(path: Path, files: dict[str, bytes], when: int, author: tuple[str, str]) -> str:
    stream = FastImport()
    stream.commit([("M", rel, data) for rel, data in sorted(files.items())], when, author, "import sources")
    return stream.write(path)


def _failing_repos(root: Path, rng: random.Random, corpus: Corpus, kinds: tuple[str, ...]) -> list:
    """Repositories that fail by design: a missing remote or an unknown pin."""
    entries = []
    for kind in kinds:
        name = f"broken/{kind}"
        if kind == "clone-error":
            entries.append((name, str(root / "remotes" / "missing"), f"{rng.getrandbits(160):040x}"))
        else:
            path = root / "remotes" / f"unpinned-{len(entries)}"
            java = java_class(rng.getrandbits(32), "com.bench.lost", "Lost", 1200).encode()
            _single_commit(path, {"src/Lost.java": java}, EPOCH, AUTHORS[0])
            entries.append((name, str(path), f"{rng.getrandbits(160):040x}"))
        corpus.failures[name] = kind
    return entries


def large_sources(root: Path, seed: int, scale: float = 1.0) -> Corpus:
    """Few repositories of large generated classes, one commit each.

    Class sizes form a fixed 3-30 KB ladder and the seed only shuffles it
    within each repository and picks each class's content, so the bytes per
    repository barely move between seeds and neither does the run time.
    """
    rng = random.Random(seed)
    n_classes = max(4, round(96 * scale))
    n_repos = 2
    ladder = [3000 + (27000 * i) // max(1, n_classes - 1) for i in range(n_classes)]
    # Deal the ladder out back and forth so every repository gets about the
    # same bytes, which keeps the two workers' overlap the same per seed.
    dealt: list[list[int]] = [[] for _ in range(n_repos)]
    for i, size in enumerate(ladder):
        turn, pos = divmod(i, n_repos)
        dealt[pos if turn % 2 == 0 else n_repos - 1 - pos].append(size)
    corpus = Corpus(root / "replay", repos=n_repos + 1)
    entries = []
    for r in range(n_repos):
        files: dict[str, bytes] = {}
        names: list[str] = []
        sizes = dealt[r]
        rng.shuffle(sizes)
        for i, size in enumerate(sizes):
            name = f"Large{r}x{i}"
            parent = rng.choice(names) if names and rng.random() < 0.3 else None
            package = f"com.bench.large{r}.m{i % 3}"
            text = java_class(rng.getrandbits(32), package, name, size, parent=parent)
            files[f"src/main/java/com/bench/large{r}/m{i % 3}/{name}.java"] = text.encode()
            names.append(name)
            corpus.plant(None)
        path = root / "remotes" / f"large{r}"
        entries.append((f"bench/large-{r}", str(path), _single_commit(path, files, EPOCH + r * DAY, AUTHORS[r % 4])))
    entries += _failing_repos(root, rng, corpus, ("clone-error",))
    write_replay(corpus.replay, entries)
    return corpus


def _history_repo(path: Path, rng: random.Random, n_files: int, n_commits: int, per_commit: int) -> str:
    """One repository with a long edit history and every awkward history shape.

    Shapes planted for a whole-repository history reader: a rename with an
    edit in one commit, a rename chain, a delete followed by a re-add, a
    binary file with `-` numstat lines and a merge commit of a side branch.
    All *n_files* Java files exist at the pin. Returns the pin.
    """
    ids = list(range(n_files))
    seeds = [rng.getrandbits(32) for _ in ids]
    revs = [0] * n_files
    paths = [f"src/main/java/com/bench/hist/p{i % 4}/Hist{i}.java" for i in ids]

    def text(i: int) -> bytes:
        pkg = paths[i].rsplit("/", 1)[0].removeprefix("src/main/java/").replace("/", ".")
        return java_class(seeds[i], pkg, f"Hist{i}", 1200, revision=revs[i]).encode()

    def binary() -> bytes:
        return bytes(rng.getrandbits(8) for _ in range(256)) + b"\0"

    stream = FastImport()
    when = EPOCH
    ops = [("M", paths[i], text(i)) for i in ids] + [("M", "assets/icon.bin", binary())]
    last = stream.commit(ops, when, AUTHORS[0], "initial import")

    # Files reserved for the shapes are kept out of the random edits so each
    # shape is exactly what it says.
    renamed, chained, readded = 0, 1, 2
    special = {renamed, chained, readded}
    live = [i for i in ids if i not in special]
    side_files = live[:3]
    main_pool = live[3:]
    shape_at = {
        n_commits // 6: "rename-edit",
        n_commits // 4: "chain-1",
        n_commits // 3: "delete",
        n_commits // 2: "chain-2",
        (2 * n_commits) // 3: "re-add",
        (3 * n_commits) // 4: "merge",
    }
    for c in range(1, n_commits):
        when += 3600 * (1 + rng.randrange(48))
        author = AUTHORS[rng.randrange(len(AUTHORS))]
        shape = shape_at.get(c)
        if shape == "rename-edit":
            old, paths[renamed] = paths[renamed], paths[renamed].replace("/p", "/moved/p")
            revs[renamed] += 1
            last = stream.commit([("R", old, paths[renamed]), ("M", paths[renamed], text(renamed))], when, author, "move and edit")
            continue
        if shape in ("chain-1", "chain-2"):
            old, paths[chained] = paths[chained], paths[chained].replace("/hist/", "/hist/x/")
            last = stream.commit([("R", old, paths[chained])], when, author, "move")
            continue
        if shape == "delete":
            last = stream.commit([("D", paths[readded])], when, author, "drop file")
            continue
        if shape == "re-add":
            revs[readded] += 1
            last = stream.commit([("M", paths[readded], text(readded))], when, author, "restore file")
            continue
        if shape == "merge":
            side = last
            for step, i in enumerate(side_files):
                revs[i] += 1
                side = stream.commit(
                    [("M", paths[i], text(i))], when + step * 60, AUTHORS[3], "side edit",
                    ref="refs/heads/side", parent=side,
                )
            for step in range(2):
                i = main_pool[rng.randrange(len(main_pool))]
                revs[i] += 1
                last = stream.commit([("M", paths[i], text(i))], when + step * 60, author, "main edit")
            last = stream.commit(
                [("M", paths[i], text(i)) for i in side_files], when + 600, author, "merge side",
                parent=last, merge=side,
            )
            continue
        edits = rng.sample(main_pool, per_commit)
        ops = []
        for i in sorted(edits):
            revs[i] += 1
            ops.append(("M", paths[i], text(i)))
        if c % 20 == 0:
            ops.append(("M", "assets/icon.bin", binary()))
        last = stream.commit(ops, when, author, f"edit {c}")
    return stream.write(path)


def deep_history(root: Path, seed: int, scale: float = 1.0) -> Corpus:
    """Few repositories of small files with hundreds of commits each."""
    rng = random.Random(seed)
    n_repos = 2
    n_files = max(12, round(64 * scale))
    n_commits = max(24, round(300 * scale))
    corpus = Corpus(root / "replay", repos=n_repos + 1)
    entries = []
    for r in range(n_repos):
        path = root / "remotes" / f"hist{r}"
        sha = _history_repo(path, rng, n_files, n_commits, per_commit=5)
        for _ in range(n_files):
            corpus.plant(None)
        corpus.plant("not-java-ext")
        entries.append((f"bench/hist-{r}", str(path), sha))
    entries += _failing_repos(root, rng, corpus, ("pin-unreachable",))
    write_replay(corpus.replay, entries)
    return corpus


def _small_repo_files(rng: random.Random, r: int, kept: int) -> dict[str, tuple[bytes, str | None]]:
    """Files of one small repository with one planted reject per filter rule."""
    base = f"src/main/java/com/bench/s{r}"
    pkg = f"com.bench.s{r}"
    files: dict[str, tuple[bytes, str | None]] = {}
    sizes = [400 + (1200 * i) // max(1, kept - 1) for i in range(kept)]
    rng.shuffle(sizes)
    for i, size in enumerate(sizes):
        files[f"{base}/Small{i}.java"] = (java_class(rng.getrandbits(32), pkg, f"Small{i}", size).encode(), None)
    plain = java_class(rng.getrandbits(32), pkg, "Widget", 800)
    files["README.md"] = (f"# small repository {r}\n".encode(), "not-java-ext")
    files[f"{base}/package-info.java"] = (f"package {pkg};\n".encode(), "forbidden-name")
    files[f"{base}/Legacy.java"] = (b"// caf\xe9\n" + plain.encode(), "undecodable")
    long_line = f'    private static final String BLOB = "{"x" * 1100}";\n'
    files[f"{base}/Blob.java"] = (plain.replace("    private int count;\n", long_line + "    private int count;\n").encode(), "too-long-line")
    files[f"src/test/java/com/bench/s{r}/Helper.java"] = (plain.encode(), "test-file")
    files[f"{base}/WidgetTest.java"] = (plain.encode(), "test-file")
    files[f"{base}/Point.java"] = (f"package {pkg};\n\npublic record Point(int x, int y) {{}}\n".encode(), "unparseable")
    return files


def many_small_repos(root: Path, seed: int, scale: float = 1.0) -> Corpus:
    """Many small repositories, a third of their files rejected, two failing."""
    rng = random.Random(seed)
    n_repos = max(3, round(24 * scale))
    corpus = Corpus(root / "replay", repos=n_repos + 2)
    entries = []
    for r in range(n_repos):
        files = _small_repo_files(rng, r, kept=12)
        for _data, reason in files.values():
            corpus.plant(reason)
        path = root / "remotes" / f"small{r}"
        sha = _single_commit(path, {k: v[0] for k, v in files.items()}, EPOCH + r * 3600, AUTHORS[r % 4])
        entries.append((f"bench/small-{r:02d}", str(path), sha))
    entries += _failing_repos(root, rng, corpus, ("clone-error", "pin-unreachable"))
    write_replay(corpus.replay, entries)
    return corpus


WORKLOADS = {
    "large_sources": large_sources,
    "deep_history": deep_history,
    "many_small_repos": many_small_repos,
}


def build(workload: str, root: Path, seed: int, scale: float = 1.0) -> Corpus:
    """Build the corpus for *workload* under a fresh *root*."""
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    return WORKLOADS[workload](root, seed, scale)
