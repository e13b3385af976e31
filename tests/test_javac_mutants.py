"""A ratchet on the parser's verdicts against javac's parse phase.

Each mutant is a file of `tests/data` with one token deleted, doubled or
replaced by another token of the same file, drawn from a generator seeded
by the file's name, so a smaller sweep is the start of a larger one. cam's
verdict is whether `parse` takes the text; javac's is whether
`javac --release 8 -XDshould-stop.ifError=PARSE
-XDshould-stop.ifNoError=PARSE` reports no error for it, which checks the
syntax alone: unresolved names and a public class in a file of another
name pass. Two controls check that this still holds for the local javac.

The tier-1 test runs the first `PER_FILE` mutants of each file and fails
when a mutant on which cam and javac disagree is not pinned below, on the
same side. A mended class of disagreements shrinks the pins. Skipped where
no `javac` is on PATH.

Run as a script for a larger sweep, which prints the disagreements:

    PYTHONPATH=src python tests/test_javac_mutants.py [mutants per file]
"""

from __future__ import annotations

import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from cam.javasrc.lexer import SourceError, tokenize
from cam.javasrc.parser import parse

DATA = Path(__file__).parent / "data"
SEED = 7
PER_FILE = 80

# A file whose only faults are unresolved names, which javac's parse phase
# takes, and a syntax error, which it refuses.
CONTROL_KEEP = "class Control { Missing m = undefined(nothing); void f() { Unknown.call(); } }\n"
CONTROL_REJECT = "class Control { void f() { int x = ; } }\n"

# Mutants, by id, that cam keeps and javac's parse phase rejects: an
# expression that is not a statement (`count;`, `this.label ; label;`) and
# broken annotation arguments (`@Target({ElementType.X} })`).
CAM_KEEPS = frozenset(
    [
        "Gen0_31",
        "Gen2_42",
        "Gen3_63",
        "Gen4_15",
        "Gen4_21",
        "Gen4_50",
        "Gen4_57",
        "Gen5_11",
        "Gen5_17",
        "Gen5_54",
        "Gen8_2",
        "Gen8_28",
        "Gen9_39",
        "Grammar8_19",
        "Grammar8_39",
        "Grammar8_74",
        "Grammar8_8",
    ]
)
# Mutants, by id, that cam rejects and javac's parse phase keeps.
CAM_REJECTS = frozenset()


def mutants(per_file: int, seed: int = SEED) -> dict[str, str]:
    """The first *per_file* mutants of each `tests/data` file, by id."""
    out = {}
    for path in sorted(DATA.glob("*.java")):
        source = path.read_text(encoding="utf-8")
        tokens = tokenize(source)
        lexemes = tokens.lexemes[:-1]  # not the end-of-file entry
        rng = random.Random(f"{seed}:{path.stem}")
        for m in range(per_file):
            k = rng.randrange(len(lexemes))
            start = tokens.starts[k]
            op = rng.choice(("delete", "double", "replace"))
            if op == "delete":
                new = ""
            elif op == "double":
                new = f"{lexemes[k]} {lexemes[k]}"
            else:
                new = f" {rng.choice(lexemes)} "
            out[f"{path.stem}_{m}"] = source[:start] + new + source[start + len(lexemes[k]) :]
    return out


def cam_keeps(text: str) -> bool:
    try:
        parse(text)
    except SourceError:
        return False
    return True


def javac_rejects(javac: str, files: dict[str, str], workdir: Path) -> set[str]:
    """Ids of the *files* (id to text) that javac's parse phase rejects."""
    src = workdir / "src"
    src.mkdir()
    paths = []
    for name, text in files.items():
        path = src / f"{name}.java"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    argfile = workdir / "files.txt"
    argfile.write_text("\n".join(paths), encoding="utf-8")
    proc = subprocess.run(
        [javac, "--release", "8", "-encoding", "UTF-8", "-Xmaxerrs", "1000000",
         "-XDshould-stop.ifError=PARSE", "-XDshould-stop.ifNoError=PARSE",
         "-d", str(workdir / "out"), f"@{argfile}"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = proc.stdout + proc.stderr
    rejects = set(re.findall(rf"^{re.escape(str(src))}/(\w+)\.java:\d+: error:", output, re.M))
    assert (proc.returncode == 0) == (not rejects), output
    return rejects


def disagreements(javac: str, per_file: int, workdir: Path) -> tuple[set[str], set[str]]:
    """Mutant ids that cam keeps and javac rejects, and the reverse; fails
    when javac misjudges a control or a `tests/data` file, or cam the latter."""
    texts = mutants(per_file)
    originals = {path.stem: path.read_text(encoding="utf-8") for path in sorted(DATA.glob("*.java"))}
    controls = {"ControlKeep": CONTROL_KEEP, "ControlReject": CONTROL_REJECT}
    rejected = javac_rejects(javac, {**texts, **originals, **controls}, workdir)
    assert rejected & (set(originals) | set(controls)) == {"ControlReject"}
    assert all(cam_keeps(text) for text in originals.values())
    keeps = {name for name, text in texts.items() if cam_keeps(text)}
    return keeps & rejected, set(texts) - keeps - rejected


def test_mutant_verdicts_disagree_with_javac_only_where_pinned(tmp_path):
    javac = shutil.which("javac")
    if javac is None:
        pytest.skip("javac is not on PATH")
    keeps, rejects = disagreements(javac, PER_FILE, tmp_path)
    assert keeps - CAM_KEEPS == set()
    assert rejects - CAM_REJECTS == set()


def main(argv: list[str]) -> int:
    javac = shutil.which("javac")
    if javac is None:
        print("javac is not on PATH", file=sys.stderr)
        return 2
    per_file = int(argv[0]) if argv else 400
    with tempfile.TemporaryDirectory() as tmp:
        keeps, rejects = disagreements(javac, per_file, Path(tmp))
    total = per_file * len(list(DATA.glob("*.java")))
    print(f"{total} mutants: cam keeps {len(keeps)} that javac rejects, and rejects {len(rejects)} that javac keeps")
    for name in sorted(keeps):
        print(f"cam keeps {name}")
    for name in sorted(rejects):
        print(f"cam rejects {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
