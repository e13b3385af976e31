"""Acceptance gate: one test per shipping criterion, one PASS/FAIL line each.

Each test prints its verdict on the real terminal (bypassing capture) so a
`pytest -v` run shows an explicit line per criterion even when everything
is green.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import time
import zipfile
from pathlib import Path

import pytest

from cam.cli import main
from cam.filters import MAX_LINE_LENGTH, evaluate_file, filter_tree
from cam.gitstats import file_history
from cam.javasrc.parser import parse
from cam.measure import measure_file, measure_repo
from cam.metrics.schema import HEADER
from cam.repos import DiscoveryCriteria

import fixtures
from conftest import AUTHOR_B, build_replay_dir, commit_all, init_repo, single_commit_repo
from oracle import COHESION_COLUMNS, INT_COLUMNS, measure_case, row_mismatches, synthetic_git
from test_metrics_code import COUNTED_SEPARATORS, EXCLUDED_KEYWORDS
from test_metrics_oo import (
    brute_lcom1,
    brute_lcom5,
    brute_nhd,
    brute_tcc,
    random_access_matrix,
    random_param_matrix,
)

GIT_COLUMNS = ("commits", "authors", "age_days", "churn_added", "churn_deleted")
SOURCES = {case.file: case.source for case in fixtures.CASES}


def verdict(capsys, name: str):
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            with capsys.disabled():
                print(f"{'FAIL' if exc_type else 'PASS'} {name}")
            return False

    return _Reporter()


def test_criterion_metric_oracle_suite(capsys):
    with verdict(capsys, "metric oracle suite (38 hand-derived rows, 48 columns, <5s)"):
        start = time.perf_counter()
        problems = []
        rows = 0
        for case in fixtures.CASES:
            git = synthetic_git(next(iter(case.classes.values()))["loc"])
            measured = measure_case(case, git_columns=git)
            if set(measured) != set(case.classes):
                problems.append(f"{case.file}: classes {sorted(measured)}")
                continue
            for name, expected in case.classes.items():
                rows += 1
                problems += [f"{case.file}/{name}: {m}" for m in row_mismatches(measured[name], expected)]
                problems += [
                    f"{case.file}/{name}: {col} not passed through"
                    for col in GIT_COLUMNS
                    if measured[name][col] != git[col]
                ]
        elapsed = time.perf_counter() - start

        covered = set(INT_COLUMNS) | set(COHESION_COLUMNS) | set(GIT_COLUMNS)
        covered |= {"kloc", "halstead_n1", "halstead_n2", "halstead_N1", "halstead_N2"}
        covered |= {"halstead_volume", "halstead_difficulty", "halstead_effort", "mi"}
        assert covered == set(HEADER[3:]) and len(covered) == 48
        assert len(fixtures.CASES) >= 30
        assert rows == 38
        assert problems == []
        assert elapsed < 5.0


def test_criterion_cohesion_brute_force(capsys):
    with verdict(capsys, "cohesion closed forms match 1000 brute-force matrices at 1e-12"):
        rng = random.Random(48484848)

        def same(got, want):
            if isinstance(want, float) and math.isnan(want):
                return isinstance(got, float) and math.isnan(got)
            return abs(got - want) <= 1e-12

        from cam.metrics.oo import lcom1, lcom5, nhd, tcc

        for _ in range(1000):
            access = random_access_matrix(rng)
            assert same(lcom5(access), brute_lcom5(access))
            assert same(tcc(access), brute_tcc(access))
            assert lcom1(access) == brute_lcom1(access)
            params = random_param_matrix(rng)
            assert same(nhd(params), brute_nhd(params))


def test_criterion_halstead_identity(capsys):
    with verdict(capsys, "Halstead V=N*log2(n) and E=D*V on 100 random slices at 1e-12"):
        from cam.javasrc.lexer import KEYWORDS, tokenize
        from cam.metrics.code import halstead

        rng = random.Random(1212)
        pool = sorted(KEYWORDS) + ["alpha", "b2", "$c"]
        symbols = ["{", "}", "(", ")", ";", ",", ".", "@", "::", "...", "+", "->", "?", ":"]
        literals = ['"s"', "'c'", "7", "2.5", "0x2A"]
        for _ in range(100):
            parts = []
            for _ in range(rng.randrange(0, 80)):
                parts.append(rng.choice((pool, symbols, literals)[rng.randrange(3)]))
            tokens = tokenize(" ".join(parts))
            toks = list(zip(tokens.kinds, tokens.lexemes))[:-1]
            h = halstead(tokens, (0, len(toks)))

            operators: dict[str, int] = {}
            operands: dict[str, int] = {}
            for kind, lexeme in toks:
                if kind == "identifier" or kind.startswith("literal-"):
                    operands[lexeme] = operands.get(lexeme, 0) + 1
                elif kind == "keyword" and lexeme not in EXCLUDED_KEYWORDS:
                    operators[lexeme] = operators.get(lexeme, 0) + 1
                elif kind == "operator":
                    operators[lexeme] = operators.get(lexeme, 0) + 1
                elif kind == "separator" and lexeme in COUNTED_SEPARATORS:
                    operators[lexeme] = operators.get(lexeme, 0) + 1
            n = len(operators) + len(operands)
            big_n = sum(operators.values()) + sum(operands.values())
            assert (h["halstead_n1"], h["halstead_n2"]) == (len(operators), len(operands))
            assert (h["halstead_N1"], h["halstead_N2"]) == (sum(operators.values()), sum(operands.values()))
            volume, difficulty, effort = h["halstead_volume"], h["halstead_difficulty"], h["halstead_effort"]
            if n == 0:
                assert math.isnan(volume)
                continue
            assert abs(volume - big_n * math.log2(n)) <= 1e-12
            if operands:
                expected_d = (len(operators) / 2.0) * (sum(operands.values()) / len(operands))
                assert abs(difficulty - expected_d) <= 1e-12
                assert abs(effort - difficulty * volume) <= 1e-12
            else:
                assert math.isnan(difficulty) and math.isnan(effort)


def test_criterion_filter_suite(capsys, tmp_path):
    with verdict(capsys, "filter tree hits all six rejection reasons plus the 1024/1025 boundary"):
        edge = "// " + "x" * (MAX_LINE_LENGTH - 3)
        over = "// " + "x" * (MAX_LINE_LENGTH - 2)
        assert len(edge) == MAX_LINE_LENGTH and len(over) == MAX_LINE_LENGTH + 1
        tree = {
            "src/Keep.java": b"class Keep {}\n",
            "src/Edge.java": edge.encode() + b"\nclass Edge {}\n",
            "src/Long.java": over.encode() + b"\nclass Long {}\n",
            "src/notes.txt": b"not java\n",
            "src/package-info.java": b"package p;\n",
            "src/Bytes.java": b"class B {}\xff\xfe\n",
            "src/test/Util.java": b"class Util {}\n",
            "src/Rec.java": b"record Rec(int x) {}\n",
        }
        repo, pin = single_commit_repo(tmp_path / "repo", tree)

        payload, kept = filter_tree(str(repo), pin)
        assert [path for path, _measured in kept] == payload["kept"] == ["src/Edge.java", "src/Keep.java"]
        assert payload["verdicts"] == [
            ["src/Bytes.java", "undecodable"],
            ["src/Edge.java", None],
            ["src/Keep.java", None],
            ["src/Long.java", "too-long-line"],
            ["src/Rec.java", "unparseable"],
            ["src/notes.txt", "not-java-ext"],
            ["src/package-info.java", "forbidden-name"],
            ["src/test/Util.java", "test-file"],
        ]
        assert payload["stats"] == {
            "total": 8,
            "kept": 2,
            "rejected": {
                "not-java-ext": 1,
                "forbidden-name": 1,
                "undecodable": 1,
                "too-long-line": 1,
                "test-file": 1,
                "unparseable": 1,
            },
        }


def test_criterion_end_to_end_determinism(capsys, tmp_path):
    with verdict(capsys, "end-to-end over 3 replayed repos: 51-field rows, identical bytes, <60s"):
        start = time.perf_counter()
        alpha, alpha_sha = single_commit_repo(
            tmp_path / "remotes" / "alpha",
            {
                "src/Greeter.java": SOURCES["Greeter.java"],
                "src/Counter.java": SOURCES["Counter.java"],
                "src/test/Sample.java": "class Sample {}\n",
                "src/Broken.java": "record Broken(int w) {}\n",
                "notes.txt": "not java\n",
            },
        )
        beta, beta_sha = single_commit_repo(
            tmp_path / "remotes" / "beta",
            {"app/App.java": "class App {\n  void run() {\n  }\n}\n"},
        )
        gamma, gamma_sha = single_commit_repo(
            tmp_path / "remotes" / "gamma",
            {"src/Zoo.java": SOURCES["Zoo.java"], "src/IFace.java": SOURCES["IFace.java"]},
        )
        replay = build_replay_dir(
            tmp_path / "replay",
            DiscoveryCriteria(),
            [
                ("acme/alpha", 500, 400, alpha, alpha_sha),
                ("acme/beta", 400, 300, beta, beta_sha),
                ("zed/gamma", 300, 200, gamma, gamma_sha),
            ],
        )

        archives = []
        for label, jobs in (("one", 1), ("two", 1), ("eight", 8)):
            work = tmp_path / f"work_{label}"
            args = ["run", "--workdir", str(work), "--replay", str(replay)]
            args += ["--quiet", "--jobs", str(jobs)]
            assert main(args) == 0
            archives.append((work / "dataset.zip").read_bytes())
        assert archives[0] == archives[1] == archives[2]

        with zipfile.ZipFile(io.BytesIO(archives[0])) as archive:
            all_csv = archive.read("data/all.csv").decode("utf-8")
            manifest = json.loads(archive.read("manifest.json"))
        parsed = list(csv.reader(io.StringIO(all_csv)))
        assert parsed[0] == list(HEADER)
        assert len(HEADER) == 51 and len(HEADER[3:]) == 48
        assert all(len(row) == 51 for row in parsed)
        assert len(parsed) == 1 + 8
        assert manifest["parse_rejects"] == 1
        assert len(manifest["metric_schema"]) == 48
        assert time.perf_counter() - start < 60.0


def test_criterion_modern_syntax_rejected(capsys, tmp_path):
    with verdict(capsys, "Java-21 record syntax is rejected as unparseable"):
        source = b"public record Point(int x, int y) {}\n"
        reason, measured = evaluate_file("src/Point.java", source)
        assert reason == "unparseable"
        assert measured is None

        repo, pin = single_commit_repo(tmp_path / "repo", {"src/Point.java": source})
        payload, kept = filter_tree(str(repo), pin)
        assert payload["stats"]["rejected"]["unparseable"] == 1
        assert payload["kept"] == kept == []


def test_criterion_throughput(capsys):
    with verdict(capsys, "parse + measure 1024 files in under 30s"):
        sources = {}
        git = {}
        for copy in range(32):
            for case in fixtures.CASES:
                rel = f"gen{copy:02d}/{case.file}"
                sources[rel] = case.source
                git[rel] = synthetic_git(next(iter(case.classes.values()))["loc"])
        assert len(sources) == 1024

        start = time.perf_counter()
        files = {rel: measure_file(source, parse(source)) for rel, source in sources.items()}
        result = measure_repo("bulk/corpus", files, git)
        elapsed = time.perf_counter() - start
        assert len(result.rows) == 38 * 32
        assert elapsed < 30.0


def test_criterion_git_history_suite(capsys, tmp_path):
    with verdict(capsys, "git history fixtures: single-commit, multi-author, rename"):
        single, single_sha = single_commit_repo(
            tmp_path / "single", {"A.java": "a\nb\nc\nd\ne\n"}
        )
        assert file_history(str(single), single_sha, ["A.java"])["A.java"] == {
            "commits": 1,
            "authors": 1,
            "age_days": 0,
            "churn_added": 5,
            "churn_deleted": 0,
        }

        multi = init_repo(tmp_path / "multi")
        (multi / "A.java").write_text("one\ntwo\nthree\n", encoding="utf-8")
        commit_all(multi, "add A", when="2020-01-01T00:00:00Z")
        (multi / "B.java").write_text("other\n", encoding="utf-8")
        commit_all(multi, "add B", when="2020-01-04T00:00:00Z")
        (multi / "A.java").write_text("one\ntwo\nfour\nfive\n", encoding="utf-8")
        pin = commit_all(multi, "edit A", when="2020-01-11T12:00:00Z", author=AUTHOR_B)
        columns = file_history(str(multi), pin, ["A.java"])["A.java"]
        assert columns["commits"] == 2
        assert columns["authors"] == 2
        assert columns["age_days"] == 10

        renamed = init_repo(tmp_path / "renamed")
        (renamed / "R.java").write_text("r1\nr2\nr3\nr4\nr5\n", encoding="utf-8")
        commit_all(renamed, "add R", when="2020-01-01T00:00:00Z")
        (renamed / "R.java").rename(renamed / "S.java")
        commit_all(renamed, "rename R to S", when="2020-01-02T00:00:00Z")
        (renamed / "S.java").write_text("r1\nr2\nr3\nr4\nr5\nr6\n", encoding="utf-8")
        pin = commit_all(renamed, "extend S", when="2020-01-03T00:00:00Z")
        columns = file_history(str(renamed), pin, ["S.java"])["S.java"]
        assert columns["commits"] == 3
        assert columns["age_days"] == 2
        current_lines = len((renamed / "S.java").read_text(encoding="utf-8").splitlines())
        assert columns["churn_added"] >= current_lines
        assert columns["churn_deleted"] == 0
