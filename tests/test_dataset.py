import json
import math
import zipfile

import pytest

from cam.dataset import (
    SCHEMA_VERSION,
    build_manifest,
    canonical_json,
    format_value,
    generated_at,
    pack_archive,
    read_csv_rows,
    rows_to_csv_bytes,
    write_bytes_atomic,
    write_json_atomic,
)
from cam.metrics.schema import COLUMNS, HEADER
from cam.repos import DiscoveryCriteria, RepoSpec


def test_format_value():
    assert format_value("text") == "text"
    assert format_value(42) == "42"
    assert format_value(0) == "0"
    assert format_value(float("nan")) == ""
    assert format_value(0.5) == "0.5"
    assert format_value(1.0 / 3.0) == repr(1.0 / 3.0)
    assert format_value(True) == "True"


def blank_row(repo, path, name):
    row = {"repo": repo, "path": path, "class_name": name}
    for col in COLUMNS:
        row[col.name] = 0
    return row


def test_row_ordering_and_header():
    """The CSV keeps the order it is given; `measure_repo` orders the rows."""
    rows = [
        blank_row("b", "z.java", "A"),
        blank_row("a", "z.java", "B"),
        blank_row("a", "a.java", "Z"),
        blank_row("a", "a.java", "A"),
    ]
    data = rows_to_csv_bytes(rows)
    lines = data.decode("utf-8").split("\n")
    assert lines[0] == ",".join(HEADER)
    assert [line.split(",", 3)[:3] for line in lines[1:-1]] == [[r["repo"], r["path"], r["class_name"]] for r in rows]
    assert len(lines) == 1 + 4 + 1
    assert lines[-1] == ""
    assert b"\r" not in data


def test_measure_repo_orders_rows_by_path_then_class_name():
    from cam.javasrc.parser import parse
    from cam.measure import measure_file, measure_repo
    from oracle import repo_rows

    sources = {
        "b/Z.java": "class Z {}\nclass A { int a; }\nclass M {}\nclass A {}\n",
        "a/Y.java": "class Y {}\nclass B {}\n",
    }
    files = {path: measure_file(source, parse(source)) for path, source in sources.items()}
    git = {path: {"commits": 1, "authors": 1, "age_days": 0, "churn_added": 1, "churn_deleted": 0} for path in sources}
    rows = repo_rows(measure_repo("o/r", files, git))
    # Sorted by path, then by class name; the two classes named A keep their declaration order.
    assert [(r["path"], r["class_name"], r["attributes"]) for r in rows] == [
        ("a/Y.java", "B", 0),
        ("a/Y.java", "Y", 0),
        ("b/Z.java", "A", 1),
        ("b/Z.java", "A", 0),
        ("b/Z.java", "M", 0),
        ("b/Z.java", "Z", 0),
    ]


def test_csv_roundtrip(tmp_path):
    row = blank_row("r", "p.java", "C")
    row["lcom5"] = float("nan")
    row["mi"] = 99.5
    target = tmp_path / "x.csv"
    write_bytes_atomic(target, rows_to_csv_bytes([row]))
    back = read_csv_rows(target)
    assert len(back) == 1
    assert back[0]["lcom5"] == ""
    assert back[0]["mi"] == "99.5"
    assert back[0]["class_name"] == "C"


def test_read_csv_rejects_foreign_header(tmp_path):
    target = tmp_path / "bad.csv"
    target.write_bytes(b"a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_csv_rows(target)


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [1, 2], "c": "ué"})
    b = canonical_json({"a": [1, 2], "c": "ué", "b": 1})
    assert a == b
    assert a == '{"a":[1,2],"b":1,"c":"ué"}'.encode("utf-8")


def test_write_json_atomic_trailing_newline(tmp_path):
    target = tmp_path / "m.json"
    write_json_atomic(target, {"k": 1})
    data = target.read_bytes()
    assert data.endswith(b"\n")
    assert json.loads(data) == {"k": 1}
    assert not list(tmp_path.glob("*.tmp"))


def spec(name, sha, when="2020-01-04T10:00:00Z"):
    return RepoSpec(name, 5, 10, "main", sha, when)


def test_generated_at_policies():
    specs = [spec("a/a", "a" * 40, "2020-01-02T00:00:00Z"), spec("b/b", "b" * 40, "2020-03-02T00:00:00Z")]
    assert generated_at(specs) == "2020-03-02T00:00:00Z"
    assert generated_at([]) == "1970-01-01T00:00:00Z"


def test_pack_archive_is_deterministic(tmp_path):
    members = {"b.txt": [b"bee"], "a/one.csv": [b"x,", b"y\n"], "a.txt": [b"ay"]}
    first = tmp_path / "one.zip"
    second = tmp_path / "two.zip"
    pack_archive(first, members)
    pack_archive(second, dict(reversed(list(members.items()))))
    assert first.read_bytes() == second.read_bytes()
    with zipfile.ZipFile(first) as zf:
        names = zf.namelist()
        assert names == sorted(members)
        for info in zf.infolist():
            assert info.date_time == (1980, 1, 1, 0, 0, 0)
            assert info.external_attr >> 16 == 0o644
            assert info.create_system == 3
        assert zf.read("a/one.csv") == b"x,y\n"


def test_pack_archive_streams_parts_as_writestr_would(tmp_path):
    body = b"".join(b"row,%d\n" % i for i in range(50_000))
    source = tmp_path / "rows.csv"
    source.write_bytes(b"head\n" + body)
    streamed = tmp_path / "streamed.zip"
    pack_archive(streamed, {"all.csv": [b"top\n", (source, 5), b"end\n"], "one.csv": [(source, 0)], "e": []})

    written = tmp_path / "written.zip"
    with zipfile.ZipFile(written, "w") as archive:
        for name, data in (("all.csv", b"top\n" + body + b"end\n"), ("e", b""), ("one.csv", source.read_bytes())):
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.external_attr = 0o644 << 16
            info.create_system = 3
            archive.writestr(info, data, compress_type=zipfile.ZIP_DEFLATED, compresslevel=6)
    assert streamed.read_bytes() == written.read_bytes()


def test_build_manifest_shape():
    criteria = DiscoveryCriteria()
    entries = [
        {
            "full_name": "b/b",
            "stars": 5,
            "size_kb": 10,
            "default_branch": "main",
            "head_commit": "b" * 40,
            "discovered_at": "2020-01-04T10:00:00Z",
            "status": "ok",
            "failure": None,
            "filter_stats": {"total": 2, "kept": 1, "rejected": {"unparseable": 1}},
            "classes": 3,
            "inheritance_cycles": [],
        },
        {
            "full_name": "a/a",
            "stars": 9,
            "size_kb": 11,
            "default_branch": "main",
            "head_commit": "a" * 40,
            "discovered_at": "2020-01-04T10:00:00Z",
            "status": "failed",
            "failure": "clone-error",
            "filter_stats": None,
            "classes": 0,
            "inheritance_cycles": [],
        },
    ]
    global_stats = {"total": 2, "kept": 1, "rejected": {r: 0 for r in (
        "not-java-ext", "forbidden-name", "undecodable", "too-long-line", "test-file", "unparseable"
    )}}
    global_stats["rejected"]["unparseable"] = 1
    manifest = build_manifest(
        criteria.to_dict(),
        entries,
        global_stats,
        {"cap_exceeded": False, "total_available": 2},
        stamp="2020-01-04T10:00:00Z",
    )
    assert manifest["schema_version"] == SCHEMA_VERSION
    assert manifest["generated_at"] == "2020-01-04T10:00:00Z"
    assert manifest["tool"]["name"] == "cam"
    assert manifest["reproducible"] is True
    assert manifest["criteria"]["language"] == "java"
    assert [r["full_name"] for r in manifest["repos"]] == ["a/a", "b/b"]
    assert len(manifest["metric_schema"]) == len(COLUMNS)
    for entry in manifest["metric_schema"]:
        assert set(entry) == {"name", "hash"}
        assert len(entry["hash"]) == 12
    assert manifest["parse_rejects"] == 1
    assert manifest["discovery"] == {"cap_exceeded": False, "total_available": 2}


def test_manifest_hashes_track_definitions():
    from cam.metrics.schema import COLUMNS as cols
    import hashlib

    for col in cols:
        digest = hashlib.sha256(f"{col.name}: {col.definition}".encode("utf-8")).hexdigest()[:12]
        assert col.definition_hash == digest


def test_nan_formats_to_empty_everywhere():
    row = blank_row("r", "p.java", "C")
    for col in ("lcom5", "nhd", "tcc", "mi", "halstead_volume", "halstead_difficulty", "halstead_effort"):
        row[col] = math.nan
    text = rows_to_csv_bytes([row]).decode("utf-8")
    body = text.split("\n")[1]
    assert ",," in body
    assert "nan" not in body.lower()
