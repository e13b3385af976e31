"""Dataset serialization: CSV rows, the manifest, and the final archive.

Everything here is bit-stable: cell formatting is fixed, JSON is emitted
in one canonical form, rows keep the order `measure_repo` gives them
(by path, then class name), and archive members carry
constant timestamps and attributes so equal inputs give equal bytes.
The column catalog, `cam.metrics.schema`, is imported only where a
header or the manifest is written, so `cam discover` starts without it.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from pathlib import Path

from cam import __version__

SCHEMA_VERSION = 1
_EPOCH_TIME = "1970-01-01T00:00:00Z"
_ZIP_DATE = (1980, 1, 1, 0, 0, 0)
_ZIP_COMPRESSLEVEL = 6

# Filter verdicts, in rule order; the manifest counts each one.
REASONS = (
    "not-java-ext",
    "forbidden-name",
    "undecodable",
    "too-long-line",
    "test-file",
    "unparseable",
)


def empty_stats() -> dict:
    return {"total": 0, "kept": 0, "rejected": {reason: 0 for reason in REASONS}}


def merge_stats(target: dict, extra: dict) -> None:
    target["total"] += extra["total"]
    target["kept"] += extra["kept"]
    for reason in REASONS:
        target["rejected"][reason] += extra["rejected"][reason]


def format_value(value) -> str:
    """One dataset cell: strings and ints verbatim, NaN floats empty, floats repr."""
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    if isinstance(value, (str, int)):
        return str(value)
    raise TypeError(f"unsupported cell type: {type(value).__name__}")


class _Echo:
    write = str  # returns what it is given, so a csv.writer over it hands back each record


def csv_cells(values) -> str:
    """One CSV record of dataset cells, each formatted by `format_value`,
    with no line end. The writer quotes a field by its line end's
    characters too, so it has the line end of the rows files."""
    import csv

    return csv.writer(_Echo, lineterminator="\n").writerow([format_value(value) for value in values])[:-1]


def rows_to_csv_bytes(rows: list[dict]) -> bytes:
    """Serialize rows (already formatted or raw) in schema column order,
    one line per row in the order given."""
    from cam.metrics.schema import HEADER

    records = [HEADER, *([row[name] for name in HEADER] for row in rows)]
    return "".join(csv_cells(cells) + "\n" for cells in records).encode("utf-8")


def read_csv_rows(path: str | Path) -> list[dict]:
    """Read a dataset CSV back as string-valued rows."""
    import csv

    from cam.metrics.schema import HEADER

    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if tuple(header) != HEADER:
            raise ValueError(f"unexpected header in {path}")
        return [dict(zip(header, row)) for row in reader]


def write_bytes_atomic(path: str | Path, data: bytes | list[bytes]) -> None:
    """Write *data*, or its parts in order, to *path* through a temporary
    file, so *path* never holds part of it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.writelines([data] if isinstance(data, bytes) else data)
    os.replace(tmp, path)


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def write_json_atomic(path: str | Path, obj) -> None:
    write_bytes_atomic(path, canonical_json(obj) + b"\n")


def generated_at(specs) -> str:
    """Manifest timestamp: the latest discovery time of the pins, so the
    same pins always give the same manifest."""
    return max((spec.discovered_at for spec in specs), default=_EPOCH_TIME)


def build_manifest(
    criteria_dict: dict,
    repo_entries: list[dict],
    global_filter_stats: dict,
    discovery_info: dict,
    stamp: str,
) -> dict:
    from cam.metrics.schema import column_hashes

    parse_rejects = global_filter_stats["rejected"]["unparseable"]
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_at": stamp,
        "tool": {"name": "cam", "version": __version__},
        "reproducible": True,  # every manifest comes from its pins alone
        "criteria": criteria_dict,
        "metric_schema": column_hashes(),
        "repos": sorted(repo_entries, key=lambda e: e["full_name"]),
        "filter_stats": global_filter_stats,
        "parse_rejects": parse_rejects,
        "discovery": discovery_info,
    }


def pack_archive(zip_path: str | Path, members: dict[str, list[bytes | tuple[Path, int]]]) -> None:
    """Write the deliverable archive with fully pinned member metadata.

    Each member is a list of parts, streamed in order: bytes, or a file
    path and the offset its copy starts at. No member is held in memory.
    """
    import zipfile

    zip_path = Path(zip_path)
    zip_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = zip_path.with_name(zip_path.name + ".tmp")
    with zipfile.ZipFile(tmp, "w") as archive:
        for arcname, parts in sorted(members.items()):
            info = zipfile.ZipInfo(arcname, date_time=_ZIP_DATE)
            info.external_attr = 0o644 << 16
            info.create_system = 3
            info.compress_type = zipfile.ZIP_DEFLATED
            # Python 3.13 renamed this to `compress_level` and kept the old name as an alias.
            info._compresslevel = _ZIP_COMPRESSLEVEL
            # Set before opening, so the zip64 choice is the same as writestr's.
            info.file_size = sum(len(p) if isinstance(p, bytes) else os.path.getsize(p[0]) - p[1] for p in parts)
            with archive.open(info, "w") as dest:
                for part in parts:
                    if isinstance(part, bytes):
                        dest.write(part)
                    else:
                        with open(part[0], "rb") as source:
                            source.seek(part[1])
                            shutil.copyfileobj(source, dest)
    os.replace(tmp, zip_path)
