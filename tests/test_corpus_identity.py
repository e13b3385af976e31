"""Byte identity of cam's output on the three seed-1 benchmark corpora.

Each corpus is built with `perfbench/corpus.py` as it is, then `cam run
--replay ... --reproducible --jobs 1` runs on it. The digest of each
workload covers `data/all.csv` and `manifest.json` (the uncompressed zip
members, since zlib's bytes can differ between Python builds) and every
`filtered/*.json`. A change that is meant to keep the dataset as it is must
keep these digests; one that changes a column or a verdict on purpose
records the new digest here and says why.
"""

from __future__ import annotations

import hashlib
import sys
import zipfile
from pathlib import Path

import pytest

from cam.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

DIGESTS = {
    "large_sources": "5760cb98e7a476048588d6633d22ee5c942421eaf0dbe71574942cb76037e4fd",
    "deep_history": "e319d637e20cb61addf9168dce82c1a1134b0bf77d25e501a2bf96b7f2ae72a9",
    "many_small_repos": "632320ae744de47bf22344ccc835cc4f35e83af555c0daf3a7e2ea690bf48b30",
}


def output_hashes(work: Path) -> dict[str, str]:
    hashes = {}
    with zipfile.ZipFile(work / "dataset.zip") as archive:
        for name in ("data/all.csv", "manifest.json"):
            hashes[name] = hashlib.sha256(archive.read(name)).hexdigest()
    for path in sorted((work / "filtered").glob("*.json")):
        hashes[f"filtered/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


@pytest.fixture(scope="module")
def corpora():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import corpus
    finally:
        sys.path.remove(str(PERFBENCH))
    return corpus


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_one_corpus_output_is_byte_identical(workload, corpora, tmp_path, monkeypatch):
    for name, value in corpora.GIT_ISOLATION.items():
        monkeypatch.setenv(name, value)
    built = corpora.build(workload, tmp_path / "corpus", 1)
    work = tmp_path / "work"
    args = ["run", "--workdir", str(work), "--replay", str(built.replay), "--reproducible", "--quiet", "--jobs", "1"]
    assert main(args) == 0
    hashes = output_hashes(work)
    assert len(hashes) == 2 + built.repos - len(built.failures)
    listing = "".join(f"{name} {digest}\n" for name, digest in hashes.items())
    assert hashlib.sha256(listing.encode("utf-8")).hexdigest() == DIGESTS[workload], listing
