"""The benchmark's tracer finds every name it wraps and puts each one back."""

from __future__ import annotations

import gc
import importlib
import importlib.util
import subprocess
import sys
import time
import zipfile
from collections import Counter
from pathlib import Path

import cam.filters
import cam.measure
from test_pipeline import make_world, run_cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_remove_restore_every_name(monkeypatch):
    tracing = load_tracing(monkeypatch)
    sites = [(importlib.import_module(module), attr) for module, attr, _span in tracing.SPANS]
    sites += [(cam.filters, "evaluate_file"), (cam.measure, "ClassGraph"), (subprocess, "Popen")]
    before = [getattr(owner, attr) for owner, attr in sites]
    callbacks = list(gc.callbacks)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not original for (owner, attr), original in zip(sites, before))
    finally:
        tracer.remove()
    assert [getattr(owner, attr) for owner, attr in sites] == before
    assert gc.callbacks == callbacks


def test_traced_run_sees_every_layer(tmp_path, monkeypatch):
    """Every wrapped layer is reached: a name the measurement stopped
    looking up would read 0 instead of failing."""
    tracing = load_tracing(monkeypatch)
    replay, work = make_world(tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        begin = time.perf_counter()
        assert run_cli(work, replay, "--jobs", "1") == 0
        wall = time.perf_counter() - begin
    finally:
        tracer.remove()

    assert tracing.check_accounting(tracer, wall) is None
    spans = Counter(span.name for span in tracer.spans)
    for layer in ("javasrc.parse", "metrics.code", "metrics.oo", "metrics.structural"):
        assert spans[layer] > 0, layer
    with zipfile.ZipFile(work / "dataset.zip") as archive:
        rows = archive.read("data/all.csv").decode("utf-8").splitlines()[1:]
    assert tracer.counts["measure.rows"] == len(rows) == 4
