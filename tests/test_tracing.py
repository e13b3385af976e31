"""The benchmark's tracer finds every name it wraps and puts each one back."""

from __future__ import annotations

import gc
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import cam.filters
import cam.measure

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
