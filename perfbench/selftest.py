#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny corpus size.

    python3 perfbench/selftest.py

Run it from the root of a cam checkout. For every workload in
BENCHMARK.json it runs perfbench/run.py in both modes on a small corpus
and checks that the run exits 0, passes its correctness check and emits
every metric BENCHMARK.json names with the right unit. It also checks that
the benchmark refuses to run, without printing a result, in a directory
that holds only the benchmark's own files. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SCALE = "0.05"


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            before = len(errors)
            proc = run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", SCALE], ROOT)
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{label}: correctness check failed: {proc.stderr.strip()[-500:]}")
            for metric in spec[group]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    errors.append(f"{label}: metric {metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    errors.append(f"{label}: metric {metric['name']} has unit {got['unit']}, expected {metric['unit']}")
            print(f"{'ok' if len(errors) == before else 'FAIL'} {label}", flush=True)

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"benchmark without cam sources: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for error in errors:
        print(f"FAIL {error}")
    print("selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
