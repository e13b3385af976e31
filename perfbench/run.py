#!/usr/bin/env python3
"""Offline benchmark of whole replayed `cam run`s over seeded local corpora.

    python3 perfbench/run.py --workload large_sources --seed 1 --seconds 40 --trace 0

Run it from the root of a cam checkout: it runs cam from ./src and works
under ./.perfbench. It builds the workload's corpus from the seed (not
timed), then repeats samples while the next one should end within
--seconds, and prints one JSON object as the last line of stdout with
`correct`, `attempted`, `failed` and `metrics` (medians over the
samples).

--trace 0: each sample is a fresh `cam run --jobs 1` process into an
empty work directory (wall_s, cpu_s, peak_rss_mb, files_per_s,
repo_fail_ratio), five more `cam run`s on the finished work directory
(resume_s) and four fresh `cam discover` processes (setup_s).

--trace 1: cam runs inside this process with `--jobs 1`, alternating an
untraced run with a run whose layers are wrapped by perfbench/tracing.py;
the per-layer self times and counts come from the traced runs and the
tracing overhead from comparing the two.

Every cam run is checked against what the corpus planted; a run that
fails a check counts as failed and makes `correct` false.

The benchmark and everything it starts run on one CPU. Work directories
are kept until the run ends, so that deleting them does not load the
disk while later samples are timed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import zipfile
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# One repository worker. cam's workers are threads that share the GIL and
# the host's two CPUs with their git children, so with `--jobs 2` the run
# time depends on how the host schedules them: the run-to-run spread of
# wall_s on large_sources was more than twice that of `--jobs 1`.
JOBS = 1
MIN_SAMPLES = 3
SETUPS_PER_SAMPLE = 4
RESUMES_PER_SAMPLE = 5
MIB = 1 << 20


class Checker:
    """Checks cam's output against the corpus; remembers the first archive."""

    def __init__(self, corpus) -> None:
        self.corpus = corpus
        self.archive_sha: str | None = None

    def check(self, workdir: Path) -> tuple[dict | None, list[str]]:
        """The run's manifest (None when missing) and what is wrong with its output."""
        zip_path = workdir / "dataset.zip"
        if not zip_path.is_file():
            return None, ["no dataset.zip"]
        data = zip_path.read_bytes()
        sha = hashlib.sha256(data).hexdigest()
        if self.archive_sha is None:
            self.archive_sha = sha
        found = []
        if sha != self.archive_sha:
            found.append("dataset.zip differs from the first run's")
        try:
            with zipfile.ZipFile(io.BytesIO(data)) as archive:
                manifest = json.loads(archive.read("manifest.json"))
                rows = archive.read("data/all.csv").decode("utf-8").count("\n") - 1
            stats = manifest["filter_stats"]
            rejected = {reason: n for reason, n in stats["rejected"].items() if n}
            failures = {r["full_name"]: r["failure"] for r in manifest["repos"] if r["status"] != "ok"}
        except (zipfile.BadZipFile, KeyError, ValueError) as exc:
            return None, [f"unreadable dataset.zip: {type(exc).__name__}: {exc}"]
        c = self.corpus
        planted_kept = c.total_files - sum(c.rejected.values())
        if stats["total"] != c.total_files or stats["kept"] != planted_kept or rejected != c.rejected:
            found.append(f"filter_stats {stats} differ from the planted {c.total_files} files, rejects {c.rejected}")
        if rows != c.classes:
            found.append(f"{rows} rows, expected {c.classes}")
        if len(manifest["repos"]) != c.repos or failures != c.failures:
            found.append(f"repository failures {failures}, expected {c.failures}")
        return manifest, found


def pin_to_one_cpu() -> None:
    """Keep this process, cam and every git child on one CPU.

    With one worker cam and its git children take turns anyway. Left to
    float, each spawn and wait hands work to the other, idle virtual CPU,
    and on a shared host waking it adds a delay that depends on the other
    tenants: on `many_small_repos` wall time exceeded CPU time by 0.28 s
    per run unpinned and by 0.16 s pinned, and the runs spread less.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_cam(args: list[str], log: Path) -> tuple[int, float, os.struct_rusage | None]:
    """Run cam in a fresh process; return exit code, wall time and rusage.

    The rusage comes from wait4, so it covers the cam process and every
    git child it reaped.
    """
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "cam.cli", *args],
            stdout=subprocess.DEVNULL,
            stderr=err,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def run_args(workdir: Path, replay: Path, jobs: int) -> list[str]:
    return ["run", "--workdir", str(workdir), "--replay", str(replay), "--reproducible", "--quiet", "--jobs", str(jobs)]


def timed_sample(n: int, corpus, checker: Checker, base: Path) -> tuple[dict | None, list[str]]:
    """One end-to-end sample: set-up timings, a fresh run and its resumes.

    Returns the sample's metrics (None when the run left no manifest) and
    every problem found.
    """
    log = base / "cam-stderr.log"
    work = base / "work"
    problems: list[str] = []
    setups = []
    for k in range(SETUPS_PER_SAMPLE):
        pins_dir = work / f"setup-{n}-{k}"
        code, wall, _ = run_cam(["discover", "--workdir", str(pins_dir), "--replay", str(corpus.replay), "--quiet"], log)
        if code != 0 or not (pins_dir / "pins.json").is_file():
            problems.append(f"cam discover exited {code} (stderr in {log})")
        setups.append(wall)

    workdir = work / f"run-{n}"
    code, wall, usage = run_cam(run_args(workdir, corpus.replay, JOBS), log)
    if code != 0:
        problems.append(f"cam run exited {code} (stderr in {log})")
    manifest, found = checker.check(workdir)
    problems += found
    resumes = []
    for _ in range(RESUMES_PER_SAMPLE):
        code, resume, _ = run_cam(run_args(workdir, corpus.replay, JOBS), log)
        if code != 0:
            problems.append(f"resumed cam run exited {code} (stderr in {log})")
        problems += [f"resume: {p}" for p in checker.check(workdir)[1]]
        resumes.append(resume)
    if manifest is None:
        return None, problems
    repos = manifest["repos"]
    metrics = {
        "wall_s": wall,
        "files_per_s": manifest["filter_stats"]["total"] / wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / MIB,
        "setup_s": statistics.median(setups),
        "resume_s": statistics.median(resumes),
        "repo_fail_ratio": sum(r["status"] != "ok" for r in repos) / len(repos),
    }
    return metrics, problems


UNITS = {
    "wall_s": "s",
    "files_per_s": "files/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "resume_s": "s",
    "repo_fail_ratio": "ratio",
}


def result(attempted: int, failed: int, values: dict[str, float], units: dict[str, str]) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def timed_runs(corpus, base: Path, seconds: float) -> dict:
    checker = Checker(corpus)
    # Compile cam's bytecode once; a user's repeated runs do not pay it.
    run_cam(["discover", "--workdir", str(base / "work" / "warmup"), "--replay", str(corpus.replay), "--quiet"], base / "cam-stderr.log")
    samples: list[dict] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    last = 0.0
    while attempted < MIN_SAMPLES or time.perf_counter() + last < deadline:
        started = time.perf_counter()
        metrics, problems = timed_sample(attempted, corpus, checker, base)
        attempted += 1
        last = time.perf_counter() - started
        if problems:
            failed += 1
            print(f"sample {attempted} failed: {'; '.join(problems)}", file=sys.stderr)
        if metrics is None:
            break
        samples.append(metrics)
    values = {name: statistics.median(s[name] for s in samples) if samples else 0.0 for name in UNITS}
    return result(attempted, failed, values, UNITS)


def traced_runs(corpus, base: Path, seconds: float) -> dict:
    """Pairs of in-process runs, one untraced and one traced, until *seconds*."""
    import cam.cli
    import tracing

    def run_in_process(workdir: Path) -> tuple[float, list[str]]:
        begin = time.perf_counter()
        try:
            code = cam.cli.main(run_args(workdir, corpus.replay, 1))
        except Exception as exc:  # a crash fails the run but not the benchmark
            traceback.print_exc()
            return time.perf_counter() - begin, [f"cam raised {type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - begin
        problems = [f"cam run exited {code}"] if code != 0 else []
        return wall, problems + checker.check(workdir)[1]

    checker = Checker(corpus)
    plain: list[float] = []
    layers: list[dict] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not layers or time.perf_counter() + last < deadline:
        started = time.perf_counter()
        n = len(layers)
        wall, problems = run_in_process(base / "work" / f"plain-{n}")
        plain.append(wall)

        workdir = base / "work" / f"traced-{n}"
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall, traced_problems = run_in_process(workdir)
        finally:
            tracer.remove()
        accounting = tracing.check_accounting(tracer, wall)
        if accounting:
            traced_problems.append(accounting)
        metrics = tracing.layer_metrics(tracer, wall)
        zip_path = workdir / "dataset.zip"
        metrics["dataset.zip_bytes"] = zip_path.stat().st_size if zip_path.exists() else 0
        layers.append(metrics)

        attempted += 2
        for label, found in (("untraced", problems), ("traced", traced_problems)):
            if found:
                failed += 1
                print(f"{label} run {n} failed: {'; '.join(found)}", file=sys.stderr)
        last = time.perf_counter() - started

    tracer.dump(base / "trace.json")
    values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    values["trace.untraced_wall_s"] = statistics.median(plain)
    values["trace.overhead_ratio"] = values["trace.wall_s"] / values["trace.untraced_wall_s"] - 1
    return result(attempted, failed, values, tracing.UNITS)


def main(argv: list[str] | None = None) -> int:
    import corpus as corpora

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpora.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="corpus size factor, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "cam" / "cli.py").is_file():
        print(f"error: no cam sources under {SRC}; run from the root of a cam checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(corpora.GIT_ISOLATION)
    pin_to_one_cpu()

    base = WORK / args.workload
    shutil.rmtree(base, ignore_errors=True)
    try:
        corpus = corpora.build(args.workload, base / "corpus", args.seed, args.scale)
        runner = traced_runs if args.trace else timed_runs
        result = runner(corpus, base, args.seconds)
    finally:
        shutil.rmtree(base / "corpus", ignore_errors=True)
        shutil.rmtree(base / "work", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
