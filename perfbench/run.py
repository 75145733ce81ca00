#!/usr/bin/env python3
"""epiresolve benchmark: one closed-loop caller running a workload's jobs.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --trace 1  # every workload, one at a time
    python3 perfbench/run.py --selfcheck               # every workload at tiny size

A run sets up the workload (import epiresolve from ./src and build the
seeded inputs through the public API), then runs passes over the fixed
job list, each job starting after the previous one returned, while
another pass still fits in --seconds (there is always at least one), and
checks every answer.  It sets up again before each pass, at least SETUPS
times in all, and reports the median as setup_s.  wall_s, job_p50_ms and
job_p90_ms come from each job's median time over the passes.  Job and
set-up times are at a reference machine speed (speed.py; raw times are
kept in the result file); the replay's per-layer times are raw.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced passes, replays the inputs through each layer
(layers.py) and reports the per-layer metrics.  The last line of standard
output is the JSON result; details and spans go to .perfbench/ in the
checkout.

The process re-executes itself once with a fixed PYTHONHASHSEED and one
BLAS/OpenMP thread, so every run starts from the same interpreter state.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
from importlib import metadata
from statistics import median, quantiles
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
PINNED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
WORKLOADS = ("sweep", "search", "bisim", "query")
SETUPS = 5

sys.path.insert(0, HERE)
from layers import per_layer_metrics, replay  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Api, Tracer  # noqa: E402
from workloads import build  # noqa: E402


def import_program():
    """A fresh import of epiresolve from the checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "epiresolve", "__init__.py")):
        raise SystemExit(f"perfbench: no program at {os.path.relpath(SRC)}/epiresolve")
    for name in [n for n in sys.modules if n == "epiresolve" or n.startswith("epiresolve.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    package = importlib.import_module("epiresolve")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported epiresolve from {package.__file__}, not from src/")
    return package, importlib.import_module("epiresolve.cli").main


def set_up(name, seed, workdir, tiny=False):
    package, main = import_program()
    return package, main, build(Api(package, main), name, seed, workdir, tiny)


def run_pass(api, jobs, probe, tracer=None):
    """One closed-loop pass: (reference-speed and raw seconds per job, results).

    An exception is a result, judged as a failure.  Calibration samples
    run between jobs and are outside every job's interval.
    """
    intervals, results = [], []
    probe.sample()
    for job in jobs:
        if probe.due():
            probe.sample()
        rec = tracer.begin("job." + job.kind) if tracer else None
        start = perf_counter()
        try:
            out = job.run(api)
        except Exception as exc:  # a crash is a failed job, never a false answer
            out = exc
        intervals.append((start, perf_counter()))
        if rec:
            tracer.end(rec)
        results.append(out)
    probe.sample()
    return [probe.scaled(*span) for span in intervals], [end - start for start, end in intervals], results


def count_failures(jobs, results) -> int:
    failed = 0
    for job, out in zip(jobs, results):
        try:
            ok = not isinstance(out, Exception) and job.check(out)
        except Exception:
            ok = False
        failed += not ok
    return failed


def job_counts(jobs, results) -> dict:
    total = {}
    for job, out in zip(jobs, results):
        if job.counts and not isinstance(out, Exception):
            for key, value in job.counts(out).items():
                total[key] = total.get(key, 0) + value
    return total


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": version("numpy"), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit(), **{k: os.environ.get(k) for k in PINNED_ENV}}


def commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            return next((line.split()[0] for line in handle if line.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def per_job(passes):
    """Each job's median time over the passes, so that one-off costs of the
    first pass and a job disturbed by the machine drop out."""
    return [median(times) for times in zip(*passes)]


def end_to_end(args, workdir):
    probe = SpeedProbe()
    setups, raw_setups, passes, raw_passes, attempted, failed = [], [], [], [], 0, 0

    def timed_set_up():
        probe.sample()
        start = perf_counter()
        built = set_up(args.workload, args.seed, workdir)
        end = perf_counter()
        probe.sample()
        setups.append(probe.scaled(start, end))
        raw_setups.append(end - start)
        return built

    # Set-ups are spread over the run (one before each pass), so that their
    # median samples the same machine phases as the passes.
    package, main, workload = timed_set_up()
    workload.expect()
    api = Api(package, main)
    start, last = perf_counter(), 0.0
    while not passes or perf_counter() - start + last <= args.seconds:
        if passes:
            timed_set_up()
        begin = perf_counter()
        times, raw, results = run_pass(api, workload.jobs, probe)
        last = perf_counter() - begin
        passes.append(times)
        raw_passes.append(raw)
        attempted += len(results)
        failed += count_failures(workload.jobs, results)
    while len(setups) < SETUPS:
        timed_set_up()
    job_ms = [x * 1e3 for x in per_job(passes)]
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (sum(job_ms) / 1e3, "s"),
        "job_p50_ms": (median(job_ms), "ms"),
        "job_p90_ms": (quantiles(job_ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {"passes": len(passes), "jobs_per_pass": len(workload.jobs), "latency_samples": len(job_ms),
             "setup_s": setups, "raw_setup_s": raw_setups, "pass_walls": [sum(t) for t in passes],
             "raw_pass_walls": [sum(t) for t in raw_passes], "raw_wall_s": sum(per_job(raw_passes)),
             "kernel_s": probe.took}
    return metrics, attempted, failed, notes, None


def traced(args, workdir):
    """Untraced and traced passes in turn, then the per-layer replay.

    The first traced pass keeps its spans and job counts; later ones only
    time the traced path, for the tracing overhead.
    """
    package, main, workload = set_up(args.workload, args.seed, workdir)
    workload.expect()
    plain = Api(package, main)
    probe = SpeedProbe()
    pass_tracer, replay_tracer = Tracer(), Tracer()
    untraced, traced_passes, attempted, failed, counts = [], [], 0, 0, None
    start, last = perf_counter(), 0.0
    while not traced_passes or perf_counter() - start + last <= args.seconds:
        begin = perf_counter()
        for tracer in (None, pass_tracer if counts is None else Tracer()):
            api = Api(package, main, tracer) if tracer else plain
            times, _, results = run_pass(api, workload.jobs, probe, tracer)
            (traced_passes if tracer else untraced).append(times)
            attempted += len(results)
            failed += count_failures(workload.jobs, results)
            if tracer is pass_tracer:
                counts = job_counts(workload.jobs, results)
        last = perf_counter() - begin
    rng = random.Random(args.seed)
    raw = replay(plain, Api(package, main, replay_tracer), replay_tracer, workload.replay, rng, workdir)
    overhead = sum(per_job(traced_passes)) - sum(per_job(untraced))
    values = per_layer_metrics(pass_tracer, replay_tracer, raw, counts, overhead)
    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    metrics = {name: (value, units[name]) for name, value in values.items()}
    notes = {"untraced_walls": [sum(t) for t in untraced], "traced_walls": [sum(t) for t in traced_passes],
             "job_counts": counts}
    spans = (pass_tracer, replay_tracer)
    return metrics, attempted, failed, notes, spans


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_one(args) -> int:
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        metrics, attempted, failed, notes, spans = (traced if args.trace else end_to_end)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if spans:
        for phase, tracer in zip(("pass", "replay"), spans):
            tracer.dump(os.path.join(OUT, f"spans-{tag}-{phase}.json"))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "notes": notes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {attempted} jobs attempted, "
          f"{failed} failed (failed_frac {failed / attempted:g}); "
          + ", ".join(f"{k}={v}" for k, v in notes.items() if isinstance(v, int)))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, one at a time."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
        if done.returncode != 0 or not json.loads(done.stdout.splitlines()[-1])["correct"]:
            status = 1
    return status


def selfcheck() -> int:
    """Every workload at tiny size: all answers and exit codes as expected, traced path included."""
    os.makedirs(OUT, exist_ok=True)
    bad = 0
    for name in WORKLOADS:
        workdir = os.path.join(OUT, f"selfcheck-{name}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            package, main, workload = set_up(name, 1, workdir, tiny=True)
            workload.expect()
            tracer = Tracer()
            _, _, results = run_pass(Api(package, main, tracer), workload.jobs, SpeedProbe(), tracer)
            failed = count_failures(workload.jobs, results)
            replay_tracer = Tracer()
            raw = replay(Api(package, main), Api(package, main, replay_tracer), replay_tracer,
                         workload.replay, random.Random(1), workdir)
            values = per_layer_metrics(tracer, replay_tracer, raw, job_counts(workload.jobs, results), 0.0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        missing = {m["name"] for m in benchmark_spec()["per_layer"]} ^ set(values)
        print(f"selfcheck {name}: {len(results)} jobs, {failed} failed, per-layer names "
              f"{'complete' if not missing else 'mismatch: ' + ', '.join(sorted(missing))}")
        bad += failed + len(missing)
    print("selfcheck " + ("ok" if not bad else "FAILED"))
    return 0 if not bad else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, each in a fresh interpreter")
    parser.add_argument("--selfcheck", action="store_true", help="run every workload at tiny size")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload, --all or --selfcheck is required")
    return run_one(args)


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  {**os.environ, **PINNED_ENV})
    sys.exit(main())
