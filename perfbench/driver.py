"""The benchmark's run loops: untraced reps for the end-to-end metrics, a
traced rep for the per-layer breakdown, and digest recording.

``perfbench/run.py`` is the command line around these.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace

from perfbench import layers
from perfbench import workloads as wl
from perfbench.tracer import Tracer, chrome_trace

ROOT = wl.ROOT
WORK = os.path.join(ROOT, "perfbench", "_work")
OUT = os.path.join(ROOT, "perfbench", "out")

#: Set-up probes before each rep (``setup_s`` is their median).
PROBES_PER_REP = 3

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "sim_cycles_per_cpu_s": "cycles/s",
    "query_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def context(workload, seed: int, tally, reps) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "commit": commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "calibration_it_per_s": wl.calibrate(),
        "reps": len(reps),
        "failed_frac": tally.failed_frac,
        "problems": tally.problems[:5],
    }


def end_to_end(workload, seed: int, seconds: float, work_dir: str,
               tally):
    """Untraced reps for ``seconds``; returns (metrics, reps, samples).

    Set-up probes run before every rep, so they sample the host across
    the whole run.  A host much slower than the reference stops early,
    before a rep that would end past 1.25 x ``seconds``.
    """
    setup, reps = [], []
    wanted = max(1, round(seconds / workload.rep_s))
    start = time.perf_counter()
    while len(reps) < wanted:
        for _ in range(PROBES_PER_REP):
            store = tempfile.mkdtemp(prefix="probe-", dir=work_dir)
            setup.append(wl.setup_probe(store, workload.service))
            shutil.rmtree(store, ignore_errors=True)
        rep_start = time.perf_counter()
        try:
            reps.append(wl.run_rep(workload, seed, work_dir, tally))
        except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
            # ServiceError is a RuntimeError: a dead or silent daemon.
            tally.fail(1, f"rep aborted: {exc!r}")
            break
        now = time.perf_counter()
        if now - start + (now - rep_start) > 1.25 * seconds:
            break
    reps = [rep for rep in reps if rep.query_ms]
    if not reps:
        return None, reps, {}
    boots = [b for rep in reps for b in rep.boot_s]
    setup_s = statistics.median(setup)
    if boots:
        setup_s += statistics.median(boots)
    # Every figure is a median over reps (percentiles are taken within a
    # rep first), so a host disturbance covering one rep does not move it.
    metrics = {
        "setup_s": setup_s,
        "sweep_s": statistics.median(rep.sweep_s for rep in reps),
        "sim_cycles_per_cpu_s": statistics.median(
            rep.cycles / rep.cpu_s for rep in reps),
        "query_ms_p50": statistics.median(
            percentile(rep.query_ms, 50) for rep in reps),
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    # Recorded, not an end-to-end metric: on a shared host the daemon's
    # p95 moved by half between runs, beyond any bound it could be given.
    samples = {"query_ms_p95": statistics.median(
                   percentile(rep.query_ms, 95) for rep in reps),
               "setup_probes": len(setup), "boots": len(boots),
               "reps": len(reps),
               "queries_per_rep": [len(rep.query_ms) for rep in reps],
               "rep_sweep_s": [rep.sweep_s for rep in reps]}
    return metrics, reps, samples


def traced(workload, seed: int, work_dir: str, tally, trace_path: str):
    """A traced rep between two untraced ones; returns (metrics, reps)."""
    before = wl.run_rep(workload, seed, work_dir, tally)
    child_dir = tempfile.mkdtemp(prefix="spans-", dir=work_dir)
    tracer = Tracer(run="traced")
    layers.install(tracer)
    tracer.install_fork_hook(child_dir)
    try:
        rep = wl.run_rep(workload, seed, work_dir, tally, trace_dir=child_dir,
                         run="traced")
        sim_runs = None
        if workload.shards > 1:
            # Per-class times need one process: trace the same spec
            # single-process too.
            tracer.run = sim_runs = "single"
            wl.run_rep(replace(workload, shards=1, queries=0), seed,
                       work_dir, tally)
    finally:
        tracer.uninstall()
    after = wl.run_rep(workload, seed, work_dir, tally)
    tracer.merge_dir(child_dir)
    service = {}
    if rep.boot_s:
        service = {"boot_s": statistics.median(rep.boot_s),
                   "jobs_done": rep.jobs_done, "respawns": rep.respawns}
    metrics = layers.per_layer_metrics(
        tracer, rep.results, runs=["traced"],
        sim_runs=[sim_runs] if sim_runs else None, service=service)
    # Untraced reps on both sides cancel a steady drift of host speed.
    metrics["trace.overhead_ratio"] = \
        rep.sweep_s / statistics.mean([before.sweep_s, after.sweep_s])
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w") as handle:
        json.dump(chrome_trace(tracer, {"metrics": metrics}), handle)
    return metrics, [before, rep, after]


def record_digests() -> int:
    """Rewrite ``digests.json`` from one rep of every workload."""
    os.makedirs(WORK, exist_ok=True)
    digests = {}
    for workload in wl.WORKLOADS.values():
        work_dir = tempfile.mkdtemp(prefix="record-", dir=WORK)
        try:
            wl.hermetic_env(work_dir)
            tally = wl.Tally()
            wl.run_rep(replace(workload, queries=0), wl.DEFAULT_SEED,
                       work_dir, tally)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        if tally.failed:
            print(f"error: {workload.name}: {tally.problems}", file=sys.stderr)
            return 1
        digests.update(tally.digests)
    with open(wl.DIGESTS, "w") as handle:
        json.dump({"seed": wl.DEFAULT_SEED, "commit": commit(),
                   "digests": dict(sorted(digests.items()))}, handle,
                  indent=1)
        handle.write("\n")
    print(f"recorded {len(digests)} digests in {wl.DIGESTS}")
    return 0


def run(workload, seed: int, seconds: float, trace: bool) -> int:
    """Measure ``workload`` and print the context and result lines."""
    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    tally = wl.Tally(wl.load_reference(seed))
    try:
        wl.hermetic_env(work_dir)
        if trace:
            trace_path = os.path.join(OUT,
                                      f"trace-{workload.name}-s{seed}.json")
            values, reps = traced(workload, seed, work_dir, tally, trace_path)
            units = layers.PER_LAYER
            samples = {"trace": os.path.relpath(trace_path, ROOT)}
        else:
            values, reps, samples = end_to_end(workload, seed, seconds,
                                               work_dir, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if values is None:
        print(f"error: no rep completed: {tally.problems}", file=sys.stderr)
        return 1
    info = context(workload, seed, tally, reps)
    info["samples"] = samples
    print(json.dumps({"context": info}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0
