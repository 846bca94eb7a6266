"""The benchmark's workloads, their repetitions and correctness checks.

One *rep* runs a workload's cold batch against a fresh temporary result
store, then times single-spec queries served from that store.  A run
repeats reps for the requested seconds (see ``run.py``).

Every op - one spec of a batch, or one query - is checked; a failed op is
a simulation failure, a result whose digest differs from an earlier rep's
(or, at :data:`DEFAULT_SEED`, from the recorded digest), a daemon
``failed`` state or timeout, or a key the program computed differently
from the client's ``spec.key()``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import api
from repro import config as repro_config
from repro.harness import experiment
from repro.harness.experiment import RunResult, RunSpec
from repro.service import ServiceClient, ServiceError
from repro.sim.config import Variant

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

#: Seed whose per-spec result digests are recorded in ``digests.json``.
DEFAULT_SEED = 1

#: Seconds a daemon may take to answer its first ping, and a batch to end.
BOOT_TIMEOUT = 60.0
BATCH_TIMEOUT = 150.0

#: Think time of the closed-loop query client.  Host speed on a shared
#: machine drifts within seconds, so spreading the queries over a few
#: seconds samples that drift instead of one instant of it.
THINK_S = 0.01

#: Job-daemon worker processes (capped at the CPU count).
DAEMON_WORKERS = 2

_APPS = ("canneal", "fft", "blackscholes", "mix")
_VARIANTS = (Variant.BASELINE, Variant.COMPLETE_NOACK)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_cores: int
    variants: tuple
    apps: tuple
    measure: int
    warmup: int
    #: Single-spec queries timed after each rep's batch.
    queries: int
    #: Wall seconds of one rep on a 2-CPU reference host; a run makes
    #: ``round(--seconds / rep_s)`` reps, a count that does not depend on
    #: how fast the host happens to be.
    rep_s: float
    #: Mesh shards per run (capped at the CPU count).
    shards: int = 1
    #: Serve the batch and the queries from a job daemon.
    service: bool = False

    def specs(self, seed: int) -> List[RunSpec]:
        # Every result-affecting field is explicit, topology included, so
        # no ambient configuration can change what a spec means.
        return [RunSpec(self.n_cores, variant, app, seed, self.measure,
                        self.warmup, topology="mesh")
                for variant in self.variants for app in self.apps]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "cmp16_sweep",
        "the Fig. 9-style sweep users run: full 16-core CMP, serial and "
        "in-process, so router, NI and prewarm dominate",
        16, _VARIANTS, _APPS, measure=1000, warmup=250, queries=200,
        rep_s=18.0),
    Workload(
        "cmp64_shards2",
        "the paper's 64-core chip split over 2 mesh shards: 4x the routers "
        "per kernel step, prewarm repeated per replica, barrier and IPC cost",
        64, (Variant.COMPLETE_NOACK,), ("canneal",), measure=400, warmup=100,
        queries=200, rep_s=14.0, shards=2),
    Workload(
        "service_store",
        "a job daemon writing a small batch to the store, then restarted to "
        "serve queries from it: service, API and store, not the router",
        16, _VARIANTS, _APPS, measure=300, warmup=100, queries=400,
        rep_s=13.5, service=True),
)}


# ----------------------------------------------------------------------
# Correctness.
# ----------------------------------------------------------------------

def digest(result: RunResult) -> str:
    """sha256 of the canonical JSON of everything a run measured."""
    payload = {
        "exec_cycles": result.exec_cycles,
        "counters": result.counters,
        "means": result.means,
        "histograms": result.histograms,
        "energy_dynamic": result.energy_dynamic,
        "energy_static": result.energy_static,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(seed: int) -> Optional[Dict[str, str]]:
    """Recorded ``{spec key: digest}`` for :data:`DEFAULT_SEED`, else None."""
    if seed != DEFAULT_SEED:
        return None
    with open(DIGESTS) as handle:
        return json.load(handle)["digests"]


class Tally:
    """Attempted and failed ops, with the digest each key first produced."""

    def __init__(self, reference: Optional[Dict[str, str]] = None) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: Dict[str, str] = {}

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def fail(self, ops: int, problem: str) -> None:
        self.attempted += ops
        self.failed += ops
        self.problems.append(problem)

    def check(self, spec: RunSpec, result: RunResult,
              program_key: Optional[str] = None) -> None:
        """One op: ``result`` for ``spec`` (``program_key``: the key the
        program reported for it, e.g. by the daemon)."""
        key = spec.key()
        problems = []
        if program_key is not None and program_key != key:
            problems.append(f"program key {program_key!r} != {key!r}")
        if result.failed:
            problems.append(f"{result.error_kind}: {result.error}")
        elif result.spec_key != key:
            problems.append(f"result key {result.spec_key!r} != {key!r}")
        else:
            value = digest(result)
            if self.digests.setdefault(key, value) != value:
                problems.append(f"{key}: digest differs between reps")
            if self.reference is not None and \
                    self.reference.get(key) != value:
                problems.append(f"{key}: digest differs from digests.json")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append("; ".join(problems))


# ----------------------------------------------------------------------
# Measurement helpers.
# ----------------------------------------------------------------------

def cpu_seconds() -> float:
    """CPU seconds of this process plus every child it has reaped."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process or of its largest reaped child."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def calibrate(seconds: float = 0.2) -> float:
    """Busy-loop iterations per second (recorded, never used to scale)."""
    count = 0
    start = time.perf_counter()
    end = start + seconds
    while time.perf_counter() < end:
        for _ in range(1000):
            count += 1
    return count / (time.perf_counter() - start)


def hermetic_env(work_dir: str) -> None:
    """Drop every ``REPRO_*`` setting and keep scratch files in ``work_dir``."""
    for entry in repro_config.SETTINGS.values():
        os.environ.pop(entry.env, None)
    scratch = os.path.join(work_dir, "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    os.environ[repro_config.setting("crash_dir").env] = \
        os.path.join(work_dir, "crash")
    os.environ[repro_config.setting("checkpoint_dir").env] = \
        os.path.join(work_dir, "checkpoint")


def set_setting(name: str, value) -> None:
    """Set a ``repro.config`` setting through its environment variable."""
    os.environ[repro_config.setting(name).env] = str(value)
    if repro_config.resolve(name) != value:
        raise RuntimeError(f"{name} did not resolve to {value!r}")


def setup_probe(store: str, service: bool) -> float:
    """Wall seconds for a fresh interpreter to import the entry points and
    open a fresh result store: the set-up a user pays before a submit."""
    command = [sys.executable, os.path.join(HERE, "probe.py"), store + "/"]
    if service:
        command.append("--service")
    start = time.perf_counter()
    # No timeout: with one, wait() polls with growing sleeps and rounds
    # the measured time up to tens of milliseconds.
    subprocess.run(command, check=True)
    return time.perf_counter() - start


@dataclass
class Rep:
    """What one rep measured."""

    sweep_s: float
    cpu_s: float
    cycles: int
    results: List[RunResult]
    query_ms: List[float] = field(default_factory=list)
    boot_s: List[float] = field(default_factory=list)
    jobs_done: int = 0
    respawns: int = 0


# ----------------------------------------------------------------------
# In-process reps (cmp16_sweep, cmp64_shards2).
# ----------------------------------------------------------------------

def inprocess_rep(workload: Workload, specs: List[RunSpec], store: str,
                  tally: Tally) -> Rep:
    set_setting("cache", store + "/")
    experiment._memo.clear()
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    handle = api.submit(specs, jobs=1)
    results = api.results(handle)
    sweep = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
    for spec, key, result in zip(specs, handle.keys, results):
        tally.check(spec, result, key)
    rep = Rep(sweep, cpu, sum(r.exec_cycles for r in results), results)
    for i in range(workload.queries):
        spec = specs[i % len(specs)]
        experiment._memo.pop(spec.key(), None)  # served by the store
        start = time.perf_counter()
        query = api.submit([spec], jobs=1)
        result = api.results(query)[0]
        rep.query_ms.append((time.perf_counter() - start) * 1e3)
        tally.check(spec, result, query.keys[0])
        time.sleep(THINK_S)
    return rep


# ----------------------------------------------------------------------
# Daemon reps (service_store).
# ----------------------------------------------------------------------

class DaemonProcess:
    """``perfbench/daemon.py`` in a child process, stopped on exit."""

    def __init__(self, address: str, workers: int, log_path: str,
                 trace_dir: Optional[str] = None, run: str = "") -> None:
        command = [sys.executable, os.path.join(HERE, "daemon.py"),
                   "--socket", address, "--workers", str(workers)]
        if trace_dir is not None:
            command += ["--trace-dir", trace_dir, "--run", run]
        self.client = ServiceClient(address)
        start = time.perf_counter()
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(command, stdout=log, stderr=log)
        try:
            while not self.client.ping():
                if self.proc.poll() is not None:
                    raise ServiceError(
                        f"daemon exited with {self.proc.returncode} at boot")
                if time.perf_counter() - start > BOOT_TIMEOUT:
                    raise ServiceError("daemon did not answer a ping")
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - start

    def stop(self) -> None:
        """Shut the daemon down and reap it (killing it if it hangs)."""
        if self.proc.poll() is None:
            try:
                self.client.shutdown()
            except (ServiceError, OSError):
                self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "DaemonProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


@contextlib.contextmanager
def one_cpu():
    """Run this thread, and every process it starts meanwhile, on one CPU.

    A query hands work from the client to the daemon and back.  With the
    two on different CPUs, each hand-off wakes an idle CPU, and on a
    virtual machine sharing its host that wake-up delay swings several-fold
    from minute to minute (daemon query p95 of 3 to 18 ms).  On one CPU the
    hand-off needs no wake-up, so a query's time is the round trip's work.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def _info(daemon: DaemonProcess) -> tuple:
    info = daemon.client.info()
    return info["jobs"].get("done", 0), info["respawns"]


def service_rep(workload: Workload, specs: List[RunSpec], store: str,
                tally: Tally, work_dir: str, trace_dir: Optional[str] = None,
                run: str = "") -> Rep:
    set_setting("cache", store + "/")
    experiment._memo.clear()
    workers = min(DAEMON_WORKERS, os.cpu_count() or 1)
    # Relative, to stay within the unix-socket path limit.
    address = os.path.relpath(os.path.join(work_dir, "daemon.sock"))
    log = os.path.join(work_dir, "daemon.log")

    # Cold phase: the daemon simulates the batch and writes the store.
    # Its CPU (workers included) is counted once it has been reaped.
    cpu0 = cpu_seconds()
    with DaemonProcess(address, workers, log, trace_dir, run) as daemon:
        start = time.perf_counter()
        handle = api.submit(specs, address=address)
        results = api.results(handle, timeout=BATCH_TIMEOUT)
        sweep = time.perf_counter() - start
        done, respawns = _info(daemon)
    cpu = cpu_seconds() - cpu0
    for spec, key, result in zip(specs, handle.keys, results):
        tally.check(spec, result, key)
    rep = Rep(sweep, cpu, sum(r.exec_cycles for r in results), results,
              boot_s=[daemon.boot_s], jobs_done=done, respawns=respawns)

    # Read phase: a restarted daemon answers every query from the store.
    with one_cpu(), DaemonProcess(address, workers, log, trace_dir,
                                  run) as daemon:
        rep.boot_s.append(daemon.boot_s)
        for i in range(workload.queries):
            spec = specs[i % len(specs)]
            start = time.perf_counter()
            query = api.submit([spec], address=address)
            try:
                result = api.results(query, timeout=BATCH_TIMEOUT)[0]
            except ServiceError as exc:
                tally.fail(1, f"query: {exc}")
                continue
            rep.query_ms.append((time.perf_counter() - start) * 1e3)
            status = api.status(query)[0]
            if status.get("source") != "cache" or status["state"] != "done":
                tally.fail(1, f"query not served from the store: {status}")
                continue
            tally.check(spec, result, query.keys[0])
            time.sleep(THINK_S)
        done, respawns = _info(daemon)
        rep.jobs_done += done
        rep.respawns += respawns
    return rep


def run_rep(workload: Workload, seed: int, work_dir: str, tally: Tally,
            trace_dir: Optional[str] = None, run: str = "") -> Rep:
    """One rep against a fresh store under ``work_dir``, deleted after."""
    store = tempfile.mkdtemp(prefix="store-", dir=work_dir)
    try:
        specs = workload.specs(seed)
        if workload.service:
            return service_rep(workload, specs, store, tally, work_dir,
                               trace_dir, run)
        set_setting("shards", min(workload.shards, os.cpu_count() or 1))
        return inprocess_rep(workload, specs, store, tally)
    finally:
        shutil.rmtree(store, ignore_errors=True)
