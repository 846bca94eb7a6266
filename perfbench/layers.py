"""Which public callables the traced run wraps, and the per-layer metrics
computed from what they record.

Layer names follow the program's modules (``repro.system``,
``repro.sim.kernel``, ``repro.noc``, ...); see ``perfbench/README.md`` for
the layer -> metric -> workload map.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional

from perfbench.tracer import Tracer, self_times

#: Every per-layer metric, in report order, with its unit.
PER_LAYER = {
    "phase.build_s": "s",
    "phase.prewarm_s": "s",
    "phase.warmup_s": "s",
    "phase.measure_s": "s",
    "phase.assemble_s": "s",
    "phase.store_s": "s",
    "kernel.ticks_run": "count",
    "kernel.cycles_skipped": "count",
    "kernel.skip_ratio": "ratio",
    "kernel.watchdog_calls": "count",
    "kernel.watchdog_s": "s",
    "kernel.self_s": "s",
    "stats.flush_calls": "count",
    "stats.flush_s": "s",
    "noc.router_s": "s",
    "noc.router_ticks": "count",
    "noc.ni_s": "s",
    "noc.ni_ticks": "count",
    "noc.flits_injected": "count",
    "noc.router_ns_per_flit": "ns",
    "coherence.l1_s": "s",
    "coherence.l2_s": "s",
    "coherence.mc_s": "s",
    "cpu.core_s": "s",
    "cpu.retired": "count",
    "circuits.hit_ratio": "ratio",
    "shard.worker_cpu_s_max": "s",
    "shard.measure_imbalance": "ratio",
    "shard.coordinator_cpu_s": "s",
    "shard.replica_overhead_s": "s",
    "cache.load_calls": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.load_s": "s",
    "cache.store_s": "s",
    "cache.lock_wait_s": "s",
    "service.boot_s": "s",
    "service.submit_ms": "ms",
    "service.result_wait_s": "s",
    "service.store_hit_ratio": "ratio",
    "service.jobs_done": "count",
    "service.respawns": "count",
    "trace.overhead_ratio": "ratio",
}

#: KernelProfiler component class -> the per-layer metric prefix it feeds.
_CLASS_METRIC = {
    "Router": "noc.router",
    "NetworkInterface": "noc.ni",
    "L1Controller": "coherence.l1",
    "L2BankController": "coherence.l2",
    "MemoryController": "coherence.mc",
    "Core": "cpu.core",
}

_WARMUP = "CmpSystem.warmup"


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (undo: ``tracer.uninstall``)."""
    from repro import api
    from repro.harness import experiment
    from repro.harness.cache import FileLock, ShardedCache
    from repro.service import ServiceClient
    from repro.sim import shard
    from repro.sim.kernel import ProgressWatchdog
    from repro.sim.stats import Stats
    from repro.system import CmpSystem
    from repro.telemetry import KernelProfiler

    for name in ("submit", "results", "run"):
        tracer.wrap(api, name)
    for name in ("run_experiment", "run_experiment_safe", "build_system"):
        tracer.wrap(experiment, name)
    for name in ("functional_prewarm", "warmup", "run_instructions",
                 "drain"):
        tracer.wrap(CmpSystem, name)
    tracer.wrap(shard, "run_sharded")
    for name in ("load", "store"):
        tracer.wrap(ShardedCache, name)
    tracer.wrap(FileLock, "acquire")
    tracer.wrap(Stats, "flush", hot=True)
    tracer.wrap(ProgressWatchdog, "__call__", hot=True)
    for name in ("submit", "results", "info"):
        tracer.wrap(ServiceClient, name)

    # Outer hooks, installed over the timing wrappers so their own cost
    # stays outside the spans.
    measure = CmpSystem.run_instructions

    def run_instructions(system, *args, **kwargs):
        if tracer.current() == _WARMUP:
            return measure(system, *args, **kwargs)
        # The measured phase: per-class tick times from the existing
        # KernelProfiler, plus the instructions retired.
        profiler = KernelProfiler().attach(system.sim)
        retired = system.total_retired()
        try:
            return measure(system, *args, **kwargs)
        finally:
            profiler.detach()
            tracer.add("cpu.retired", system.total_retired() - retired)
            report = profiler.report()
            tracer.add("kernel.ticks_run", report["ticks_run"])
            tracer.add("kernel.cycles_skipped", report["cycles_skipped"])
            tracer.add("kernel.slot_cycles", report["cycles"] * sum(
                row["components"] for row in report["classes"].values()))
            for cls, row in report["classes"].items():
                tracer.add(f"tick.{cls}", row["ticks"], row["seconds"])

    load = ShardedCache.load

    def cache_load(cache, key):
        entry = load(cache, key)
        tracer.add("cache.hits" if entry is not None else "cache.misses", 1)
        return entry

    sharded = shard.run_sharded

    def run_sharded(*args, **kwargs):
        result = sharded(*args, **kwargs)
        tracer.note("shard",
                    worker_cpu=list(result.worker_cpu_seconds),
                    worker_measure_cpu=list(result.worker_cpu_seconds_measure),
                    coordinator_cpu=result.coordinator_cpu_seconds,
                    respawns=result.respawns)
        return result

    submit = ServiceClient.submit

    def client_submit(client, specs):
        rows = submit(client, specs)
        tracer.add("service.submitted", len(rows))
        tracer.add("service.from_store",
                   sum(row.get("source") == "cache" for row in rows))
        return rows

    tracer.patch(CmpSystem, "run_instructions", run_instructions)
    tracer.patch(ShardedCache, "load", cache_load)
    tracer.patch(shard, "run_sharded", run_sharded)
    tracer.patch(ServiceClient, "submit", client_submit)


class _View:
    """The spans, totals and notes of one set of run ids."""

    def __init__(self, tracer: Tracer, runs: Iterable[str]) -> None:
        runs = set(runs)
        self.spans = [s for s in tracer.spans if s.run in runs]
        self.totals: Dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (run, name), (calls, seconds) in tracer.totals.items():
            if run in runs:
                self.totals[name][0] += calls
                self.totals[name][1] += seconds
        self.notes = [n for n in tracer.notes if n["run"] in runs]
        self._by_id = {(s.pid, s.sid): s for s in self.spans}

    def parent_name(self, span) -> Optional[str]:
        parent = self._by_id.get((span.pid, span.parent))
        return parent.name if parent is not None else None

    def named(self, name: str) -> List:
        return [s for s in self.spans if s.name == name]

    def seconds(self, name: str) -> float:
        return self.totals[name][1]

    def calls(self, name: str) -> int:
        return self.totals[name][0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, results: List, runs: Iterable[str],
                      sim_runs: Optional[Iterable[str]] = None,
                      service: Optional[dict] = None) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric (0 where a layer did not run).

    ``runs`` selects the traced rep's run ids; ``sim_runs`` (default: the
    same) selects the run ids the simulation-layer metrics come from.
    ``results`` are the RunResults of those simulations.  ``service``
    carries the client-side service figures: ``boot_s`` (median boot to
    first ping), ``jobs_done`` and ``respawns`` (from ``info``).
    """
    view = _View(tracer, runs)
    sim = _View(tracer, sim_runs if sim_runs is not None else runs)
    selfs = self_times(sim.spans)
    out: Dict[str, float] = {}

    out["phase.build_s"] = sum(s.duration
                               for s in sim.named("experiment.build_system"))
    prewarm = sim.named("CmpSystem.functional_prewarm")
    out["phase.prewarm_s"] = sum(s.duration for s in prewarm)
    out["phase.warmup_s"] = (
        sum(s.duration for s in sim.named(_WARMUP))
        - sum(s.duration for s in prewarm if sim.parent_name(s) == _WARMUP))
    measured = [s for s in sim.named("CmpSystem.run_instructions")
                if sim.parent_name(s) != _WARMUP]
    out["phase.measure_s"] = sum(s.duration for s in measured)
    out["phase.assemble_s"] = sum(
        selfs[(s.pid, s.sid)] for s in sim.named("experiment.run_experiment"))
    out["phase.store_s"] = sum(
        s.duration for s in sim.named("ShardedCache.store")
        if sim.parent_name(s) == "experiment.run_experiment")

    ticks = sim.calls("kernel.ticks_run")
    skipped = sim.calls("kernel.cycles_skipped")
    out["kernel.ticks_run"] = ticks
    out["kernel.cycles_skipped"] = skipped
    # Simulator.skip_ratio(): component ticks avoided vs. always-tick.
    possible = sim.calls("kernel.slot_cycles")
    out["kernel.skip_ratio"] = _ratio(possible - ticks, possible)
    out["kernel.watchdog_calls"] = sim.calls("ProgressWatchdog.__call__")
    out["kernel.watchdog_s"] = sim.seconds("ProgressWatchdog.__call__")
    tick_seconds = sum(seconds for name, (_calls, seconds)
                       in sim.totals.items() if name.startswith("tick."))
    out["kernel.self_s"] = max(
        sum(selfs[(s.pid, s.sid)] for s in measured) - tick_seconds, 0.0)
    out["stats.flush_calls"] = sim.calls("Stats.flush")
    out["stats.flush_s"] = sim.seconds("Stats.flush")

    for cls, prefix in _CLASS_METRIC.items():
        calls, seconds = sim.totals.get(f"tick.{cls}", (0, 0.0))
        out[f"{prefix}_s"] = seconds
        if prefix.startswith("noc."):
            out[f"{prefix}_ticks"] = calls
    flits = sum(r.counter("noc.flits_injected") for r in results)
    out["noc.flits_injected"] = flits
    out["noc.router_ns_per_flit"] = _ratio(out["noc.router_s"] * 1e9, flits)
    out["cpu.retired"] = sim.calls("cpu.retired")
    out["circuits.hit_ratio"] = _ratio(
        sum(r.counter("circuit.outcome.on_circuit") for r in results),
        sum(r.counter("circuit.replies_total") for r in results))

    shards = [n for n in view.notes if n["kind"] == "shard"]
    out["shard.worker_cpu_s_max"] = max(
        (max(n["worker_cpu"]) for n in shards), default=0.0)
    out["shard.measure_imbalance"] = max(
        (_ratio(max(n["worker_measure_cpu"]), min(n["worker_measure_cpu"]))
         for n in shards), default=0.0)
    out["shard.coordinator_cpu_s"] = sum(n["coordinator_cpu"] for n in shards)
    out["shard.replica_overhead_s"] = sum(
        sum(n["worker_cpu"]) - sum(n["worker_measure_cpu"]) for n in shards)

    out["cache.load_calls"] = view.calls("ShardedCache.load")
    out["cache.hits"] = view.calls("cache.hits")
    out["cache.misses"] = view.calls("cache.misses")
    out["cache.load_s"] = view.seconds("ShardedCache.load")
    out["cache.store_s"] = view.seconds("ShardedCache.store")
    out["cache.lock_wait_s"] = view.seconds("FileLock.acquire")

    service = service or {}
    out["service.boot_s"] = service.get("boot_s", 0.0)
    out["service.submit_ms"] = 1e3 * _ratio(
        view.seconds("ServiceClient.submit"), view.calls("ServiceClient.submit"))
    out["service.result_wait_s"] = view.seconds("ServiceClient.results")
    out["service.store_hit_ratio"] = _ratio(view.calls("service.from_store"),
                                            view.calls("service.submitted"))
    out["service.jobs_done"] = service.get("jobs_done", 0)
    out["service.respawns"] = service.get("respawns", 0)
    return out
