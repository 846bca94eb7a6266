"""Tests of the benchmark's own code: digests, span arithmetic, metric
names, failure accounting and a minimal-size smoke of every workload.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import driver, layers, workloads
from perfbench.tracer import Span, Tracer, chrome_trace, self_times
from repro.harness.experiment import RunResult

ROOT = workloads.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _result(**overrides) -> RunResult:
    fields = dict(
        spec_key="16/Baseline/fft/7/200/100", n_cores=16, variant="Baseline",
        workload="fft", exec_cycles=1234,
        counters={"noc.flits_injected": 10, "l2.hits": 3},
        means={"lat.net.req": 12.5},
        histograms={"lat.net.req": {"bucket_width": 1, "count": 2,
                                    "buckets": {"12": 1, "13": 1}}},
        energy_dynamic=1.5, energy_static=2.25,
    )
    fields.update(overrides)
    return RunResult(**fields)


# -- digests -------------------------------------------------------------

def test_digest_is_stable_across_copies_and_key_order():
    result = _result()
    shuffled = _result(counters={"l2.hits": 3, "noc.flits_injected": 10})
    assert workloads.digest(result) == workloads.digest(copy.deepcopy(result))
    assert workloads.digest(result) == workloads.digest(shuffled)
    # Fields outside the measured payload do not enter the digest.
    assert workloads.digest(result) == workloads.digest(
        _result(outcomes={"on_circuit": 0.5}))


def test_digest_changes_when_one_counter_changes():
    changed = _result(counters={"noc.flits_injected": 11, "l2.hits": 3})
    assert workloads.digest(_result()) != workloads.digest(changed)
    assert workloads.digest(_result()) != workloads.digest(
        _result(energy_static=2.2500001))


def test_recorded_digests_cover_every_default_seed_spec():
    reference = workloads.load_reference(workloads.DEFAULT_SEED)
    for workload in workloads.WORKLOADS.values():
        for spec in workload.specs(workloads.DEFAULT_SEED):
            assert re.fullmatch(r"[0-9a-f]{64}", reference[spec.key()])
    assert workloads.load_reference(workloads.DEFAULT_SEED + 1) is None


# -- failure accounting --------------------------------------------------

def _spec():
    return workloads.WORKLOADS["service_store"].specs(7)[0]


def test_forced_digest_mismatch_raises_failed_frac():
    spec = _spec()
    result = _result(spec_key=spec.key())
    clean = workloads.Tally(reference={spec.key(): workloads.digest(result)})
    clean.check(spec, result)
    assert (clean.attempted, clean.failed, clean.failed_frac) == (1, 0, 0.0)

    forced = workloads.Tally(reference={spec.key(): "0" * 64})
    forced.check(spec, result)
    forced.check(spec, result)
    assert forced.failed_frac == 1.0
    assert "digests.json" in forced.problems[0]


def test_other_failures_count_as_failed_ops():
    spec = _spec()
    tally = workloads.Tally()
    tally.check(spec, _result(spec_key=spec.key()))
    # Same key, different measurements: a later rep disagrees.
    tally.check(spec, _result(spec_key=spec.key(), exec_cycles=1))
    tally.check(spec, _result(spec_key=spec.key()), program_key="other/key")
    tally.check(spec, _result(spec_key=spec.key(), error="deadlock",
                              error_kind="DeadlockError"))
    tally.fail(2, "daemon timed out")
    assert (tally.attempted, tally.failed) == (6, 5)
    assert tally.failed_frac == pytest.approx(5 / 6)


# -- spans ---------------------------------------------------------------

def _span(sid, parent, start, end, hidden=0.0, pid=1):
    return Span(sid, parent, f"s{sid}", start, end, "r", pid, 0, hidden)


def test_self_time_of_synthetic_nested_spans():
    spans = [
        _span(1, None, 0.0, 10.0, hidden=0.5),
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 2.0, 5.0),        # overlaps its sibling
        _span(4, 1, 8.0, 12.0),       # runs past its parent's end
        _span(5, 3, 2.5, 3.5, hidden=0.25),
        _span(6, 1, 4.0, 6.0, pid=2),  # same sid space, other process
    ]
    selfs = self_times(spans)
    # Children cover [1, 5] and [8, 10] of [0, 10]; 0.5 s was hot calls.
    assert selfs[(1, 1)] == pytest.approx(10.0 - 4.0 - 2.0 - 0.5)
    assert selfs[(1, 3)] == pytest.approx(3.0 - 1.0)
    assert selfs[(1, 5)] == pytest.approx(1.0 - 0.25)
    assert selfs[(1, 2)] == pytest.approx(2.0)
    assert selfs[(2, 6)] == pytest.approx(2.0)


def test_tracer_records_nesting_hot_totals_and_restores_callables():
    class Thing:
        def outer(self):
            self.hot()
            self.hot()
            return self.inner()

        def inner(self):
            return 42

        def hot(self):
            return None

    original = Thing.__dict__["outer"]
    tracer = Tracer(run="t")
    tracer.wrap(Thing, "outer")
    tracer.wrap(Thing, "inner")
    tracer.wrap(Thing, "hot", hot=True)
    assert Thing().outer() == 42
    tracer.uninstall()
    assert Thing.__dict__["outer"] is original

    outer, = [s for s in tracer.spans if s.name == "Thing.outer"]
    inner, = [s for s in tracer.spans if s.name == "Thing.inner"]
    assert inner.parent == outer.sid and outer.parent is None
    assert tracer.totals[("t", "Thing.hot")][0] == 2
    assert outer.hidden == pytest.approx(tracer.totals[("t", "Thing.hot")][1])
    trace = json.loads(json.dumps(chrome_trace(tracer)))
    slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in slices} == {"Thing.outer", "Thing.inner"}
    assert all(e["args"]["self_us"] >= 0 for e in slices)


# -- names and the benchmark contract -------------------------------------

def test_metric_names_are_well_formed_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == driver.END_TO_END
    assert per_layer == layers.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for name in list(end_to_end) + list(per_layer) + list(workloads.WORKLOADS):
        assert NAME.match(name), name


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "out",
                                                  "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cmp16_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


# -- minimal-size smoke of every workload ---------------------------------

@pytest.fixture
def work_dir(tmp_path, monkeypatch):
    saved = dict(os.environ)
    monkeypatch.setattr(workloads.tempfile, "tempdir",
                        workloads.tempfile.tempdir)
    monkeypatch.chdir(ROOT)  # daemon socket paths are relative
    workloads.hermetic_env(str(tmp_path))
    yield str(tmp_path)
    os.environ.clear()
    os.environ.update(saved)


def _tiny(name):
    workload = workloads.WORKLOADS[name]
    return replace(workload, apps=workload.apps[:1], measure=200, warmup=100,
                   queries=3)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_smoke(name, work_dir):
    workload = _tiny(name)
    tally = workloads.Tally()
    reps = [workloads.run_rep(workload, 7, work_dir, tally)
            for _ in range(2)]
    assert tally.failed == 0, tally.problems
    specs = len(workload.specs(7))
    assert tally.attempted == 2 * (specs + workload.queries)
    for rep in reps:
        assert rep.sweep_s > 0 and rep.cpu_s > 0 and rep.cycles > 0
        assert len(rep.query_ms) == workload.queries
        assert len(rep.boot_s) == (2 if workload.service else 0)
    assert not [p for p in os.listdir(work_dir) if p.startswith("store-")]


@pytest.mark.parametrize("name", ["cmp64_shards2", "service_store"])
def test_traced_smoke(name, work_dir):
    from repro.system import CmpSystem

    original = CmpSystem.__dict__["run_instructions"]
    tally = workloads.Tally()
    trace_path = os.path.join(work_dir, "trace.json")
    metrics, reps = driver.traced(_tiny(name), 7, work_dir, tally,
                                  trace_path)
    # Read-only: the traced reps reproduce the untraced rep's digests.
    assert tally.failed == 0, tally.problems
    assert CmpSystem.__dict__["run_instructions"] is original
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["phase.measure_s"] > 0 and metrics["noc.router_s"] > 0
    assert metrics["kernel.ticks_run"] > 0 and metrics["cpu.retired"] > 0
    assert metrics["cache.store_s"] > 0 and metrics["trace.overhead_ratio"] > 0
    if name == "service_store":
        assert metrics["service.store_hit_ratio"] > 0.5
        assert metrics["service.boot_s"] > 0
    else:
        assert metrics["shard.worker_cpu_s_max"] > 0
    with open(trace_path) as handle:
        trace = json.load(handle)
    names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
    assert {"experiment.run_experiment", "CmpSystem.functional_prewarm",
            "ShardedCache.store"} <= names
