"""System assembly details not covered elsewhere."""

import pytest

from repro import SystemConfig, Variant, build_system, workload_by_name
from repro.noc.topology import Mesh, memory_controller_nodes
from repro.sim.config import small_test_config
from repro.sim.kernel import DeadlockError


def test_memory_controllers_placed_on_designated_tiles():
    system = build_system(SystemConfig(n_cores=16))
    with_mc = [tile.node for tile in system.tiles if tile.mc is not None]
    assert sorted(with_mc) == sorted(system.mc_nodes)
    assert len(with_mc) == 4


def test_home_mapping_interleaves_all_banks():
    system = build_system(SystemConfig(n_cores=16))
    homes = {system.home_of(block * 64) for block in range(64)}
    assert homes == set(range(16))


def test_mc_mapping_targets_only_mc_nodes():
    system = build_system(SystemConfig(n_cores=16))
    for block in range(64):
        assert system.mc_of(block * 64) in system.mc_nodes


def test_system_without_workload_has_no_cores():
    system = build_system(SystemConfig(n_cores=16))
    assert system.cores == []
    system.run_cycles(50)  # idles without deadlock


def test_run_instructions_accumulates():
    cfg = small_test_config(16, Variant.BASELINE)
    system = build_system(cfg, workload_by_name("water_spatial"))
    first = system.run_instructions(100, max_cycles=500_000)
    second = system.run_instructions(100, max_cycles=500_000)
    assert second > first
    assert system.total_retired() >= 16 * 200


def test_run_instructions_timeout_raises():
    cfg = small_test_config(16, Variant.BASELINE)
    system = build_system(cfg, workload_by_name("canneal"))
    with pytest.raises(DeadlockError):
        system.run_instructions(10_000_000, max_cycles=2_000)


def test_64_core_system_builds_and_steps():
    system = build_system(SystemConfig(n_cores=64),
                          workload_by_name("water_spatial"))
    assert len(system.tiles) == 64
    assert len(system.mc_nodes) == 4
    system.functional_prewarm()
    system.run_cycles(300)
    assert system.total_retired() > 0


def test_build_and_prewarm_heap_stays_gc_light():
    """Building and prewarming the full 16-core chip may add at most one
    GC-tracked object per installed cache line plus a fixed allowance:
    no per-set objects, no per-line empty sharer sets.  Every tracked
    object is one more for each gen-2 collection to traverse."""
    import gc

    gc.collect()
    before = len(gc.get_objects())
    system = build_system(SystemConfig(n_cores=16, seed=1)
                          .with_variant(Variant.COMPLETE_NOACK),
                          workload_by_name("canneal"))
    system.functional_prewarm()
    gc.collect()
    added = len(gc.get_objects()) - before
    l2_lines = sum(tile.l2.array.occupancy() for tile in system.tiles)
    l1_lines = sum(tile.l1.array.occupancy() for tile in system.tiles)
    assert l2_lines > 100_000 and l1_lines > 5_000  # really prewarmed
    assert added <= l2_lines + l1_lines + 10_000, (
        f"{added} tracked objects for {l2_lines} L2 + {l1_lines} L1 lines"
    )
