"""The simulator makes no reference cycles: refcounting frees everything
a run discards, so the cyclic collector has nothing to find.

Each config is built, the collector drained, automatic collection turned
off for ``sim.run``, and then one ``gc.collect()`` must find nothing.
"""

import gc

import pytest

from repro.control import AutoscaleConfig
from repro.experiments.configs import (canonical_gt3, canonical_gt4,
                                       chaos_smoke_config, smoke_config)
from repro.experiments.runner import build_experiment
from repro.sim.kernel import Simulator


def _configs(workdir):
    return {
        "gt3-3dp": canonical_gt3(3, duration_s=300.0),
        "one-phase": canonical_gt3(3, duration_s=300.0, one_phase=True),
        "autoscale": smoke_config(
            n_clients=40, duration_s=600.0, n_sites=30, total_cpus=1500,
            autoscale=AutoscaleConfig(interval_s=30.0, cooldown_s=60.0,
                                      max_dps=6),
            check_enabled=True),
        "chaos-resilient": chaos_smoke_config("dp_crash_restart"),
        # RpcTimeouts are thrown into waiting generators here.
        "chaos-flaky-resilient": chaos_smoke_config("flaky_dp"),
        "planes-on": canonical_gt3(
            3, duration_s=600.0, spans_enabled=True, spans_sample=4,
            check_enabled=True, telemetry_enabled=True,
            checkpoint_every_s=300.0, checkpoint_dir=workdir),
        # Delta sync over a 10-DP mesh: the biggest allocation stream.
        "gt4-mesh-delta": canonical_gt4(10, duration_s=300.0,
                                        sync_delta=True),
    }


def _drain() -> None:
    """Collect until two passes in a row find nothing.  A discarded
    experiment is itself a cyclic graph; the first pass that reaches it
    closes its suspended generators, whose ``finally`` blocks touch the
    graph again, so it is freed by a later pass."""
    idle = 0
    while idle < 2:
        idle = idle + 1 if gc.collect() == 0 else 0


@pytest.mark.parametrize("name", ["gt3-3dp", "one-phase", "autoscale",
                                  "chaos-resilient", "chaos-flaky-resilient",
                                  "planes-on", "gt4-mesh-delta"])
def test_run_leaves_nothing_for_the_collector(name, tmp_path):
    config = _configs(str(tmp_path))[name]
    built = build_experiment(config)
    _drain()
    gc.disable()
    try:
        built.sim.run(until=config.duration_s)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0, f"{name}: {found} objects in reference cycles"


class TestKernelDropsCallables:
    def test_executed_entry_drops_its_callable(self):
        sim = Simulator()
        call = sim.schedule(1.0, lambda: None)
        sim.run()
        assert call.fn is None

    def test_popped_cancelled_entry_drops_its_callable(self):
        sim = Simulator()
        call = sim.schedule(1.0, lambda: None)
        call.cancel()
        sim.run()
        assert call.fn is None

    def test_compacted_entry_drops_its_callable(self):
        sim = Simulator(compact_min=2)
        calls = [sim.schedule(1.0, lambda: None) for _ in range(4)]
        calls[0].cancel()
        calls[1].cancel()  # half the heap is dead: compaction
        assert sim.compactions == 1
        assert calls[0].fn is None and calls[1].fn is None
        assert calls[2].fn is not None  # still in the heap

    def test_timeout_that_fires_is_not_a_cycle(self):
        sim = Simulator()
        timeout = sim.timeout(1.0)
        sim.run()
        assert timeout.triggered and timeout.call.fn is None

    def test_periodic_handle_is_slotted_and_cancels(self):
        sim = Simulator()
        ticks = []
        handle = sim.every(1.0, lambda: ticks.append(sim.now))
        assert not hasattr(handle, "__dict__")
        sim.run(until=3.5)
        handle.cancel()
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0, 3.0]

    def test_thrown_and_handled_failure_loses_its_traceback(self):
        sim = Simulator()
        ev = sim.event()
        caught = []

        def waiter():
            try:
                yield ev
            except ValueError as err:
                caught.append(err)

        sim.process(waiter())
        sim.schedule(1.0, lambda: ev.fail(ValueError("boom")))
        sim.run()
        assert caught and caught[0].__traceback__ is None


class TestRunSuspendsCollection:
    """``Simulator.run`` turns automatic collection off for the loop and
    hands the caller's setting back however the loop ends."""

    def test_off_inside_the_loop_and_restored_after(self):
        sim = Simulator()
        inside = []
        sim.schedule(1.0, lambda: inside.append(gc.isenabled()))
        assert gc.isenabled()
        sim.run()
        assert inside == [False] and gc.isenabled()

    def test_restored_after_an_exception(self):
        sim = Simulator()

        def boom():
            raise ValueError("boom")

        sim.schedule(1.0, boom)
        with pytest.raises(ValueError, match="boom"):
            sim.run(until=5.0)
        assert gc.isenabled()

    def test_a_caller_with_collection_off_keeps_it_off(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        gc.disable()
        try:
            sim.run()
            assert not gc.isenabled()
        finally:
            gc.enable()
