"""Tests for parallel sweep execution."""

import functools
import multiprocessing
import time

import numpy as np
import pytest

from repro.experiments import smoke_config, run_experiment
from repro.experiments.parallel import RunSummary, run_parallel, summarize
from repro.grubsim import DPPerformanceModel, GrubSim
from repro.net import GT3_PROFILE


@pytest.fixture(scope="module")
def configs():
    base = smoke_config(n_clients=8, duration_s=200.0)
    return [base.with_(decision_points=k, name=f"par-{k}dp")
            for k in (1, 2, 3)]


class TestSummarize:
    def test_summary_matches_result(self, configs):
        result = run_experiment(configs[0])
        s = summarize(result)
        assert s.n_jobs == result.n_jobs
        assert s.peak_throughput == \
            result.diperf().throughput_stats().peak
        assert s.accuracy("handled") == pytest.approx(
            result.accuracy("handled"), abs=0.001)
        assert s.fallbacks == result.client_fallbacks()

    def test_trace_roundtrip_feeds_grubsim(self, configs):
        result = run_experiment(configs[0])
        s = summarize(result)
        trace = s.to_trace()
        assert trace.n_queries == result.trace.n_queries
        sized = GrubSim(DPPerformanceModel.from_profile(GT3_PROFILE)).replay(
            trace, initial_dps=1)
        assert sized.final_dps >= 1

    def test_summary_is_picklable(self, configs):
        import pickle
        s = summarize(run_experiment(configs[0]))
        restored = pickle.loads(pickle.dumps(s))
        assert isinstance(restored, RunSummary)
        assert restored.n_jobs == s.n_jobs


class TestRunParallel:
    def test_empty(self):
        assert run_parallel([]) == []

    def test_serial_path(self, configs):
        out = run_parallel(configs[:1], max_workers=1)
        assert len(out) == 1 and out[0].config.name == "par-1dp"

    def test_parallel_matches_serial(self, configs):
        serial = [summarize(run_experiment(c)) for c in configs]
        parallel = run_parallel(configs, max_workers=2)
        assert [s.config.name for s in parallel] == \
            [s.config.name for s in serial]
        for s, p in zip(serial, parallel):
            # Deterministic simulations: identical outcomes either way.
            assert p.n_jobs == s.n_jobs
            assert p.peak_throughput == pytest.approx(s.peak_throughput)
            assert np.allclose(p.throughput_series[1],
                               s.throughput_series[1])

    def test_results_in_input_order(self, configs):
        out = run_parallel(list(reversed(configs)), max_workers=3)
        assert [s.config.name for s in out] == \
            ["par-3dp", "par-2dp", "par-1dp"]


def _naming_worker(cfg):
    """Module-level so the pooled path can pickle it by qualified name."""
    return {"ran": cfg.name}


class TestCustomWorker:
    """run_parallel(worker=...) drives alternate cell bodies — the hook
    the campaign runner uses for its checkpoint-aware worker."""

    def test_in_process_path(self, configs):
        out = run_parallel(configs[:1], max_workers=1,
                           worker=_naming_worker)
        assert out == [{"ran": "par-1dp"}]

    def test_pooled_path_keeps_order(self, configs):
        out = run_parallel(list(reversed(configs)), max_workers=2,
                           worker=_naming_worker)
        assert out == [{"ran": "par-3dp"}, {"ran": "par-2dp"},
                       {"ran": "par-1dp"}]


class TestSummaryDigest:
    def test_digest_is_deterministic(self, configs):
        from repro.experiments.parallel import summary_digest
        a = summary_digest(summarize(run_experiment(configs[0])))
        b = summary_digest(summarize(run_experiment(configs[0])))
        assert a == b and len(a) == 8

    def test_digest_separates_configs(self, configs):
        from repro.experiments.parallel import summary_digest
        digests = [summary_digest(s) for s in
                   run_parallel(configs, max_workers=2)]
        assert len(set(digests)) == len(digests)

    def test_worker_count_does_not_change_digests(self, configs):
        # The `digruber diff --pair workers` claim in unit form.
        from repro.experiments.parallel import summary_digest
        one = [summary_digest(s) for s in
               run_parallel(configs, max_workers=1)]
        four = [summary_digest(s) for s in
                run_parallel(configs, max_workers=4)]
        assert one == four



# -- broken-pool recovery ----------------------------------------------------
# Pool workers pickle the submitted callable by qualified name, so the
# poison stand-ins must live at module level; the fork start method
# (asserted in the fixture) carries the monkeypatched module globals
# into the worker processes.

_FLAKY_MARKER = None  # set per-test; a path that exists once the cell died


def _poison_worker(cfg):
    from repro.experiments.parallel import summarize
    if cfg.name.startswith("poison"):
        import os
        os._exit(1)  # interpreter death, not an exception
    if cfg.name == "flaky" and not _FLAKY_MARKER.exists():
        _FLAKY_MARKER.write_text("x")
        import os
        os._exit(1)
    return summarize(run_experiment(cfg))


class TestBrokenPool:
    """A worker process dying mid-sweep must not abort the whole sweep.

    The poison worker calls ``os._exit`` — an interpreter death, not an
    exception — which breaks the entire :class:`ProcessPoolExecutor`
    (every outstanding future raises :class:`BrokenProcessPool`).  The
    sweep must keep finished cells, retry the stranded ones on a fresh
    pool, and report the unrecoverable cell in place as a
    :class:`FailedCell`.
    """

    @pytest.fixture
    def poisoned(self, monkeypatch, tmp_path):
        import multiprocessing
        assert "fork" in multiprocessing.get_all_start_methods()
        import repro.experiments.parallel as par
        monkeypatch.setattr(par, "_worker", _poison_worker)
        import sys
        mod = sys.modules[__name__]
        monkeypatch.setattr(mod, "_FLAKY_MARKER", tmp_path / "died-once")

    def test_surviving_cells_keep_results(self, poisoned):
        from repro.experiments.parallel import FailedCell, summary_digest
        base = smoke_config(n_clients=6, duration_s=120.0, seed=1105)
        configs = [base.with_(name="bp-a"),
                   base.with_(name="poison", seed=1106),
                   base.with_(name="bp-c", seed=1107)]
        out = run_parallel(configs, max_workers=2)
        assert len(out) == 3
        assert isinstance(out[1], FailedCell)
        assert not out[1]  # falsy placeholder
        assert out[1].config.name == "poison"
        assert "died" in out[1].error
        # The survivors are real summaries, bit-identical to clean
        # serial runs of the same seed-pinned configs.
        for slot in (0, 2):
            assert isinstance(out[slot], RunSummary)
            clean = summarize(run_experiment(configs[slot]))
            assert summary_digest(out[slot]) == summary_digest(clean)

    def test_transient_death_recovers_on_retry(self, poisoned):
        """A cell that kills only its *first* worker (a stray OOM kill)
        comes back clean from the one-shot retry pool."""
        from repro.experiments.parallel import summary_digest
        base = smoke_config(n_clients=6, duration_s=120.0, seed=1105)
        configs = [base.with_(name="bp-a"),
                   base.with_(name="flaky", seed=1106)]
        out = run_parallel(configs, max_workers=2)
        assert all(isinstance(s, RunSummary) for s in out)
        clean = summarize(run_experiment(configs[1]))
        assert summary_digest(out[1]) == summary_digest(clean)

    def test_in_process_path_unaffected(self):
        """max_workers=1 never enters a pool, so nothing to recover."""
        from repro.experiments.parallel import FailedCell
        base = smoke_config(n_clients=6, duration_s=120.0, seed=1105)
        out = run_parallel([base], max_workers=1)
        assert isinstance(out[0], RunSummary)
        assert not isinstance(out[0], FailedCell)


def _marking_cell(directory, cell):
    """A cell that leaves a marker file, takes a moment, and (cell 0)
    raises."""
    (directory / f"cell-{cell}").write_text("ran")
    if cell == 0:
        raise ValueError("cell 0 failed")
    time.sleep(0.2)
    return cell


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the test-module worker reaches the pool by fork")
class TestCellErrorFailsFast:
    def test_queued_cells_are_cancelled(self, tmp_path):
        """A cell's own exception surfaces before the queued cells run:
        of 8 cells on one worker, fewer than 8 have left a marker."""
        from repro.experiments.parallel import _run_pool
        with pytest.raises(ValueError, match="cell 0 failed"):
            _run_pool(dict(enumerate(range(8))), 1, {},
                      worker=functools.partial(_marking_cell, tmp_path))
        assert len(list(tmp_path.iterdir())) < 8
