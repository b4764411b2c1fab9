"""Tests for the space-parallel sharded simulation (repro.sim.sharded).

The load-bearing claim is *partition independence*: hoods exchange
nothing, so running them in this process or on 2 or 4 worker processes
must produce bit-identical per-hood summaries and identical canonically
merged event journals, and each hood's summary must equal its
standalone run's.  The property tests sweep seeds and shard counts; the
chaos test repeats the claim with a DP crash/restart striking hood 0
while the strict invariant checker runs inside every neighborhood.
"""

import multiprocessing
import os

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.sim.sharded as sharded
from repro.cli import main
from repro.experiments.configs import canonical_gt3, smoke_config
from repro.experiments.parallel import summarize, summary_digest
from repro.experiments.runner import build_experiment, run_experiment
from repro.sim.sharded import (ShardedRunResult, hood_config, plan_shards,
                               run_sharded)
from repro.sim.snapshot import (checkpoint_filename, newest_checkpoint,
                                resume_experiment, snapshot_experiment,
                                write_snapshot)


def _config(seed=20050101, **overrides):
    base = dict(decision_points=4, n_clients=16, n_sites=16,
                total_cpus=800, duration_s=300.0, sync_interval_s=60.0,
                seed=seed, name="shard-test")
    base.update(overrides)
    return smoke_config(**base)


class TestPlanShards:
    @given(n_hoods=st.integers(1, 12), n_shards=st.integers(1, 12))
    def test_balanced_contiguous_cover(self, n_hoods, n_shards):
        assume(n_shards <= n_hoods)
        plan = plan_shards(n_hoods, n_shards)
        assert len(plan) == n_shards
        flat = [h for block in plan for h in block]
        assert flat == list(range(n_hoods))  # contiguous, disjoint, total
        sizes = [len(block) for block in plan]
        assert max(sizes) - min(sizes) <= 1  # balanced

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            plan_shards(4, 0)
        with pytest.raises(ValueError):
            plan_shards(4, 5)


class TestHoodConfig:
    def test_shares_partition_the_grid(self):
        config = _config(n_clients=18, n_sites=17, total_cpus=801)
        hoods = [hood_config(config, h)
                 for h in range(config.decision_points)]
        assert sum(h.n_clients for h in hoods) == config.n_clients
        assert sum(h.n_sites for h in hoods) == config.n_sites
        assert sum(h.total_cpus for h in hoods) == config.total_cpus
        assert all(h.decision_points == 1 for h in hoods)
        # Disjoint identity spaces: seeds, names, and job-id blocks.
        assert len({h.seed for h in hoods}) == len(hoods)
        assert len({h.name for h in hoods}) == len(hoods)
        assert len({h.jid_offset for h in hoods}) == len(hoods)

    def test_chaos_strikes_hood_zero_only(self):
        config = _config(chaos_scenario="dp_crash_restart")
        assert hood_config(config, 0).chaos_scenario == "dp_crash_restart"
        for h in range(1, config.decision_points):
            assert hood_config(config, h).chaos_scenario == ""

    def test_per_sim_observability_forced_off(self):
        config = _config(trace_enabled=True, spans_enabled=True)
        hood = hood_config(config, 1)
        assert not hood.trace_enabled and not hood.spans_enabled

    def test_rejects_unshardable(self):
        with pytest.raises(ValueError):
            hood_config(_config(n_clients=2), 0)
        with pytest.raises(ValueError):
            hood_config(_config(), 7)


class TestPartitionIndependence:
    def test_journals_identical_across_groupings(self):
        """The fixed reference case, compared entry-for-entry."""
        config = _config()
        ref = run_sharded(config, n_shards=1, journal=True)
        assert isinstance(ref, ShardedRunResult)
        assert ref.n_hoods == 4 and ref.n_jobs > 0
        for n_shards in (2, 4):
            other = run_sharded(config, n_shards=n_shards, mode="workers",
                                journal=True)
            assert other.summary_digests == ref.summary_digests
            assert other.total_events == ref.total_events
            assert [(e.time, e.kind, e.detail)
                    for e in other.journal.entries] == \
                   [(e.time, e.kind, e.detail)
                    for e in ref.journal.entries]
            assert other.journal.digest == ref.journal.digest

    def test_worker_mode_matches_lockstep(self):
        config = _config()
        lockstep = run_sharded(config, n_shards=2, mode="lockstep",
                               journal=True)
        workers = run_sharded(config, n_shards=2, mode="workers",
                              journal=True)
        assert workers.summary_digests == lockstep.summary_digests
        assert workers.journal.digest == lockstep.journal.digest

    _reference = {}  # seed -> (digests, journal digest), shared by examples

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2), n_shards=st.integers(1, 4))
    def test_any_partition_matches_reference(self, seed, n_shards):
        config = _config(seed=11_000 + seed)
        if seed not in self._reference:
            ref = run_sharded(config, n_shards=1, journal=True)
            self._reference[seed] = (ref.summary_digests,
                                     ref.journal.digest)
        result = run_sharded(config, n_shards=n_shards, mode="workers",
                             journal=True)
        digests, journal_digest = self._reference[seed]
        assert result.summary_digests == digests
        assert result.journal.digest == journal_digest

    _chaos_reference = {}

    @settings(max_examples=6, deadline=None)
    @given(n_shards=st.integers(1, 4))
    def test_chaos_partition_independent_under_checker(self, n_shards):
        """DP crash/restart inside hood 0 plus the strict invariant
        checker in every neighborhood: still grouping-independent."""
        config = _config(duration_s=600.0,
                         chaos_scenario="dp_crash_restart",
                         check_enabled=True, check_strict=True)
        if not self._chaos_reference:
            ref = run_sharded(config, n_shards=1, journal=True)
            self._chaos_reference["ref"] = (ref.summary_digests,
                                            ref.journal.digest)
        result = run_sharded(config, n_shards=n_shards, mode="workers",
                             journal=True)
        digests, journal_digest = self._chaos_reference["ref"]
        assert result.summary_digests == digests
        assert result.journal.digest == journal_digest

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            run_sharded(_config(), n_shards=2, mode="threads")


class TestHoodIsStandaloneRun:
    """A hood's summary is its own experiment's: nothing another hood
    dispatches reaches it.  ``canonical_gt3(3)`` at 1,800 s is long
    enough for peer records to have collided with a hood's own when
    every hood's decision point was named ``dp0``."""

    @pytest.mark.parametrize("config, n_shards", [
        (canonical_gt3(3, duration_s=1800.0), 3),
        (_config(), 2),
    ], ids=["gt3-3dp-1800s", "smoke-4dp"])
    def test_every_hood_matches_its_standalone_run(self, config, n_shards):
        sharded = run_sharded(config, n_shards=n_shards)
        standalone = tuple(
            summary_digest(summarize(run_experiment(hood_config(config, h))))
            for h in range(config.decision_points))
        assert sharded.summary_digests == standalone


class TestHoodCheckpoints:
    """A hood checkpoints as the monolithic run it is, into its own
    ``h<k>/`` directory, in either executor."""

    def test_workers_run_checkpoints_every_hood(self, tmp_path):
        config = _config()
        plain = run_sharded(config, n_shards=2, mode="workers")
        checkpointed = run_sharded(
            config.with_(checkpoint_every_s=60.0,
                         checkpoint_dir=str(tmp_path)),
            n_shards=2, mode="workers")
        assert checkpointed.summary_digests == plain.summary_digests
        assert sorted(os.listdir(tmp_path)) == ["h0", "h1", "h2", "h3"]
        for h in range(config.decision_points):
            names = os.listdir(tmp_path / f"h{h}")
            assert names and all(n.startswith("ckpt-") for n in names)
        newest = newest_checkpoint(str(tmp_path / "h1"))
        restored = summarize(resume_experiment(newest))
        assert summary_digest(restored) == plain.summary_digests[1]


class TestBarrierFilesFromOlderBuilds:
    """Older builds wrote sharded "barrier" files (``sharded``,
    ``barrier_t``, ``hood_digests`` and no ``event_count``).  They are
    refused by name and skipped as restore candidates, and so is a
    monolithic head re-signed with the barrier fields and a count past
    the run's end."""

    @pytest.mark.parametrize("resigned", [False, True],
                             ids=["barrier-head", "resigned-monolithic"])
    def test_refused_and_skipped(self, tmp_path, capsys, resigned):
        built = build_experiment(smoke_config(n_clients=4, duration_s=120.0))
        built.sim.run(until=60.0)
        head = snapshot_experiment(built)
        if resigned:
            head["event_count"] = 10 ** 9
        else:
            for key in ("event_count", "time", "digests", "sinks"):
                del head[key]
        head.update(sharded=True, barrier_t=60.0, barrier_index=1,
                    hood_digests={"0": "0" * 16, "1": "0" * 16})
        path = write_snapshot(head, str(tmp_path / checkpoint_filename(
            60.0, 1)))
        assert newest_checkpoint(str(tmp_path)) is None
        assert main(["run", "--restore", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "event" in err and "Traceback" not in err


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched build reaches workers by fork")
class TestWorkerFailures:
    """A hood that fails in a worker process fails the run, naming the
    error or the hood, and leaves no worker process behind."""

    def _fail_hood_1(self, monkeypatch, fail):
        build = sharded.build_experiment

        def build_or_fail(config):
            if config.name.endswith("-h1"):
                fail()
            return build(config)

        monkeypatch.setattr(sharded, "build_experiment", build_or_fail)

    def test_raising_hood_raises_its_error(self, monkeypatch):
        def fail():
            raise RuntimeError("hood one exploded")

        self._fail_hood_1(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="hood one exploded"):
            run_sharded(_config(), n_shards=2, mode="workers")
        assert multiprocessing.active_children() == []

    def test_dying_worker_names_the_hood(self, monkeypatch):
        self._fail_hood_1(monkeypatch, lambda: os._exit(1))
        with pytest.raises(RuntimeError, match="neighborhood 1 "):
            run_sharded(_config(), n_shards=2, mode="workers")
        assert multiprocessing.active_children() == []


class TestResultSurface:
    def test_describe_and_derived_fields(self):
        result = run_sharded(_config(), n_shards=2)
        text = result.describe()
        assert "4 neighborhood(s) on 2 shard(s)" in text
        assert f"digest={result.digest}" in text
        assert result.events_per_s > 0
        assert result.n_jobs == sum(s.n_jobs for s in result.summaries)
        assert result.journal is None and result.journal_digest is None
        fb = result.fallbacks()
        # Aggregated across hoods: tallies match the per-hood sums.
        assert fb["handled"] == sum(s.fallbacks["handled"]
                                    for s in result.summaries)
        assert all(v >= 0 for v in fb.values())
