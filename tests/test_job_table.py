"""The recorder owns the job table: a job is live until it completes,
then it is one row and the object is gone.

The reference here is the old way — keep every materialized job to the
end of the run and convert each at finalize — and the new table must
equal it row for row, in the same order.
"""

import gc
import os
import pickle
import tracemalloc

import numpy as np
import pytest

import repro.sim.sharded as sharded
import repro.workloads.generator as generator_module
import repro.workloads.models as models_module
import repro.workloads.trace as trace_module
from repro.experiments.configs import canonical_gt3, smoke_config
from repro.experiments.runner import build_experiment, finalize_experiment
from repro.grid.job import Job, JobState
from repro.workloads.trace import JOB_FIELDS, TraceRecorder

_NAN = float("nan")


def _or_nan(value):
    return _NAN if value is None else value


def reference_rows(jobs):
    """What finalize used to record for each job, as named columns."""
    rows = [(j.jid, j.vo, j.group, _or_nan(j.created_at),
             _or_nan(j.dispatched_at), _or_nan(j.started_at),
             _or_nan(j.completed_at), j.cpus, j.duration_s, j.site or "",
             j.handled_by_gruber, _or_nan(j.scheduling_accuracy),
             _or_nan(j.queue_time_s), j.state is JobState.FAILED)
            for j in jobs]
    return dict(zip(JOB_FIELDS, map(list, zip(*rows))))


def assert_table_equals(table, reference):
    assert set(table) == set(reference)
    for name, ref in reference.items():
        got = table[name]
        if got.dtype == np.float64:
            assert np.array_equal(got, np.asarray(ref, dtype=np.float64),
                                  equal_nan=True), name
        else:
            assert got.tolist() == ref, name


@pytest.fixture
def opened(monkeypatch):
    """Every job each recorder opens, kept alive to the end (by recorder)."""
    seen = {}
    open_job = TraceRecorder.open_job

    def keeping(self, job):
        seen.setdefault(id(self), []).append(job)
        open_job(self, job)

    monkeypatch.setattr(TraceRecorder, "open_job", keeping)
    return seen


def old_order(built, jobs):
    """The old table order: client by client, each in creation order."""
    by_host = {}
    for job in jobs:
        by_host.setdefault(job.submission_host, []).append(job)
    return [job for host in built.hosts for job in by_host.get(host, [])]


class TestRowsMatchTheOldTable:
    def test_canonical_gt3(self, opened):
        built = build_experiment(canonical_gt3(3, duration_s=600.0))
        built.sim.run(until=600.0)
        assert built.trace.n_jobs > 500  # completed jobs are rows already
        result = finalize_experiment(built)
        jobs = old_order(built, opened[id(built.trace)])
        assert result.trace.n_jobs == len(jobs) and not result.trace.live
        assert_table_equals(result.trace.job_arrays(), reference_rows(jobs))

    def test_sharded_hood(self, opened, monkeypatch):
        builts = []
        finalize = sharded.finalize_experiment

        def capturing(built):
            builts.append(built)
            return finalize(built)

        monkeypatch.setattr(sharded, "finalize_experiment", capturing)
        sharded.run_sharded(smoke_config(decision_points=2, n_clients=16,
                                         n_sites=16, total_cpus=800,
                                         duration_s=300.0), n_shards=2)
        assert len(builts) == 2
        hood = builts[1]  # jids offset into the hood's own block
        jobs = old_order(hood, opened[id(hood.trace)])
        assert jobs and jobs[0].jid > 1
        assert_table_equals(hood.trace.job_arrays(), reference_rows(jobs))


class TestLifecycle:
    def test_failed_then_replanned_job_is_one_row(self):
        config = smoke_config(n_clients=8, duration_s=600.0)
        built = build_experiment(config)
        built.sim.run(until=200.0)
        site, job = min(((s, j) for s in built.grid.sites.values()
                         for j in s._running.values()),
                        key=lambda pair: pair[1].duration_s)
        site.fail_running_job(job.jid)
        assert built.trace.live[job.jid] is job  # FAILED stays live
        built.sim.run(until=210.0)
        job.reset_for_replan()
        site.submit(job)
        built.sim.run(until=config.duration_s)
        assert job.state is JobState.COMPLETED
        assert job.jid not in built.trace.live
        rows = finalize_experiment(built).trace.job_arrays()
        mine = np.flatnonzero(rows["jid"] == job.jid)
        assert len(mine) == 1
        assert not rows["failed"][mine[0]]
        assert rows["started_at"][mine[0]] == 210.0
        assert rows["completed_at"][mine[0]] == job.completed_at

    def test_no_completed_job_survives_the_run(self):
        gc.collect()
        # Held to the end of the test, so no id of theirs is reused.
        before = [o for o in gc.get_objects() if type(o) is Job]
        known = {id(o) for o in before}
        built = build_experiment(canonical_gt3(3, duration_s=600.0))
        built.sim.run(until=600.0)
        gc.collect()
        alive = [o for o in gc.get_objects()
                 if type(o) is Job and id(o) not in known]
        assert built.trace.n_jobs > 500
        assert not [j for j in alive if j.state is JobState.COMPLETED]
        assert sorted(map(id, alive)) == \
            sorted(map(id, built.trace.live.values()))

    def test_job_is_slotted(self):
        job = Job(vo="v", group="g", user="u")
        assert not hasattr(job, "__dict__")
        with pytest.raises(AttributeError):
            job.note = "no such field"


class TestQueryRows:
    def _recorder(self):
        rec = TraceRecorder()
        rec.record_query(1.0, 3.5, timed_out=False, client="c0",
                         decision_point="dp0")
        rec.record_query(2.0, None, timed_out=True, client="c1",
                         decision_point="dp1")
        return rec

    def test_rows_are_the_old_tuples(self):
        rows = list(self._recorder().query_rows())
        assert rows[0] == (1.0, 3.5, 2.5, False, "c0", "dp0")
        assert rows[1][:1] == (2.0,) and rows[1][3:] == (True, "c1", "dp1")
        assert all(x != x for x in rows[1][1:3])  # NaN
        assert [type(r[3]) for r in rows] == [bool, bool]

    def test_rows_reiterate_pickle_and_rebuild(self):
        rec = self._recorder()
        view = rec.query_rows()
        assert len(view) == 2 and repr(list(view)) == repr(list(view))
        assert repr(list(pickle.loads(pickle.dumps(view)))) == \
            repr(list(view))
        again = TraceRecorder.from_query_rows(view)
        assert repr(list(again.query_rows())) == repr(list(view))

    def test_view_holds_the_rows_it_was_taken_with(self):
        rec = self._recorder()
        view = rec.query_rows()
        rec.record_query(3.0, 4.0, timed_out=False, client="c0",
                         decision_point="dp0")
        assert len(list(view)) == 2 and rec.n_queries == 3


def _retained(duration_s: float):
    """Bytes allocated by the run phase (the build has its own gate,
    ``test_workload_bytes_per_host_are_flat_in_horizon``) and still held
    when the run reaches ``duration_s`` — by the recorder, and in total —
    plus the jobs the fleet materialized."""
    gc.collect()
    tracemalloc.start()
    try:
        built = build_experiment(smoke_config(n_clients=40,
                                              duration_s=duration_s))
        after_build = tracemalloc.get_traced_memory()[0]
        built.sim.run(until=duration_s)
        gc.collect()
        run_phase = tracemalloc.get_traced_memory()[0] - after_build
        stats = tracemalloc.take_snapshot().statistics("filename")
    finally:
        tracemalloc.stop()
    recorder_file = os.path.abspath(trace_module.__file__)
    recorder = sum(s.size for s in stats
                   if os.path.abspath(s.traceback[0].filename)
                   == recorder_file)
    return recorder, run_phase, sum(c._next for c in built.clients)


def test_retained_bytes_per_brokered_job():
    """Deterministic flat-memory gate (RSS is too noisy for CI): between
    a 900 s and a 2,700 s run of 40 hosts, the recorder grows <= 200 B
    per brokered job (a job row plus its query row), and the run phase
    retains <= 450 B more per job (~590 B when completed jobs were kept;
    the rest is live jobs queued on this oversubscribed grid)."""
    build_experiment(smoke_config(duration_s=60.0))  # imports, caches
    rec_a, run_a, jobs_a = _retained(900.0)
    rec_b, run_b, jobs_b = _retained(2700.0)
    jobs = jobs_b - jobs_a
    assert jobs > 3000
    assert (rec_b - rec_a) / jobs <= 200.0
    assert (run_b - run_a) / jobs <= 450.0


def _workload_bytes_per_host(duration_s: float) -> tuple[float, float]:
    """Bytes held once ``canonical_gt3(3)`` is built, per submission host
    (tracemalloc, by allocating file): by ``workloads/generator.py``, and
    by it and ``workloads/models.py`` together."""
    generator = os.path.abspath(generator_module.__file__)
    files = {generator, os.path.abspath(models_module.__file__)}
    gc.collect()
    tracemalloc.start()
    try:
        built = build_experiment(canonical_gt3(3, duration_s=duration_s))
        gc.collect()
        stats = tracemalloc.take_snapshot().statistics("filename")
    finally:
        tracemalloc.stop()
    held = {os.path.abspath(s.traceback[0].filename): s.size for s in stats}
    n = len(built.clients)
    return held.get(generator, 0) / n, sum(held.get(f, 0) for f in files) / n


def test_workload_bytes_per_host_are_flat_in_horizon():
    """A host's job stream is a cursor: after build it keeps stream
    positions and an arrival lattice (~1 KB), not columns (52 KB an
    hour, 19 B a job, when they were drawn up front), so a 24-h build
    holds what a 1-h one does.  The 5 % comparison reads the generator's
    own bytes: numpy's ``choice`` now and then leaves ~100 small blocks
    (held by no workload) on the model's draw line, ~6 % of the total."""
    build_experiment(smoke_config(duration_s=60.0))  # imports, caches
    hour_own, hour = _workload_bytes_per_host(3_600.0)
    day_own, day = _workload_bytes_per_host(86_400.0)
    assert hour <= 1536 and day <= 1536
    assert abs(day_own - hour_own) <= 0.05 * hour_own
