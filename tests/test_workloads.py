"""Tests for workload models, generation, and trace recording."""

import math
import zlib

import numpy as np
import pytest

from repro.grid import Job, VORegistry
from repro.sim import RngRegistry
from repro.workloads import (HostWorkload, JobModel, TraceRecorder,
                             WorkloadGenerator)


@pytest.fixture
def rng():
    return RngRegistry(0).stream("workload")


@pytest.fixture
def vos():
    reg = VORegistry()
    for v in range(3):
        reg.create(f"vo{v}", n_groups=2, users_per_group=2)
    return reg


class TestJobModel:
    def test_duration_mean(self, rng):
        model = JobModel(duration_mean_s=600.0, duration_sigma=0.8,
                         min_duration_s=1.0)
        d = model.draw_durations(rng, 20000)
        assert np.mean(d) == pytest.approx(600.0, rel=0.05)

    def test_duration_floor(self, rng):
        model = JobModel(duration_mean_s=60.0, duration_sigma=2.0,
                         min_duration_s=30.0)
        assert model.draw_durations(rng, 5000).min() >= 30.0

    def test_cpu_distribution(self, rng):
        model = JobModel()
        cpus = model.draw_cpus(rng, 10000)
        assert set(np.unique(cpus)) <= {1, 2, 4, 8, 16}
        assert np.mean(cpus == 1) == pytest.approx(0.40, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            JobModel(duration_mean_s=0.0)
        with pytest.raises(ValueError):
            JobModel(cpu_choices=(1, 2), cpu_weights=(1.0,))
        with pytest.raises(ValueError):
            JobModel(cpu_choices=(1, 2), cpu_weights=(0.4, 0.4))
        with pytest.raises(ValueError):
            JobModel(cpu_choices=(0, 2), cpu_weights=(0.5, 0.5))

    def test_scaled(self):
        small = JobModel(duration_mean_s=900.0).scaled(0.1)
        assert small.duration_mean_s == 90.0


class TestWorkloadGenerator:
    def test_fixed_cadence(self, vos, rng):
        gen = WorkloadGenerator(vos, JobModel(), rng)
        wl = gen.host_workload("h0", duration_s=10.0, interarrival_s=1.0)
        assert len(wl) == 10
        assert wl.arrivals.tolist() == list(np.arange(0.0, 10.0, 1.0))

    def test_start_offset(self, vos, rng):
        gen = WorkloadGenerator(vos, JobModel(), rng)
        wl = gen.host_workload("h0", duration_s=5.0, start_s=100.0)
        assert wl.arrivals[0] == 100.0 and wl.arrivals[-1] == 104.0

    def test_poisson_mean_rate(self, vos, rng):
        gen = WorkloadGenerator(vos, JobModel(), rng)
        wl = gen.host_workload("h0", duration_s=5000.0, interarrival_s=1.0,
                               poisson=True)
        assert len(wl) == pytest.approx(5000, rel=0.1)
        assert np.all(np.diff(wl.arrivals) > 0)

    def test_jobs_cover_all_vos(self, vos, rng):
        gen = WorkloadGenerator(vos, JobModel(), rng)
        wl = gen.host_workload("h0", duration_s=600.0)
        assert {wl.identities[i][0] for i in wl.identity} == \
            {"vo0", "vo1", "vo2"}

    def test_job_materialization(self, vos, rng):
        gen = WorkloadGenerator(vos, JobModel(), rng)
        wl = gen.host_workload("h7", duration_s=5.0)
        job = wl.job_at(2)
        assert isinstance(job, Job)
        assert job.submission_host == "h7"
        assert (job.vo, job.group, job.user) == \
            wl.identities[wl.identity[2]]
        assert job.cpus == int(wl.cpus[2])

    def test_iteration_order(self, vos, rng):
        gen = WorkloadGenerator(vos, JobModel(), rng)
        wl = gen.host_workload("h0", duration_s=3.0)
        assert list(wl) == [(0.0, 0), (1.0, 1), (2.0, 2)]

    def test_fleet(self, vos, rng):
        gen = WorkloadGenerator(vos, JobModel(), rng)
        fleet = gen.fleet(["a", "b"], duration_s=10.0,
                          start_offsets={"b": 5.0})
        assert fleet["a"].arrivals[0] == 0.0
        assert fleet["b"].arrivals[0] == 5.0

    def test_deterministic(self, vos):
        def build():
            gen = WorkloadGenerator(vos, JobModel(),
                                    RngRegistry(3).stream("w"))
            return gen.host_workload("h", duration_s=50.0)
        w1, w2 = build(), build()
        assert np.array_equal(w1.identity, w2.identity)
        assert w1.identities == w2.identities
        assert np.array_equal(w1.durations, w2.durations)

    def test_empty_registry_rejected(self, rng):
        with pytest.raises(ValueError):
            WorkloadGenerator(VORegistry(), JobModel(), rng)

    def test_validation(self, vos, rng):
        gen = WorkloadGenerator(vos, JobModel(), rng)
        with pytest.raises(ValueError):
            gen.host_workload("h", duration_s=0.0)

    def test_identity_table_is_shared_by_the_fleet(self, vos, rng):
        gen = WorkloadGenerator(vos, JobModel(), rng)
        a = gen.host_workload("a", duration_s=50.0)
        b = gen.host_workload("b", duration_s=50.0)
        assert a.identities is b.identities is gen.identities
        assert a.identity.dtype.itemsize == 1  # 12 identities fit a byte


#: CRC32 over ``vo|group|user|cpus|duration_s`` of every job of the
#: seeded ``canonical_gt3(3)`` fleet, in fleet order, recorded when each
#: workload still carried three per-job name lists.
FLEET_JOBS = (324059, 0xb5845e0a)


def test_canonical_fleet_jobs_pinned():
    from repro.experiments.configs import canonical_gt3
    from repro.experiments.runner import build_experiment
    built = build_experiment(canonical_gt3(3))
    crc = n = 0
    for client in built.clients:
        workload = client.workload
        for i in range(len(workload)):
            job = workload.job_at(i)
            crc = zlib.crc32(f"{job.vo}|{job.group}|{job.user}|{job.cpus}|"
                             f"{job.duration_s!r}\n".encode(), crc)
            n += 1
    assert (n, crc) == FLEET_JOBS


class TestHostWorkloadValidation:
    IDENTITIES = (("vo0", "vo0-g0", "u0"), ("vo1", "vo1-g0", "u0"))

    def _workload(self, n=3, **overrides):
        kw = dict(host="h", arrivals=np.arange(float(n)),
                  identity=np.zeros(n, dtype=np.uint8),
                  identities=self.IDENTITIES, cpus=np.ones(n, dtype=int),
                  durations=np.full(n, 10.0))
        kw.update(overrides)
        return HostWorkload(**kw)

    def test_resolves_jobs_through_the_table(self):
        wl = self._workload(identity=np.array([1, 0, 1], dtype=np.uint8))
        assert [(j.vo, j.group, j.user)
                for j in map(wl.job_at, range(3))] == \
            [self.IDENTITIES[1], self.IDENTITIES[0], self.IDENTITIES[1]]

    @pytest.mark.parametrize("column", ["identity", "cpus", "durations"])
    def test_mismatched_column_rejected_by_name(self, column):
        full = self._workload()
        with pytest.raises(ValueError, match=f"{column} has 2 entries"):
            self._workload(**{column: getattr(full, column)[:2]})

    @pytest.mark.parametrize("bad", [2, -1])
    def test_out_of_range_identity_rejected(self, bad):
        with pytest.raises(ValueError, match="identity index out of range"):
            self._workload(identity=np.array([0, bad, 0]))

    def test_empty_workload_is_valid(self):
        assert len(self._workload(n=0)) == 0

    @pytest.mark.parametrize("bad", [0, -3])
    def test_cpus_below_one_rejected_by_name(self, bad):
        # Mid-run, from Job.__post_init__, this used to fail with no host
        # name — and a narrowed column would wrap it silently.
        with pytest.raises(ValueError, match="'h': cpus entries must be"):
            self._workload(cpus=np.array([1, bad, 2]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_nonpositive_duration_rejected_by_name(self, bad):
        with pytest.raises(ValueError, match="'h': durations entries must"):
            self._workload(durations=np.array([10.0, bad, 5.0]))

    def test_cpus_stored_narrow_read_as_int(self):
        wl = self._workload(cpus=np.array([1, 200, 3], dtype=np.int64))
        assert wl.cpus.dtype == np.uint8
        assert wl.job_at(1).cpus == 200 and type(wl.job_at(1).cpus) is int
        assert self._workload(cpus=np.array([1, 300, 3])).cpus.dtype \
            == np.uint16


class TestTraceRecorder:
    def test_query_arrays(self):
        rec = TraceRecorder()
        rec.record_query(1.0, 3.5, timed_out=False, client="c0",
                         decision_point="dp0")
        rec.record_query(2.0, None, timed_out=True, client="c1",
                         decision_point="dp0")
        q = rec.query_arrays()
        assert q["response_s"][0] == pytest.approx(2.5)
        assert math.isnan(q["response_s"][1])
        assert q["timed_out"].tolist() == [False, True]
        assert rec.n_queries == 2

    def test_job_arrays(self):
        rec = TraceRecorder()
        j = Job(vo="vo0", group="g", user="u", duration_s=10.0)
        j.mark_created(0.0)
        j.mark_dispatched(1.0, "siteX")
        j.mark_running(2.0)
        j.mark_completed(12.0)
        j.handled_by_gruber = True
        j.scheduling_accuracy = 0.9
        rec.close_job(j)
        a = rec.job_arrays()
        assert a["queue_time_s"][0] == 1.0
        assert a["handled"][0]
        assert a["site"][0] == "siteX"
        assert not a["failed"][0]

    def test_incomplete_job_has_nans(self):
        rec = TraceRecorder()
        j = Job(vo="v", group="g", user="u")
        j.mark_created(5.0)
        rec.close_job(j)
        a = rec.job_arrays()
        assert math.isnan(a["started_at"][0])
        assert math.isnan(a["queue_time_s"][0])

    def test_empty_arrays(self):
        rec = TraceRecorder()
        assert len(rec.query_arrays()["sent_at"]) == 0
        assert len(rec.job_arrays()["jid"]) == 0
