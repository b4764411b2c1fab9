"""Tests for workload models, generation, and trace recording."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.grid import Job, VORegistry
from repro.sim import RngRegistry
from repro.workloads import (HostWorkload, JobModel, TraceRecorder,
                             WorkloadGenerator, arrival_profile)
from repro.workloads.generator import Lattice


def eager_columns(gen, rng, duration_s, interarrival_s=1.0, start_s=0.0,
                  poisson=False, diurnal_amplitude=0.0,
                  diurnal_period_s=86400.0, profile=None):
    """The oracle: ``host_workload`` as it was when every column was drawn
    up front on ``rng`` — ``(arrivals, identity, cpus, durations)``."""
    burst_factor, burst_period_s, burst_duty = 1.0, 0.0, 0.25
    if profile is not None:
        resolved = profile.resolve(duration_s)
        poisson = resolved.poisson
        interarrival_s = interarrival_s * resolved.interarrival_scale
        diurnal_amplitude = resolved.diurnal_amplitude
        if resolved.diurnal_period_s > 0:
            diurnal_period_s = resolved.diurnal_period_s
        burst_factor = resolved.burst_factor
        burst_period_s = resolved.burst_period_s
        burst_duty = resolved.burst_duty
    if burst_factor > 1.0 and burst_period_s > 0:
        interarrival_s = interarrival_s / burst_factor
    if poisson:
        est = int(duration_s / interarrival_s * 1.5) + 10
        gaps = rng.exponential(interarrival_s, size=est)
        arrivals = start_s + np.cumsum(gaps)
        arrivals = arrivals[arrivals < start_s + duration_s]
    else:
        arrivals = start_s + np.arange(0.0, duration_s, interarrival_s)
    if diurnal_amplitude > 0.0 and len(arrivals):
        phase = 2.0 * np.pi * arrivals / diurnal_period_s
        drop_p = diurnal_amplitude * (1.0 - np.cos(phase)) / 2.0
        keep = rng.random(len(arrivals)) >= drop_p
        arrivals = arrivals[keep]
    if burst_factor > 1.0 and burst_period_s > 0 and len(arrivals):
        in_burst = (arrivals % burst_period_s) < \
            burst_duty * burst_period_s
        keep = in_burst | (rng.random(len(arrivals)) < 1.0 / burst_factor)
        arrivals = arrivals[keep]
    n = len(arrivals)
    return (arrivals, rng.integers(0, len(gen.identities), size=n),
            gen.model.draw_cpus(rng, n), gen.model.draw_durations(rng, n))


def rows(wl):
    """Every job of ``wl`` as ``(vo, group, user, cpus, duration_s)``."""
    return [(j.vo, j.group, j.user, j.cpus, j.duration_s)
            for j in map(wl.job_at, range(len(wl)))]


@pytest.fixture
def rng():
    return RngRegistry(0).stream("workload")


def make_vos():
    reg = VORegistry()
    for v in range(3):
        reg.create(f"vo{v}", n_groups=2, users_per_group=2)
    return reg


@pytest.fixture
def vos():
    return make_vos()


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
        assert np.asarray(wl.arrivals).tolist() == \
            list(np.arange(0.0, 10.0, 1.0))

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
        assert {row[0] for row in rows(wl)} == {"vo0", "vo1", "vo2"}

    def test_job_materialization(self, vos, rng):
        gen = WorkloadGenerator(vos, JobModel(), rng)
        wl = gen.host_workload("h7", duration_s=5.0)
        _, identity, cpus, _ = eager_columns(
            gen, RngRegistry(0).stream("workload"), duration_s=5.0)
        job = wl.job_at(2)
        assert isinstance(job, Job)
        assert job.submission_host == "h7"
        assert (job.vo, job.group, job.user) == wl.identities[identity[2]]
        assert job.cpus == int(cpus[2])

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
        assert rows(w1) == rows(w2)
        assert w1.identities == w2.identities

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
        # A generated host keeps stream positions, not a column.
        assert a.source is gen and len(a.identity) == 0
        assert {row[:3] for row in rows(a)} <= set(gen.identities)


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

    def test_nan_arrival_rejected_by_name(self):
        # It used to pass, and the backlog then counted from a
        # NaN-poisoned ``searchsorted``.
        with pytest.raises(ValueError, match="'h': arrivals must be finite "
                                             r"\(first bad at index 1\)"):
            self._workload(arrivals=np.array([0.0, np.nan, 2.0]))

    def test_fractional_cpus_rejected_by_name(self):
        # It used to be narrowed to 1 without a word.
        with pytest.raises(ValueError, match="'h': cpus entries must be "
                                             "integers, got float64"):
            self._workload(cpus=np.array([1.0, 1.5, 2.0]))

    def test_infinite_duration_rejected_by_name(self):
        # It used to give a job that never completes.
        with pytest.raises(ValueError, match="'h': durations entries must "
                                             "be finite"):
            self._workload(durations=np.array([10.0, np.inf, 5.0]))

    def test_float_identity_rejected_by_name(self):
        # It used to pass construction and raise TypeError mid-run.
        with pytest.raises(ValueError, match="'h': identity entries must be "
                                             "integers, got float64"):
            self._workload(identity=np.array([0.0, 1.0, 0.0]))

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


class TestOnDemand:
    """A generated workload keeps stream positions and redraws its jobs;
    they must equal the up-front draw, in any access order."""

    PROFILES = {
        "steady": {},
        "poisson": {"poisson": True},
        "cadence-diurnal": {"diurnal_amplitude": 0.6,
                            "diurnal_period_s": 97.0},
        "diurnal": {"profile": arrival_profile("diurnal")},
        "bursty": {"profile": arrival_profile("bursty")},
    }

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), hosts=st.integers(1, 4),
           profile=st.sampled_from(sorted(PROFILES)),
           interarrival=st.sampled_from([0.1, 0.7, 1.0, 3.0, 12.5]),
           horizon=st.floats(0.5, 900.0),
           order=st.sampled_from(["sequential", "backward", "random"]),
           data=st.data())
    def test_drawn_on_demand_equals_drawn_up_front(
            self, seed, hosts, profile, interarrival, horizon, order, data):
        kw = dict(self.PROFILES[profile], interarrival_s=interarrival)
        lazy_rng = RngRegistry(seed).stream("workload")
        eager_rng = RngRegistry(seed).stream("workload")
        gen = WorkloadGenerator(make_vos(), JobModel(), lazy_rng)
        built, oracle = [], []
        for h in range(hosts):
            start = 2.5 * h
            built.append(gen.host_workload(f"h{h}", duration_s=horizon,
                                           start_s=start, **kw))
            oracle.append(eager_columns(gen, eager_rng, horizon,
                                        start_s=start, **kw))
        # The shared stream ends exactly where the up-front build left it.
        assert lazy_rng.bit_generator.state == eager_rng.bit_generator.state
        for wl, (arrivals, identity, cpus, durations) in zip(built, oracle):
            n = len(arrivals)
            assert len(wl) == n
            assert np.array_equal(np.asarray(wl.arrivals), arrivals)
            assert [wl.arrivals[i] for i in range(n)] == arrivals.tolist()
            if order == "sequential":
                indices = list(range(n))
            elif order == "backward":
                indices = list(range(n - 1, -1, -1))
            else:
                indices = data.draw(st.lists(st.integers(0, max(n - 1, 0)),
                                             max_size=40)) if n else []
            for i in indices:
                job = wl.job_at(i)
                assert (job.vo, job.group, job.user) == \
                    gen.identities[identity[i]]
                assert job.cpus == int(cpus[i])
                assert job.duration_s == float(durations[i])
        # Redraws touch only the scratch generator, never the stream.
        assert lazy_rng.bit_generator.state == eager_rng.bit_generator.state

    @settings(max_examples=200, deadline=None)
    # Starts far above the step collapse neighbouring arrivals onto one
    # float, where the inverse estimate overshoots and must come down.
    @example(start=4537200832423622.0, step=0.20768110708697435,
             horizon=4.9, data=None)
    @given(start=st.one_of(st.just(0.0), st.floats(0.0, 5e4),
                           st.floats(1e12, 1e16)),
           step=st.one_of(st.sampled_from([0.1, 1.0, 10.0]),
                          st.floats(0.01, 60.0)),
           horizon=st.floats(0.01, 5000.0), data=st.data())
    def test_lattice_is_the_arange(self, start, step, horizon, data):
        eager = start + np.arange(0.0, horizon, step)
        lattice = Lattice(start, step, np.ceil(horizon / step))
        assert len(lattice) == len(eager)
        assert np.array_equal(np.asarray(lattice), eager)
        n = len(eager)
        if data is None:  # the explicit example: every arrival
            points = list(eager)
        else:
            points = [eager[data.draw(st.integers(0, n - 1))]
                      for _ in range(3)]
            points += [data.draw(st.floats(start - 5, start + horizon + 5))
                       for _ in range(3)]
        points += [np.nextafter(p, d) for p in points for d in (-1, 1)
                   ] + [-np.inf, np.inf]
        for t in points:
            for side in ("left", "right"):
                assert lattice.searchsorted(t, side) == \
                    np.searchsorted(eager, t, side=side), (t, side)
        assert lattice[-1] == eager[-1] and lattice[n // 2] == eager[n // 2]
        assert len(lattice[:0]) == 0 and len(lattice[: n // 2]) == n // 2
        with pytest.raises(IndexError):
            lattice[n]

    def test_window_grows_then_restarts_backward(self, vos, rng):
        gen = WorkloadGenerator(vos, JobModel(), rng)
        wl = gen.host_workload("h", duration_s=300.0)
        wl.job_at(10)
        assert len(wl.durations) == 16  # one first window covers job 10
        wl.job_at(299)
        assert len(wl.durations) <= 64
        before = [wl.job_at(i).duration_s for i in (3, 0, 1)]
        assert wl._lo == 0
        assert before == [wl.job_at(i).duration_s for i in (3, 0, 1)]
        with pytest.raises(IndexError):
            wl.job_at(300)

    def test_non_pcg64_stream_rejected_by_name(self, vos):
        rng = np.random.Generator(np.random.MT19937(1))
        with pytest.raises(TypeError, match="PCG64 stream, got MT19937"):
            WorkloadGenerator(vos, JobModel(), rng)
