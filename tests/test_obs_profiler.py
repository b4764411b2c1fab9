"""Tests for the sampling subsystem profiler (repro.obs.profiler).

Host-side wall-clock profiling: the classifier's innermost-match-wins
bucket attribution is tested on synthetic frame chains; the sampler
thread is exercised against a real (busy) target.
"""

import time
from types import SimpleNamespace

import pytest

from repro.obs.profiler import BUCKET_PATTERNS, SubsystemProfiler, _classify


def _frames(*filenames):
    """Build an innermost-first f_back chain of fake frames."""
    frame = None
    for fn in reversed(filenames):  # outermost first
        frame = SimpleNamespace(f_code=SimpleNamespace(co_filename=fn),
                                f_back=frame)
    return frame


class TestClassifier:
    def test_innermost_match_wins(self):
        f = _frames("/x/repro/grid/site.py",      # innermost
                    "/x/repro/sim/kernel.py")
        assert _classify(f) == "site-drain"

    def test_dispatch_only_when_nothing_inner_matches(self):
        assert _classify(_frames("/x/repro/sim/kernel.py")) == "dispatch"
        f = _frames("/x/repro/core/engine.py", "/x/repro/sim/kernel.py")
        assert _classify(f) == "decide"

    def test_unknown_stack_is_other(self):
        assert _classify(_frames("/somewhere/else.py")) == "other"

    def test_every_bucket_reachable(self):
        probes = {
            "site-drain": "/x/repro/grid/site.py",
            "sync": "/x/repro/core/sync.py",
            "decide": "/x/repro/core/selectors.py",
            "control": "/x/repro/control/planner.py",
            "check": "/x/repro/check/invariants.py",
            "telemetry": "/x/repro/obs/timeline.py",
            "net": "/x/repro/net/transport.py",
            "workload": "/x/repro/workloads/diurnal.py",
            "dispatch": "/x/repro/sim/kernel.py",
        }
        assert set(probes) == {b for b, _ in BUCKET_PATTERNS}
        for bucket, path in probes.items():
            assert _classify(_frames(path)) == bucket, bucket


class TestProfilerThread:
    def test_samples_a_busy_target(self):
        with SubsystemProfiler(interval_s=0.001) as prof:
            t_end = time.perf_counter() + 0.08  # det: ok - host profiling test
            while time.perf_counter() < t_end:  # det: ok - host profiling test
                sum(range(200))
        report = prof.report()
        assert report["samples"] > 0
        assert report["wall_s"] > 0.05
        # The busy loop lives in the test file -> "other" dominates (a
        # stray sample can land in profiler start/stop frames, which
        # classify as telemetry).
        assert list(report["buckets"])[0] == "other"
        assert report["buckets"]["other"]["pct"] > 50.0

    def test_report_percentages_sum_to_100(self):
        prof = SubsystemProfiler()
        prof.samples = {"decide": 3, "dispatch": 1}
        prof.total_samples = 4
        buckets = prof.report()["buckets"]
        assert sum(b["pct"] for b in buckets.values()) == 100.0
        assert list(buckets) == ["decide", "dispatch"]  # sorted by weight

    def test_double_start_rejected_and_stop_idempotent(self):
        prof = SubsystemProfiler(interval_s=0.005)
        prof.start()
        with pytest.raises(RuntimeError):
            prof.start()
        prof.stop()
        prof.stop()  # no-op
        assert prof.report()["samples"] >= 0

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            SubsystemProfiler(interval_s=0.0)

    def test_profiles_a_real_experiment(self):
        from repro.experiments.configs import smoke_config
        from repro.experiments.runner import run_experiment
        # Independent of simulator speed: the sampler only runs when the
        # interpreter hands it the GIL, so a faster simulator yields
        # fewer samples per run.  Repeat the run (bounded) until the
        # profiler holds enough samples, instead of assuming one run is
        # slow enough.
        config = smoke_config(duration_s=3600.0, n_clients=8)
        with SubsystemProfiler(interval_s=0.001) as prof:
            for _ in range(100):
                run_experiment(config)
                if prof.total_samples > 10:
                    break
        report = prof.report()
        assert report["samples"] > 10
        # The run spends its time inside repro subsystems, not "other".
        known = sum(b["samples"] for name, b in report["buckets"].items()
                    if name != "other")
        assert known > 0
