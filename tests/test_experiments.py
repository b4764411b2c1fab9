"""Integration tests: full experiment runs on the smoke configuration."""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    canonical_gt3,
    canonical_gt4,
    run_experiment,
    run_fig1_service_creation,
    smoke_config,
)
from repro.experiments.figures import (
    accuracy_vs_interval_table,
    run_accuracy_sweep,
    run_scalability_sweep,
    table_overall_performance,
)


@pytest.fixture(scope="module")
def smoke_result():
    return run_experiment(smoke_config())


class TestConfigs:
    def test_canonical_presets(self):
        gt3 = canonical_gt3(3)
        assert gt3.decision_points == 3 and gt3.profile.name == "GT3"
        gt4 = canonical_gt4(10)
        assert gt4.profile.name == "GT4"
        assert gt4.n_clients < gt3.n_clients

    def test_with_override(self):
        cfg = smoke_config().with_(decision_points=5)
        assert cfg.decision_points == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(decision_points=0)
        with pytest.raises(ValueError):
            ExperimentConfig(ramp_fraction=0.0)

    def test_ramp_span(self):
        cfg = ExperimentConfig(duration_s=1000.0, ramp_fraction=0.4)
        assert cfg.ramp_span_s == 400.0


class TestRunExperiment:
    def test_jobs_flow_end_to_end(self, smoke_result):
        assert smoke_result.n_jobs > 50
        fb = smoke_result.client_fallbacks()
        assert fb["handled"] > 0

    def test_categories_partition_requests(self, smoke_result):
        n_all = smoke_result.n_requests("all")
        assert (smoke_result.n_requests("handled")
                + smoke_result.n_requests("not_handled")) == n_all

    def test_metric_ranges(self, smoke_result):
        assert 0.0 <= smoke_result.utilization("all") <= 1.0
        assert 0.0 <= smoke_result.accuracy("handled") <= 1.0
        assert smoke_result.qtime("all") >= 0.0

    def test_diperf_series(self, smoke_result):
        d = smoke_result.diperf(window_s=30.0)
        _, load = d.load_series()
        assert load.max() == smoke_result.config.n_clients
        assert d.n_queries > 0

    def test_dp_ops_counted(self, smoke_result):
        ops = smoke_result.dp_ops()
        assert sum(ops.values()) > 0

    def test_deterministic_given_seed(self):
        cfg = smoke_config(duration_s=120.0)
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert r1.n_jobs == r2.n_jobs
        q1 = r1.trace.query_arrays()["response_s"]
        q2 = r2.trace.query_arrays()["response_s"]
        assert np.allclose(q1, q2, equal_nan=True)

    def test_seed_changes_outcome(self):
        r1 = run_experiment(smoke_config(duration_s=120.0))
        r2 = run_experiment(smoke_config(duration_s=120.0, seed=99))
        q1 = r1.trace.query_arrays()["response_s"]
        q2 = r2.trace.query_arrays()["response_s"]
        assert len(q1) != len(q2) or not np.allclose(q1, q2, equal_nan=True)

    def test_table_row_fields(self, smoke_result):
        row = smoke_result.table_row("handled")
        assert set(row) == {"category", "pct_req", "n_req", "qtime_s",
                            "norm_qtime", "util_pct", "accuracy_pct"}
        assert np.isnan(smoke_result.table_row("not_handled")["accuracy_pct"])

    def test_summary_renders(self, smoke_result):
        text = smoke_result.summary()
        assert "requests=" in text and "accuracy" in text


class TestMoreDecisionPointsHelp:
    """The paper's core claim at smoke scale: k=3 beats k=1 under load."""

    @pytest.fixture(scope="class")
    def results(self):
        base = smoke_config(n_clients=48, duration_s=600.0)
        return run_scalability_sweep(base, dp_counts=(1, 3))

    def test_throughput_improves(self, results):
        t1 = results[1].diperf().mean_throughput()
        t3 = results[3].diperf().mean_throughput()
        assert t3 > 1.5 * t1

    def test_response_improves(self, results):
        r1 = results[1].diperf().response_stats().average
        r3 = results[3].diperf().response_stats().average
        assert r3 < r1

    def test_handled_fraction_improves(self, results):
        h1 = results[1].n_requests("handled") / max(results[1].n_jobs, 1)
        h3 = results[3].n_requests("handled") / max(results[3].n_jobs, 1)
        assert h3 > h1

    def test_table_renders(self, results):
        text = table_overall_performance(results)
        assert "Handled" in text and "All req" in text


class TestFig1:
    def test_shape(self):
        result = run_fig1_service_creation(n_clients=40, duration_s=400.0)
        # Saturation: peak windowed throughput near container capacity.
        from repro.net import GT3_PROFILE
        _, rates = result.throughput_series()
        assert rates.max() == pytest.approx(GT3_PROFILE.instance_capacity_qps,
                                            rel=0.3)
        # Response grows under load.
        stats = result.response_stats()
        assert stats.maximum > 2 * stats.minimum


class TestAccuracySweep:
    def test_sweep_runs_and_renders(self):
        base = smoke_config(n_clients=12, duration_s=300.0)
        results = run_accuracy_sweep(base, intervals_min=(0.5, 5.0),
                                     decision_points=2)
        assert set(results) == {0.5, 5.0}
        text = accuracy_vs_interval_table(results)
        assert "0.5 min" in text
