"""Model-based validation of experiment results.

Predicts a run's equilibrium throughput and response time from its
configuration using the machine-repairman closed form (``repro.analysis``)
and compares against the measured outcome — the reproduction's numbers
are then theory-backed, not merely internally consistent.

The mapping from an :class:`ExperimentConfig` to the queueing model:

* each decision point is an M/M/1-ish station at the container's
  brokering rate ``1 / (query_service_s + report_service_s)``;
* its "machines" are the clients assigned to it (``n_clients / k`` on
  average), each with think time = everything a brokering operation
  spends *off* the container: client stack overhead, the protocol's
  WAN round trips, and the bulk state transfer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.queueing import QueueMetrics, machine_repairman
from repro.experiments.configs import ExperimentConfig
from repro.net.latency import WAN_MEDIAN_MS

__all__ = ["EquilibriumPrediction", "predict_equilibrium", "validate_result"]


@dataclass(frozen=True)
class EquilibriumPrediction:
    """Theory-side numbers for one configuration at full ramp."""

    per_dp: QueueMetrics
    decision_points: int

    @property
    def throughput_qps(self) -> float:
        return self.per_dp.throughput * self.decision_points

    @property
    def response_s(self) -> float:
        """End-to-end operation time = station response + think."""
        return self.per_dp.response_s + self._think_s

    _think_s: float = 0.0


def _think_time_s(config: ExperimentConfig) -> float:
    """Mean off-container time per brokering operation."""
    wan_rtt = 0.0 if config.lan else 2.0 * WAN_MEDIAN_MS / 1000.0
    rtts = config.profile.query_rtts + 1  # protocol RTTs + the report RTT
    transfer = (0.0 if config.lan else
                config.kb_transfer_s * config.site_state_kb * config.n_sites)
    return config.profile.client_overhead_s + rtts * wan_rtt + transfer


def predict_equilibrium(config: ExperimentConfig) -> EquilibriumPrediction:
    """Machine-repairman prediction at full client participation."""
    think = _think_time_s(config)
    service_rate = config.profile.query_capacity_qps
    clients_per_dp = max(config.n_clients / config.decision_points, 1.0)
    per_dp = machine_repairman(
        n_clients=max(int(round(clients_per_dp)), 1),
        think_s=think, service_rate=service_rate, c=1)
    return EquilibriumPrediction(per_dp=per_dp,
                                 decision_points=config.decision_points,
                                 _think_s=think)


@dataclass(frozen=True)
class ValidationReport:
    """Measured vs predicted, with relative errors."""

    predicted_throughput: float
    measured_throughput: float
    predicted_response: float
    measured_response: float

    @property
    def throughput_error(self) -> float:
        return abs(self.measured_throughput - self.predicted_throughput) \
            / max(self.predicted_throughput, 1e-12)

    @property
    def response_error(self) -> float:
        return abs(self.measured_response - self.predicted_response) \
            / max(self.predicted_response, 1e-12)

    def summary(self) -> str:
        return (f"throughput: predicted {self.predicted_throughput:.2f} q/s, "
                f"measured {self.measured_throughput:.2f} "
                f"({self.throughput_error:.0%} off)\n"
                f"response:   predicted {self.predicted_response:.1f} s, "
                f"measured {self.measured_response:.1f} "
                f"({self.response_error:.0%} off)")


def validate_result(result) -> ValidationReport:
    """Compare a finished run's peak windows against the prediction.

    Peak-window throughput and peak windowed response are compared
    against the full-ramp equilibrium (the ramp's earlier windows run
    below it, so whole-run averages would be biased low).
    """
    prediction = predict_equilibrium(result.config)
    d = result.diperf()
    return ValidationReport(
        predicted_throughput=prediction.throughput_qps,
        measured_throughput=d.throughput_stats().peak,
        predicted_response=prediction.response_s,
        measured_response=d.response_stats().peak)
