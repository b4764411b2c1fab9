"""Time-resolved telemetry: the DES-clock metric timeline.

The paper's entire evaluation is post-hoc — every question about DP
load, sync accuracy, or scheduling latency is answered *after* the run
from final aggregates.  GridSim-lineage toolkits instead treat run-time
statistics recording as a first-class feature; this module is that
telemetry plane:

* :class:`TimelineSampler` — a periodic sampler on the simulation
  clock.  Each tick takes one unified
  :meth:`~repro.obs.counters.MetricsRegistry.collect` pass (counters,
  gauges, one-pass histogram summaries) plus a kernel section (heap
  size, dead-entry ratio, event rate) and appends the row to a bounded
  in-memory series, optionally streaming it to a
  :class:`~repro.obs.jsonl.JsonlSink`.  When a deployment is attached
  the sampler drives (or reuses) the control plane's
  :class:`~repro.control.signals.SignalBus`, so control and telemetry
  read **one** code path — gauges are computed once per tick, never
  re-derived.
* Timeline files — a ``{"meta": ...}`` header line (see
  :func:`timeline_meta`) followed by one row per line, every row in the
  registry schema ``{"t", "counters", "gauges", "histograms"}``.
  ``digruber top`` replays or live-tails them; :func:`load_timeline`
  reads them back.
* :func:`hood_row` / :func:`merge_hood_timelines` — sharded runs sample
  each DP neighborhood every ``telemetry_interval_s`` from *hood-local*
  state only and merge the hoods into one registry-schema row per
  instant, so the grid-wide timeline is bit-identical regardless of how
  hoods are grouped onto shards (the same partition-independence
  contract as the event journals) and renders through the same
  dashboard path.

Determinism is a hard invariant: a sampler tick is strictly read-only
with respect to the simulation — no RNG draws, no semantic state
mutation; the only events it schedules are its own ticks.  A run with
telemetry on therefore executes the exact same semantic event sequence
as one without (``digruber diff --pair observers`` enforces this).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from repro.obs.jsonl import JsonlSink, read_jsonl

if TYPE_CHECKING:  # pragma: no cover
    from repro.control.signals import SignalBus
    from repro.experiments.configs import ExperimentConfig
    from repro.sim.kernel import Simulator

__all__ = ["TIMELINE_CAPACITY", "TimelineSampler", "header_of", "hood_row",
           "load_timeline", "merge_hood_timelines", "timeline_meta"]

#: Bound on the in-memory series (~120 rows in a paper-length run); the
#: flight recorder reads its tail, the sink file still sees every row.
TIMELINE_CAPACITY = 512


class TimelineSampler:
    """Periodic unified metric sampling on the DES clock.

    Parameters
    ----------
    sim:
        The simulator whose registry/kernel state is sampled.
    interval_s:
        Sampling cadence in simulated seconds.
    capacity:
        Bound on the in-memory series; older rows are evicted (a JSONL
        sink, when configured, still sees every row).
    deployment:
        Optional :class:`~repro.core.broker.DIGruberDeployment`; when
        given (and no ``bus``), the sampler owns a
        :class:`~repro.control.signals.SignalBus` so per-DP queue
        depth / decide latency / sync-lag gauges are published each
        tick.
    bus:
        An existing SignalBus to *read through* instead of owning one —
        the autoscale planner's, typically.  The sampler then never
        calls ``bus.sample()`` itself (the planner already does, on its
        own cadence); it just collects the gauges the bus published.
        That is the dedup contract: one gauge computation per control
        tick, shared by control and telemetry.
    grid:
        Optional :class:`~repro.grid.builder.Grid`; adds grid-wide
        utilization/queue gauges (``grid.*``) each tick.
    sink:
        Stream every row to this :class:`~repro.obs.jsonl.JsonlSink`
        (opened by the caller with a :func:`timeline_meta` header, and
        closed by the caller — the sampler only writes).
    """

    def __init__(self, sim: "Simulator", interval_s: float = 30.0,
                 capacity: int = TIMELINE_CAPACITY, deployment: Any = None,
                 bus: Optional["SignalBus"] = None, grid: Any = None,
                 sink: Optional[JsonlSink] = None):
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.sim = sim
        self.interval_s = interval_s
        self.grid = grid
        self.bus = bus
        self._owns_bus = False
        if bus is None and deployment is not None:
            from repro.control.signals import SignalBus
            self.bus = SignalBus(sim, deployment, window_s=interval_s)
            self._owns_bus = True
        self.rows: deque = deque(maxlen=capacity)
        self.samples_taken = 0
        self.sink = sink
        self._prev_events = sim.events_executed
        self._prev_t = sim.now
        self._handle = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Begin periodic sampling (first row at ``interval_s``)."""
        if self._handle is not None:
            raise RuntimeError("sampler already started")
        self._handle = self.sim.every(self.interval_s, self.tick,
                                      name="telemetry", on_error="record")

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def finish(self) -> None:
        """Stop sampling and record one last row at the current instant
        (unless a tick already landed on it), so the timeline always
        covers end-of-run state."""
        self.stop()
        if not self.rows or self.rows[-1]["t"] != self.sim.now:
            self.tick()

    # -- sampling -------------------------------------------------------
    def tick(self) -> dict:
        """Take one snapshot row; called on the DES clock."""
        sim = self.sim
        now = sim.now
        if self.bus is not None and self._owns_bus:
            # Telemetry-only runs: the sampler drives the bus.  With a
            # planner present the planner's tick already sampled; the
            # registry holds the published gauges and we only read.
            self.bus.sample()
        if self.grid is not None:
            self._publish_grid_gauges(now)
        self._publish_kernel_gauges(now)
        row = sim.metrics.collect(now=now)
        self.rows.append(row)
        self.samples_taken += 1
        if self.sink is not None:
            self.sink.write(row)
        return row

    def _publish_kernel_gauges(self, now: float) -> None:
        sim = self.sim
        metrics = sim.metrics
        heap_len = len(sim._heap)
        dead = sim._dead
        events = sim.events_executed
        dt = now - self._prev_t
        rate = (events - self._prev_events) / dt if dt > 0 else 0.0
        self._prev_events = events
        self._prev_t = now
        metrics.gauge("kernel.heap_len").set(heap_len, at=now)
        metrics.gauge("kernel.heap_dead").set(dead, at=now)
        metrics.gauge("kernel.heap_dead_ratio").set(
            dead / heap_len if heap_len else 0.0, at=now)
        metrics.gauge("kernel.events_executed").set(events, at=now)
        metrics.gauge("kernel.event_rate").set(rate, at=now)
        metrics.gauge("kernel.processes").set(len(sim._processes), at=now)

    def _publish_grid_gauges(self, now: float) -> None:
        busy, total, queued, running, completed = _grid_totals(self.grid)
        metrics = self.sim.metrics
        metrics.gauge("grid.busy_cpus").set(busy, at=now)
        metrics.gauge("grid.total_cpus").set(total, at=now)
        metrics.gauge("grid.util").set(busy / total if total else 0.0, at=now)
        metrics.gauge("grid.queued_jobs").set(queued, at=now)
        metrics.gauge("grid.running_jobs").set(running, at=now)
        metrics.gauge("grid.jobs_completed").set(completed, at=now)

    def __len__(self) -> int:
        return len(self.rows)

    def tail(self, n: int) -> list[dict]:
        """The newest ``n`` rows (for the flight recorder's black box)."""
        if n <= 0:
            return []
        rows = list(self.rows)
        return rows[-n:]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TimelineSampler every {self.interval_s}s "
                f"rows={len(self.rows)} taken={self.samples_taken}>")


def _grid_totals(grid) -> tuple[int, int, int, int, int]:
    """``(busy, total, queued, running, completed)`` summed over sites."""
    busy = total = queued = running = completed = 0
    for site in grid.sites.values():
        busy += site.busy_cpus
        total += site.total_cpus
        queued += site.queue_length
        running += site.running_jobs
        completed += site.jobs_completed
    return busy, total, queued, running, completed


# -- timeline files ----------------------------------------------------------

def timeline_meta(config: "ExperimentConfig", interval_s: float) -> dict:
    """The header of a timeline file: what ``digruber top`` titles its
    frames with.  Deliberately free of shard count and mode — a sharded
    run's file must be byte-identical under any grouping."""
    return {"interval_s": interval_s, "name": config.name,
            "seed": config.seed, "duration_s": config.duration_s,
            "decision_points": config.decision_points,
            "n_clients": config.n_clients, "n_sites": config.n_sites,
            "total_cpus": config.total_cpus}


def header_of(doc: dict) -> Optional[dict]:
    """The meta dict if ``doc`` is a timeline file's header line."""
    return doc["meta"] if "meta" in doc and "t" not in doc else None


def load_timeline(path: str, tolerant: bool = True
                  ) -> tuple[dict, list[dict]]:
    """Read a timeline JSONL file back: ``(meta, rows)``.

    ``tolerant`` (the default) skips undecodable lines — a file being
    tailed mid-write, or truncated by a crash, routinely ends in half a
    row; replay and postmortem tooling must read everything before it.
    With ``tolerant=False`` a malformed line raises
    :class:`~repro.obs.jsonl.JsonlError` with its line number.
    """
    meta: dict = {}
    rows: list[dict] = []
    for doc in read_jsonl(path, tolerant):
        header = header_of(doc)
        if header is None:
            rows.append(doc)
        else:
            meta = header
    return meta, rows


# -- sharded (per-neighborhood) timelines ------------------------------------

def hood_row(built, hood: int, t: float) -> dict:
    """One DP neighborhood's telemetry row, from hood-local state only.

    Everything here reads the hood's own deployment/grid/client
    objects, which are bit-identical across shard groupings, so the
    merged timeline is too.  The row is in the registry schema; the
    hood's one decision point is labelled ``dp<hood>``, its monolithic
    counterpart's name.
    """
    dp = next(iter(built.deployment.decision_points.values()))
    busy, total, queued, _running, completed = _grid_totals(built.grid)
    return {"t": t, "counters": {}, "histograms": {}, "gauges": {
        f"dp.online.dp{hood}": 1.0 if dp.online else 0.0,
        f"dp.queue_depth.dp{hood}": dp.container.queue_len,
        f"dp.in_service.dp{hood}": dp.container.in_service,
        f"dp.ops.dp{hood}": dp.container.completed_ops,
        f"dp.clients.dp{hood}": len(built.clients),
        "control.client_backlog": sum(c.backlog_len for c in built.clients),
        "grid.busy_cpus": busy,
        "grid.total_cpus": total,
        "grid.queued_jobs": queued,
        "grid.jobs_completed": completed,
    }}


def merge_hood_timelines(per_hood: dict[int, list[dict]]) -> list[dict]:
    """Canonical grid-wide merge: one registry-schema row per instant.

    Per-DP gauges are carried over; every other gauge is a hood-local
    share of a grid-wide total and is summed — in hood order, so the
    arithmetic (and hence the bytes) is identical under any shard
    grouping, mirroring :func:`repro.sim.sharded._merge_journals`.
    ``grid.util`` and ``control.n_dps`` are derived from the sums.
    """
    merged: dict[float, dict] = {}
    for hood in sorted(per_hood):
        for row in per_hood[hood]:
            gauges = merged.setdefault(row["t"], {})
            for name, value in row["gauges"].items():
                if name.startswith("dp."):
                    gauges[name] = value
                else:
                    gauges[name] = gauges.get(name, 0) + value
    rows = []
    for t in sorted(merged):
        gauges = merged[t]
        busy, total = gauges["grid.busy_cpus"], gauges["grid.total_cpus"]
        gauges["grid.util"] = busy / total if total else 0.0
        gauges["control.n_dps"] = sum(
            v for name, v in gauges.items() if name.startswith("dp.online."))
        rows.append({"t": t, "counters": {},
                     "gauges": dict(sorted(gauges.items())),
                     "histograms": {}})
    return rows
