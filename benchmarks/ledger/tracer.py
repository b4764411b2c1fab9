"""Bench-only span tracer for the ledger's traced repeat.

Nothing under ``src/`` knows about this module.  ``SpanTracer.install``
replaces, at run time, the public entry points of every layer with
wrappers that open a span around the call; ``uninstall`` (always from a
``finally``) puts the original attributes back.  Three kernel entry
points make the attribution complete:

* ``Simulator.schedule_at`` / ``Simulator.every`` wrap the scheduled
  callable, so every callback the event loop fires opens a span
  labelled with the module that *defines* the callable;
* ``Simulator.process`` wraps the generator, so every resume opens a
  span labelled with the module that defines the generator;
* ``Simulator.run`` opens the root span.  Recording is only active
  inside it, so build/finalize work never pollutes the run's shares.

A layer is a module name (``core.client``, ``grid.site`` ...).  Self
time of a span is its duration minus the part its children cover; the
root's self time is the event loop itself and is charged to
``sim.kernel``, so layer shares sum to 100 % of the run's wall time.

The hot path records *boundaries*, not span objects: two ``append``s
and one clock read per enter/exit into one flat list.  ``spans()``
replays that log after the run into ``(kind, start_ns, end_ns,
parent)`` columns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import numpy as np

from names import LAYERS

OTHER = "other"

#: module -> class -> public methods wrapped with a span.  Subclasses
#: that override a listed method are wrapped too (selectors, latency
#: models).  Generator methods yield a span per resume.
ENTRY_POINTS = {
    "repro.grid.site": {"Site": ("submit",)},
    "repro.core.state": {"GridStateView": (
        "apply_record", "apply_records", "free_map", "free_subset",
        "expire", "pending_records", "records_since", "refresh_all")},
    "repro.core.engine": {"GruberEngine": (
        "availabilities", "record_local_dispatch", "merge_remote_records",
        "on_monitor_refresh")},
    "repro.core.selectors": {"SiteSelector": ("select", "select_any")},
    "repro.core.sync": {"SyncProtocol": ("tick", "on_sync")},
    "repro.net.transport": {"Network": ("rpc", "send_oneway")},
    "repro.net.latency": {"LatencyModel": ("sample", "rtt")},
    "repro.net.container": {"ServiceContainer": (
        "service_query", "service_report", "service_instance_creation")},
    "repro.workloads.generator": {"HostWorkload": ("job_at",)},
    "repro.check.invariants": {"InvariantChecker": ("check",)},
    "repro.obs.timeline": {"TimelineSampler": ("tick",)},
    "repro.sim.snapshot": {"Checkpointer": ("tick",)},
    "repro.obs.spans": {"SpanRecorder": (
        "start_trace", "start_span", "record", "finish")},
}


def layer_of(module: str) -> str:
    """``repro.core.client`` -> ``core.client``; unlisted -> ``other``."""
    name = module[len("repro."):] if module.startswith("repro.") else module
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    return OTHER


def _with_subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class _TracedGen:
    """Generator proxy: one span per resume, labelled by the generator.

    Speaks the whole delegation protocol (``send``/``throw``/``close``
    plus iteration) so both ``Process`` and ``yield from`` can drive it.
    """

    def __init__(self, tracer: "SpanTracer", gen, kind: int):
        self._tracer = tracer
        self._gen = gen
        self._kind = kind
        self.__name__ = getattr(gen, "__name__", "process")

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self._tracer
        if not tracer.active:
            return self._gen.send(value)
        log = tracer.log
        log.append(self._kind)
        log.append(time.perf_counter_ns())
        try:
            return self._gen.send(value)
        finally:
            log.append(-1)
            log.append(time.perf_counter_ns())

    def throw(self, *exc):
        tracer = self._tracer
        if not tracer.active:
            return self._gen.throw(*exc)
        log = tracer.log
        log.append(self._kind)
        log.append(time.perf_counter_ns())
        try:
            return self._gen.throw(*exc)
        finally:
            log.append(-1)
            log.append(time.perf_counter_ns())

    def close(self):
        return self._gen.close()


class SpanTracer:
    """Records layer spans of one run; see the module docstring."""

    def __init__(self) -> None:
        #: Flat boundary log: ``kind, t_ns`` on enter, ``-1, t_ns`` on exit.
        self.log: list[int] = []
        #: kind id -> (layer, name)
        self.kinds: list[tuple[str, str]] = []
        self._kind_ids: dict[tuple[str, str], int] = {}
        self._callable_kinds: dict = {}
        self.active = False
        self._patched: list[tuple[object, str, object]] = []

    # -- kinds ---------------------------------------------------------------
    def kind(self, layer: str, name: str) -> int:
        key = (layer, name)
        kid = self._kind_ids.get(key)
        if kid is None:
            kid = self._kind_ids[key] = len(self.kinds)
            self.kinds.append(key)
        return kid

    def _kind_of_callable(self, fn) -> int:
        """Span kind of a scheduled callable, by its defining module."""
        key = getattr(fn, "__code__", None) or type(fn)
        kid = self._callable_kinds.get(key)
        if kid is None:
            owner = fn if hasattr(fn, "__code__") else type(fn)
            kid = self._callable_kinds[key] = self.kind(
                layer_of(getattr(owner, "__module__", "") or ""),
                getattr(owner, "__qualname__", type(fn).__name__))
        return kid

    # -- wrappers ------------------------------------------------------------
    def _span_function(self, fn, kind: int):
        log, clock = self.log, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            log.append(kind)
            log.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                log.append(-1)
                log.append(clock())
        return traced

    def _span_generator_function(self, fn, kind: int):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedGen(self, fn(*args, **kwargs), kind)
        return traced

    def _span_callback(self, fn):
        """Wrap a zero-argument scheduled callable."""
        kind = self._kind_of_callable(fn)
        log, clock = self.log, time.perf_counter_ns

        def fire():
            if not self.active:
                return fn()
            log.append(kind)
            log.append(clock())
            try:
                return fn()
            finally:
                log.append(-1)
                log.append(clock())
        return fire

    # -- install / uninstall ---------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Patch every entry point; ``uninstall`` restores them."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for module_name, classes in ENTRY_POINTS.items():
                module = importlib.import_module(module_name)
                layer = layer_of(module_name)
                for class_name, methods in classes.items():
                    for cls in _with_subclasses(getattr(module, class_name)):
                        for method in methods:
                            fn = cls.__dict__.get(method)
                            if not inspect.isfunction(fn):
                                continue
                            kind = self.kind(layer, fn.__qualname__)
                            wrap = (self._span_generator_function
                                    if inspect.isgeneratorfunction(fn)
                                    else self._span_function)
                            self._patch(cls, method, wrap(fn, kind))
            self._patch_kernel()
        except BaseException:
            self.uninstall()
            raise

    def _patch_kernel(self) -> None:
        from repro.sim.kernel import Simulator
        tracer = self
        schedule_at = Simulator.__dict__["schedule_at"]
        every = Simulator.__dict__["every"]
        process = Simulator.__dict__["process"]
        run = Simulator.__dict__["run"]
        run_kind = self.kind("sim.kernel", "Simulator.run")
        gen_kinds: dict = {}
        time_ns = time.perf_counter_ns

        @functools.wraps(schedule_at)
        def traced_schedule_at(sim, time, fn):
            return schedule_at(sim, time, tracer._span_callback(fn))

        @functools.wraps(every)
        def traced_every(sim, interval, fn, *args, **kwargs):
            return every(sim, interval, tracer._span_callback(fn),
                         *args, **kwargs)

        @functools.wraps(process)
        def traced_process(sim, gen, name=""):
            code = gen.gi_code
            kind = gen_kinds.get(code)
            if kind is None:
                kind = gen_kinds[code] = tracer.kind(
                    layer_of(gen.gi_frame.f_globals.get("__name__", "")),
                    gen.__qualname__)
            return process(sim, _TracedGen(tracer, gen, kind), name=name)

        @functools.wraps(run)
        def traced_run(sim, until=None):
            if tracer.active:
                return run(sim, until)
            log = tracer.log
            tracer.active = True
            log.append(run_kind)
            log.append(time_ns())
            try:
                return run(sim, until)
            finally:
                log.append(-1)
                log.append(time_ns())
                tracer.active = False

        self._patch(Simulator, "schedule_at", traced_schedule_at)
        self._patch(Simulator, "every", traced_every)
        self._patch(Simulator, "process", traced_process)
        self._patch(Simulator, "run", traced_run)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self.active = False

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis --------------------------------------------------------------
    def spans(self) -> dict[str, np.ndarray]:
        """Replay the boundary log into span columns (start order)."""
        kinds, starts, ends, parents = [], [], [], []
        stack: list[int] = []
        it = iter(self.log)
        for code, t in zip(it, it):
            if code >= 0:
                parents.append(stack[-1] if stack else -1)
                stack.append(len(kinds))
                kinds.append(code)
                starts.append(t)
                ends.append(t)
            else:
                ends[stack.pop()] = t
        if stack:
            raise RuntimeError(f"{len(stack)} span(s) never closed")
        return {"kind": np.asarray(kinds, dtype=np.int64),
                "start_ns": np.asarray(starts, dtype=np.int64),
                "end_ns": np.asarray(ends, dtype=np.int64),
                "parent": np.asarray(parents, dtype=np.int64)}

    def layer_report(self, spans=None) -> dict:
        """Per-layer self time/calls over the recorded run windows."""
        if spans is None:
            spans = self.spans()
        return layer_totals(spans, [layer for layer, _name in self.kinds])

    def dump_jsonl(self, path: str, spans=None) -> int:
        """Write one ``{layer, name, start_ns, end_ns, parent}`` per span."""
        if spans is None:
            spans = self.spans()
        with open(path, "w", encoding="utf-8") as fh:
            for kind, start, end, parent in zip(
                    spans["kind"].tolist(), spans["start_ns"].tolist(),
                    spans["end_ns"].tolist(), spans["parent"].tolist()):
                layer, name = self.kinds[kind]
                fh.write(json.dumps({"layer": layer, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "parent": parent}) + "\n")
        return len(spans["kind"])


def self_times_ns(spans: dict) -> np.ndarray:
    """Self time per span: duration minus child-covered time.

    Spans nest strictly (one thread, stack discipline), so the time a
    span's children cover is the sum of their durations.
    """
    duration = spans["end_ns"] - spans["start_ns"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered.astype(np.int64)


def layer_totals(spans: dict, layers: list[str]) -> dict:
    """``{"wall_s", "layers": {layer: {"self_s", "calls"}}}``.

    ``wall_s`` is the summed duration of the root spans; the layers'
    self times partition it exactly.
    """
    self_ns = self_times_ns(spans)
    wall_ns = int((spans["end_ns"] - spans["start_ns"])[
        spans["parent"] < 0].sum())
    names = sorted(set(layers))
    index = {name: i for i, name in enumerate(names)}
    span_layer = np.asarray([index[layer] for layer in layers],
                            dtype=np.int64)[spans["kind"]]
    per_self = np.bincount(span_layer, weights=self_ns, minlength=len(names))
    per_calls = np.bincount(span_layer, minlength=len(names))
    return {"wall_s": wall_ns / 1e9,
            "layers": {name: {"self_s": float(per_self[i]) / 1e9,
                              "calls": int(per_calls[i])}
                       for i, name in enumerate(names)}}
