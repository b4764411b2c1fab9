"""Unit tests for causal span tracing (repro.obs.spans)."""

import json

import pytest

from repro.obs import Span, SpanRecorder, chrome_trace


def _recorder(**kw):
    t = kw.pop("t", [0.0])
    rec = SpanRecorder(clock=lambda: t[0], **kw)
    return rec, t


class TestDisabled:
    def test_off_by_default_and_records_nothing(self):
        rec = SpanRecorder()
        assert rec.enabled is False
        assert rec.start_trace("submit", "h") is None
        assert rec.start_span("child", "h", parent=0) is None
        assert rec.record("q", "h", 0, start=0.0, end=1.0) is None
        rec.finish(None)  # tolerant, no raise
        assert len(rec) == 0 and rec.roots_seen == 0

    def test_none_parent_turns_off_subtree(self):
        rec, _ = _recorder(enabled=True)
        # An unsampled/off root propagates None down the whole chain:
        # every child call site stays flat, no conditional trees.
        assert rec.start_span("child", "h", parent=None) is None
        assert rec.record("q", "h", None, start=0.0, end=1.0) is None
        assert SpanRecorder.ctx_of(None) is None
        assert len(rec) == 0


class TestLinkage:
    def test_child_links_to_parent_span(self):
        rec, t = _recorder(enabled=True)
        root = rec.start_trace("submit", "host0", None, ("jid",), (7,))
        t[0] = 1.5
        child = rec[rec.start_span("brokering", "host0", root)]
        root = rec[root]
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.start == 1.5 and child.end is None

    def test_parent_is_a_row_handle(self):
        rec, _ = _recorder(enabled=True)
        root = rec.start_trace("submit", "h")
        via_ctx = rec[rec.start_span("a", "h", rec.ctx_of(root))]
        via_row = rec[rec.start_span("b", "h", root)]
        assert isinstance(root, int) and root == 0
        assert via_ctx.parent_id == via_row.parent_id == rec[root].span_id
        assert via_ctx.trace_id == via_row.trace_id == rec[root].trace_id

    def test_ctx_of_is_wire_ready(self):
        rec, _ = _recorder(enabled=True)
        root = rec.start_trace("submit", "h")
        ctx = SpanRecorder.ctx_of(root)
        assert ctx == root  # one recorder per sim: the row is the context
        assert rec[ctx].span_id == rec[root].span_id

    def test_record_is_retroactive(self):
        rec, t = _recorder(enabled=True)
        t[0] = 100.0
        root = rec.start_trace("submit", "h")
        # Queue wait known only in hindsight: start < now is legal.
        q = rec[rec.record("queue", "site3", root, 40.0, 90.0, ("jid",),
                           (1,))]
        assert q.start == 40.0 and q.end == 90.0
        assert q.duration_s == 50.0 and q.attrs["jid"] == 1

    def test_finish_sets_end_once(self):
        rec, t = _recorder(enabled=True)
        root = rec.start_trace("submit", "h")
        t[0] = 2.0
        rec.finish(root, None, ("outcome",), ("ok",))
        t[0] = 9.0
        rec.finish(root, None, ("outcome",), ("late",))  # idempotent: first close wins
        span = rec[root]
        assert span.end == 2.0 and span.attrs["outcome"] == "ok"
        assert span.duration_s == 2.0

    def test_finished_and_open_views(self):
        rec, _ = _recorder(enabled=True)
        a = rec.start_trace("a", "h")
        b = rec.start_trace("b", "h")
        rec.finish(a)
        assert [s.name for s in rec.finished] == ["a"]
        assert [s.name for s in rec.open_spans] == ["b"]
        assert [s.name for s in rec.spans()] == ["a", "b"]  # start order
        built = rec[b]
        rec.clear()
        assert len(rec) == 0 and rec.roots_seen == 0
        assert built.end is None  # clear drops the store, not the objects


class TestSampling:
    def test_every_nth_root_sampled(self):
        rec, _ = _recorder(enabled=True, sample_every=3)
        roots = [rec.start_trace("submit", "h", None, ("i",), (i,)) for i in range(7)]
        kept = [rec[r] for r in roots if r is not None]
        assert [r.attrs["i"] for r in kept] == [0, 3, 6]
        assert rec.roots_seen == 7
        assert rec.roots_sampled == 3 and rec.roots_dropped == 4
        # Children of dropped roots record nothing at all.
        assert rec.start_span("child", "h", roots[1]) is None
        assert len(rec) == 3

    def test_sample_every_clamped_to_one(self):
        rec = SpanRecorder(enabled=True, sample_every=0)
        assert rec.sample_every == 1
        assert rec.start_trace("s", "h") is not None


class TestDeterministicIds:
    def test_seeded_ids_reproduce(self):
        np = pytest.importorskip("numpy")
        ids = []
        for _ in range(2):
            rec, _ = _recorder(enabled=True)
            rec.seed_ids(np.random.default_rng(42))
            root = rec.start_trace("submit", "h")
            child = rec.start_span("c", "h", root)
            ids.append((rec[root].trace_id, rec[root].span_id,
                        rec[child].span_id))
        assert ids[0] == ids[1]
        assert len(set(ids[0])) == 3  # and distinct from each other

    def test_ids_unique_across_block_refills(self):
        np = pytest.importorskip("numpy")
        rec, _ = _recorder(enabled=True)
        rec.seed_ids(np.random.default_rng(1))
        spans = [rec[rec.start_trace("s", "h")] for _ in range(300)]
        all_ids = [s.span_id for s in spans] + [s.trace_id for s in spans]
        assert len(set(all_ids)) == len(all_ids)
        assert all(len(i) == 16 for i in all_ids)  # zero-padded hex64

    def test_counter_fallback_without_rng(self):
        rec, _ = _recorder(enabled=True)
        root = rec[rec.start_trace("s", "h")]
        assert root.trace_id == f"{1:016x}" and root.span_id == f"{2:016x}"


class TestExport:
    def test_jsonl_flags_orphans_and_is_byte_stable(self, tmp_path):
        blobs = []
        for _ in range(2):
            rec, t = _recorder(enabled=True)
            root = rec.start_trace("submit", "h", None, ("jid",), (5,))
            rec.start_span("brokering", "h", root)  # never finished
            t[0] = 3.0
            rec.finish(root, None, ("outcome",), ("ok",))
            path = tmp_path / "spans.jsonl"
            assert rec.export_jsonl(str(path)) == 2
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
        lines = [json.loads(ln) for ln in blobs[0].splitlines()]
        by_name = {d["name"]: d for d in lines}
        assert by_name["submit"]["orphan"] is False
        assert by_name["brokering"]["orphan"] is True
        assert by_name["brokering"]["end"] is None  # flagged, not dropped

    def test_attrs_coerced_to_json_native(self):
        np = pytest.importorskip("numpy")
        rec, _ = _recorder(enabled=True)
        root = rec.start_trace("submit", "h", None, ("jid", "lat", "site"),
                               (np.int64(3), np.float32(0.5), ("a", 1)))
        d = rec[root].to_dict()
        json.dumps(d, allow_nan=False)  # must not raise
        assert d["attrs"]["jid"] == 3
        assert d["attrs"]["lat"] == pytest.approx(0.5)
        assert d["attrs"]["site"] == str(("a", 1))

    def test_chrome_trace_shape(self, tmp_path):
        rec, t = _recorder(enabled=True)
        root = rec.start_trace("submit", "host0")
        rec.start_span("decide", "dp0", root)  # orphan lane on dp0
        t[0] = 2.0
        rec.finish(root)
        path = tmp_path / "trace.json"
        assert rec.export_chrome(str(path)) == 4  # 2 lanes + 2 events
        doc = json.loads(path.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        phases = {}
        for ev in doc["traceEvents"]:
            phases.setdefault(ev["ph"], []).append(ev)
        lanes = {ev["args"]["name"]: ev["pid"] for ev in phases["M"]}
        assert set(lanes) == {"host0", "dp0"}
        by_name = {ev["name"]: ev for ev in phases["X"]}
        assert by_name["submit"]["dur"] == pytest.approx(2e6)  # microseconds
        assert by_name["decide"]["dur"] == 0.0
        assert by_name["decide"]["args"]["orphan"] is True
        assert by_name["decide"]["pid"] == lanes["dp0"]

    def test_chrome_trace_links_parent(self):
        rec, _ = _recorder(enabled=True)
        root = rec.start_trace("submit", "h")
        rec.start_span("c", "h", root)
        doc = chrome_trace(rec.to_dicts())
        xs = {ev["name"]: ev for ev in doc["traceEvents"] if ev["ph"] == "X"}
        assert xs["c"]["args"]["parent_id"] == rec[root].span_id
        assert xs["c"]["args"]["trace_id"] == rec[root].trace_id


class TestSpanObject:
    def test_duration_none_while_open(self):
        s = Span("t", "s", None, "n", "node", 1.0)
        assert s.duration_s is None
        s.end = 4.0
        assert s.duration_s == 3.0

    def test_to_dict_key_order_fixed(self):
        s = Span("t", "s", None, "n", "node", 1.0, {"b": 1, "a": 2})
        d = s.to_dict()
        assert list(d) == ["trace_id", "span_id", "parent_id", "name",
                           "node", "start", "end", "orphan", "attrs"]
        assert list(d["attrs"]) == ["a", "b"]  # sorted for byte stability
