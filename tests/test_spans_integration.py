"""End-to-end causal span tracing over real experiment runs.

Covers the acceptance path: a GT3-profile run with spans on yields a
complete causal chain (submit -> brokering -> DP decide annotated with
view staleness -> dispatch -> site queue), same-seed runs export
byte-identical JSONL, spans on/off leaves the run itself untouched,
and the trace-analysis reports work on the exported artifact.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.configs import canonical_gt3, smoke_config
from repro.experiments.runner import run_experiment
from repro.obs.span_analysis import (
    analyze_report,
    critical_path_report,
    load_spans,
    slowest_report,
)


@pytest.fixture(scope="module")
def gt3_run(tmp_path_factory):
    """One scaled-down GT3 run with spans exported (shared per module)."""
    path = tmp_path_factory.mktemp("spans") / "gt3.jsonl"
    config = canonical_gt3(duration_s=1800.0, n_clients=10,
                           spans_enabled=True, spans_path=str(path))
    result = run_experiment(config)
    return result, str(path)


def _children(spans):
    by_parent = {}
    for s in spans:
        by_parent.setdefault(s.get("parent_id"), []).append(s)
    return by_parent


class TestCausalChain:
    def test_gt3_chain_is_complete(self, gt3_run):
        result, path = gt3_run
        spans = load_spans(path)
        by_parent = _children(spans)
        roots = [s for s in spans if s["parent_id"] is None
                 and s["name"] == "submit"
                 and s["attrs"].get("outcome") == "ok"]
        assert roots, "no successfully brokered job traced"
        complete = 0
        for root in roots:
            kids = {s["name"]: s for s in by_parent.get(root["span_id"], [])}
            if "brokering" not in kids or "dispatch" not in kids:
                continue
            grand = by_parent.get(kids["brokering"]["span_id"], [])
            decides = [s for s in grand if s["name"] == "decide"]
            if not decides:
                continue
            decide = decides[0]
            # The decide span runs on the DP and carries view staleness.
            assert decide["node"].startswith("dp")
            assert "staleness_s" in decide["attrs"]
            queue = [s for s in by_parent.get(kids["dispatch"]["span_id"], [])
                     if s["name"] == "queue"]
            if queue:
                assert queue[0]["start"] >= kids["dispatch"]["start"]
            complete += 1
        assert complete > 0, "no job has the full submit->decide chain"

    def test_decide_staleness_is_a_real_age(self, gt3_run):
        _, path = gt3_run
        ages = [s["attrs"]["staleness_s"] for s in load_spans(path)
                if s["name"] == "decide"
                and s["attrs"].get("staleness_s") is not None]
        assert ages, "no decide span carries staleness"
        assert all(a >= 0.0 for a in ages)

    def test_sync_rounds_link_to_remote_receives(self):
        config = smoke_config(decision_points=2, n_clients=6,
                              duration_s=1200.0, sync_interval_s=60.0,
                              spans_enabled=True)
        result = run_experiment(config)
        spans = [s.to_dict() for s in result.sim.spans.spans()]
        by_id = {s["span_id"]: s for s in spans}
        recvs = [s for s in spans if s["name"] == "sync.recv"]
        assert recvs, "no sync.recv spans in a 2-DP run"
        for r in recvs:
            parent = by_id[r["parent_id"]]
            assert parent["name"] in ("sync.flood", "sync.delta")
            assert parent["node"] != r["node"]  # crossed the wire
            assert r["start"] >= parent["start"]
        # The lag histogram fed by merge_remote_records saw traffic too.
        lag = result.sim.metrics.histogram("sync.lag_s")
        assert lag.count > 0


class TestDeterminism:
    def test_same_seed_byte_identical_jsonl(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.jsonl"
            config = smoke_config(duration_s=1200.0, n_clients=6,
                                  spans_enabled=True, spans_path=str(path))
            run_experiment(config)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_spans_on_off_run_identical(self):
        off = run_experiment(smoke_config(duration_s=1200.0, n_clients=6))
        on = run_experiment(smoke_config(duration_s=1200.0, n_clients=6,
                                         spans_enabled=True))
        assert off.sim.events_executed == on.sim.events_executed
        assert off.summary() == on.summary()
        assert len(on.sim.spans) > 0

    def test_sampling_thins_roots_not_determinism(self, tmp_path):
        paths = [tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"]
        for path in paths:
            config = smoke_config(duration_s=1200.0, n_clients=6,
                                  spans_enabled=True, spans_sample=4,
                                  spans_path=str(path))
            result = run_experiment(config)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        rec = result.sim.spans
        assert rec.roots_dropped > 0
        assert rec.roots_sampled + rec.roots_dropped == rec.roots_seen
        # Sampled traces stay complete: every parent link resolves.
        spans = load_spans(str(paths[0]))
        ids = {s["span_id"] for s in spans}
        assert all(s["parent_id"] in ids for s in spans
                   if s["parent_id"] is not None)


class TestAnalysisReports:
    def test_analyze_report_sections(self, gt3_run):
        _, path = gt3_run
        report = analyze_report(load_spans(path))
        assert "traces=" in report and "orphans=" in report
        assert "submit outcomes:" in report
        assert "decide staleness_s:" in report

    def test_critical_path_marks_chain(self, gt3_run):
        _, path = gt3_run
        spans = load_spans(path)
        jid = min(s["attrs"]["jid"] for s in spans
                  if s["name"] == "submit" and "jid" in s["attrs"])
        report = critical_path_report(spans, jid)
        assert f"job {jid} trace" in report
        assert "*" in report and "submit" in report

    def test_critical_path_unknown_job_lists_known(self, gt3_run):
        _, path = gt3_run
        report = critical_path_report(load_spans(path), 10 ** 9)
        assert "no submit trace" in report and "first recorded jids" in report

    def test_slowest_report_sorted(self, gt3_run):
        _, path = gt3_run
        report = slowest_report(load_spans(path), n=5)
        lines = [ln for ln in report.splitlines()
                 if ln.strip() and not ln.startswith("---")]
        assert "total_s" in lines[0]
        totals = [float(ln.split()[2]) for ln in lines[1:]]
        assert totals == sorted(totals, reverse=True)


class TestSpanProperties:
    """Nesting/acyclicity hold even when chaos severs causal chains."""

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=1, max_value=2 ** 31 - 1),
           chaos=st.sampled_from(["", "flaky_dp", "dup_reorder"]))
    def test_span_intervals_nest_and_links_are_acyclic(self, seed, chaos):
        config = smoke_config(decision_points=2, n_clients=5,
                              duration_s=900.0, sync_interval_s=120.0,
                              chaos_scenario=chaos, seed=seed,
                              spans_enabled=True)
        result = run_experiment(config)
        spans = [s.to_dict() for s in result.sim.spans.spans()]
        assert spans, "a traced run must record spans"
        by_id = {s["span_id"]: s for s in spans}
        assert len(by_id) == len(spans)  # ids unique
        for s in spans:
            # Children never start before their parent: causality on
            # the sim clock survives loss (a dropped message simply
            # means the child was never created).
            pid = s["parent_id"]
            if pid is not None:
                parent = by_id[pid]
                assert s["start"] >= parent["start"] - 1e-9
                assert s["trace_id"] == parent["trace_id"]
            if s["end"] is not None:
                assert s["end"] >= s["start"]
            # Orphans are flagged, never silently dropped.
            assert s["orphan"] == (s["end"] is None)
            # Parent links are acyclic (walk terminates at a root).
            seen = set()
            cur = s
            while cur["parent_id"] is not None:
                assert cur["span_id"] not in seen
                seen.add(cur["span_id"])
                cur = by_id[cur["parent_id"]]


def _line(span_id: str) -> str:
    """One complete exported span row (every key the analyses index)."""
    return json.dumps({"trace_id": "t", "span_id": span_id,
                       "parent_id": None, "name": "submit", "node": "h",
                       "start": 1.0, "end": 2.0, "orphan": False,
                       "attrs": {}})


class TestLoadSpansRobustness:
    """Satellite: load_spans on empty, truncated, and malformed files.

    Strict mode is for byte-exact exports from finished runs; tolerant
    mode is for the truncated artifact a killed run leaves behind.
    """

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        assert load_spans(str(p)) == []

    def test_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text(f'\n{_line("a")}\n\n')
        assert len(load_spans(str(p))) == 1

    def test_malformed_line_raises_with_lineno(self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text(f'{_line("a")}\n{{broken\n')
        with pytest.raises(ValueError, match=r"s\.jsonl:2"):
            load_spans(str(p))

    def test_truncated_final_line_raises_strict(self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text(f'{_line("a")}\n{_line("b")[:30]}')
        with pytest.raises(ValueError, match=":2"):
            load_spans(str(p))

    def test_tolerant_skips_truncation_keeps_valid_prefix(self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text(f'{_line("a")}\nnonsense\n'
                     f'{_line("b")}\n{_line("c")[:30]}')
        spans = load_spans(str(p), tolerant=True)
        assert [s["span_id"] for s in spans] == ["a", "b"]

    def test_non_object_line_rejected_strict_skipped_tolerant(
            self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text(f'[1, 2]\n{_line("a")}\n')
        with pytest.raises(ValueError, match="expected an object"):
            load_spans(str(p))
        assert [s["span_id"] for s in load_spans(str(p), tolerant=True)] \
            == ["a"]

    def test_row_lacking_an_indexed_key_is_a_bad_line(self, tmp_path):
        # Regression: the analyses index name/start/... without .get,
        # so such a row used to surface as a KeyError deep inside them.
        p = tmp_path / "s.jsonl"
        p.write_text(f'{_line("a")}\n{{"span_id": "b", "end": 3.0}}\n')
        with pytest.raises(ValueError, match=r"s\.jsonl:2.*lacks trace_id, "
                                             r"parent_id, name, node, start"):
            load_spans(str(p))
        assert [s["span_id"] for s in load_spans(str(p), tolerant=True)] \
            == ["a"]
