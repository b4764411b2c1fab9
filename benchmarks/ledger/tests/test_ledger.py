"""Self-tests of the ledger benchmark (run explicitly, not in tier-1):

    PYTHONPATH=src python -m pytest benchmarks/ledger/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

LEDGER = Path(__file__).resolve().parents[1]
ROOT = LEDGER.parents[1]
sys.path.insert(0, str(LEDGER))

import names  # noqa: E402
import run as ledger_run  # noqa: E402
import tracer as ledger_tracer  # noqa: E402
from tracer import SpanTracer, layer_totals, self_times_ns  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _spans(rows):
    kind, start, end, parent = zip(*rows)
    return {"kind": np.asarray(kind), "start_ns": np.asarray(start),
            "end_ns": np.asarray(end), "parent": np.asarray(parent)}


# -- span arithmetic -------------------------------------------------------------
def test_self_time_is_duration_minus_child_covered_time():
    # root[0,100] > a[10,40] > b[20,30];  root > c[50,70]
    spans = _spans([(0, 0, 100, -1), (1, 10, 40, 0), (2, 20, 30, 1),
                    (1, 50, 70, 0)])
    assert self_times_ns(spans).tolist() == [50, 20, 10, 20]
    totals = layer_totals(spans, ["sim.kernel", "core.client", "grid.site"])
    assert totals["wall_s"] == pytest.approx(100e-9)
    layers = totals["layers"]
    assert layers["sim.kernel"] == {"self_s": pytest.approx(50e-9), "calls": 1}
    assert layers["core.client"] == {"self_s": pytest.approx(40e-9),
                                     "calls": 2}
    assert layers["grid.site"] == {"self_s": pytest.approx(10e-9), "calls": 1}
    assert sum(v["self_s"] for v in layers.values()) == pytest.approx(
        totals["wall_s"])


def test_boundary_log_replays_into_nested_spans():
    t = SpanTracer()
    a, b = t.kind("sim.kernel", "run"), t.kind("core.client", "resume")
    t.log.extend([a, 0, b, 5, -1, 9, b, 12, -1, 20, -1, 30])
    spans = t.spans()
    assert spans["kind"].tolist() == [a, b, b]
    assert spans["start_ns"].tolist() == [0, 5, 12]
    assert spans["end_ns"].tolist() == [30, 9, 20]
    assert spans["parent"].tolist() == [-1, 0, 0]
    t.log.extend([a, 40])
    with pytest.raises(RuntimeError, match="never closed"):
        t.spans()


def test_modules_map_to_their_layer():
    assert ledger_tracer.layer_of("repro.core.client") == "core.client"
    assert ledger_tracer.layer_of("repro.obs.spans") == "obs"
    assert ledger_tracer.layer_of("repro.sim.snapshot") == "sim.snapshot"
    assert ledger_tracer.layer_of("repro.core.broker") == "other"


# -- wrap / unwrap ---------------------------------------------------------------
def test_install_uninstall_leaves_every_attribute_identical():
    tracer = SpanTracer()
    tracer.install()
    patched = list(tracer._patched)
    try:
        assert len(patched) > 30
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_exception_inside_a_traced_run_still_restores():
    from repro.sim.kernel import Simulator
    patched = []
    with pytest.raises(ZeroDivisionError):
        with SpanTracer() as tracer:
            patched = list(tracer._patched)
            sim = Simulator()
            sim.schedule(1.0, lambda: 1 / 0)
            sim.run(until=5.0)
    assert patched and not tracer.active
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)
    # the span opened around the failing callback was closed on the way out
    assert (tracer.spans()["end_ns"] >= tracer.spans()["start_ns"]).all()


def test_failed_install_rolls_back(monkeypatch):
    from repro.grid.site import Site
    original = Site.__dict__["submit"]
    monkeypatch.setitem(ledger_tracer.ENTRY_POINTS, "repro.no_such_module",
                        {"Nothing": ("method",)})
    tracer = SpanTracer()
    with pytest.raises(ModuleNotFoundError):
        tracer.install()
    assert Site.__dict__["submit"] is original
    assert not tracer._patched


def test_traced_run_is_bit_identical_and_shares_sum_to_100():
    from repro.experiments.configs import smoke_config
    from repro.experiments.parallel import summarize, summary_digest
    from repro.experiments.runner import (build_experiment,
                                          finalize_experiment)

    def digest_of():
        cfg = smoke_config(check_enabled=True, spans_enabled=True)
        built = build_experiment(cfg)
        built.sim.run(until=cfg.duration_s)
        return summary_digest(summarize(finalize_experiment(built)))

    untraced = digest_of()
    with SpanTracer() as tracer:
        traced = digest_of()
    assert traced == untraced
    report = tracer.layer_report()
    assert report["wall_s"] > 0
    assert sum(v["self_s"] for v in report["layers"].values()
               ) == pytest.approx(report["wall_s"])
    for layer in ("sim.kernel", "core.client", "grid.site", "check", "obs"):
        assert report["layers"][layer]["calls"] > 0, layer


# -- comparing sets --------------------------------------------------------------
def _stat(values):
    return ledger_run.describe(list(values))


def test_verdicts():
    verdict = ledger_run.verdict
    base = _stat([10.0, 10.1, 9.9, 10.0, 10.05])
    assert verdict("wall_s", base, _stat([10.3, 10.2, 10.4, 10.3, 10.25]),
                   0.08) == "ok"
    assert verdict("wall_s", base, _stat([11.5, 11.4, 11.6, 11.5, 11.45]),
                   0.08) == "regressed"
    noisy = _stat([9.0, 12.0, 10.0, 13.0, 8.0])
    assert verdict("wall_s", base, noisy, 0.08) == "unresolved"
    # wide spread, but every new run beats every base run
    assert verdict("wall_s", noisy, _stat([5.0, 7.0, 6.0, 7.5, 5.5]),
                   0.08) == "ok"
    # simulated metrics are exact
    assert verdict("sim_util_pct", _stat([28.1]), _stat([28.1]), 0.05) == "ok"
    assert verdict("sim_util_pct", _stat([28.1]), _stat([28.1000001]),
                   0.05) == "regressed"
    # microsecond set-up never regresses on relative change alone
    assert verdict("setup_s", _stat([5e-5]), _stat([9e-5]), 0.25) == "ok"


def _set(wall, workload="gt3-3dp"):
    stats = {name: _stat([1.0]) for name in names.END_TO_END}
    stats["wall_s"] = _stat(wall)
    return {"workloads": {workload: {"digest": "d", "end_to_end": stats}}}


def test_check_bounds_are_the_ledgers_own_not_the_drivers():
    quiet = [10.0, 10.1, 9.9, 10.0, 10.05]
    first, second = _set(quiet), _set([v * 1.03 for v in quiet])
    bounds = ledger_run.check_bounds([first, second])
    # floors: 8 % on times (10 % on the two noisy-wall workloads) ...
    assert bounds["gt3-3dp"]["wall_s"] == pytest.approx(0.08)
    assert bounds["gt3-3dp"]["total_s"] == pytest.approx(0.08)
    assert bounds["gt3-3dp"]["setup_s"] == pytest.approx(0.10)
    assert bounds["gt3-3dp"]["rss_peak_mb"] == pytest.approx(0.05)
    assert bounds["planes-on"]["wall_s"] == pytest.approx(0.10)
    assert bounds["shard2-k10"]["wall_s"] == pytest.approx(0.10)
    # ... widened to twice what the recorded sets themselves differ by
    wide = ledger_run.check_bounds([first, _set([v * 1.06 for v in quiet])])
    assert wide["gt3-3dp"]["wall_s"] == pytest.approx(0.12)
    # a +15 % wall_s shift is a regression; BENCHMARK.json's 25 % is not used
    rows, regressed = ledger_run.compare_sets(
        first, _set([v * 1.15 for v in quiet]), bounds)
    assert regressed
    assert {r["metric"]: r["verdict"] for r in rows}["wall_s"] == "regressed"
    rows, regressed = ledger_run.compare_sets(first, second, bounds)
    assert not regressed


def test_recorded_baseline_carries_its_check_bounds():
    baseline = json.loads((LEDGER / "baseline.json").read_text())
    assert len(baseline["sets"]) >= 2
    assert baseline["check_bounds"] == ledger_run.check_bounds(baseline["sets"])
    rows, regressed = ledger_run.compare_sets(
        baseline["sets"][0], baseline["sets"][1], baseline["check_bounds"])
    assert not regressed
    assert {r["verdict"] for r in rows if r["metric"].startswith("sim_")
            } == {"ok"}


# -- one-run mode's estimate -------------------------------------------------------
def test_undisturbed_takes_each_window_from_its_fastest_repeat():
    first = {"setup_s": 0.5, "wall_s": 9.0, "total_s": 10.0,
             "rss_peak_mb": 100.0, "wall_windows_s": [1.0, 5.0, 3.0]}
    second = {"setup_s": 0.4, "wall_s": 8.0, "total_s": 8.9,
              "rss_peak_mb": 102.0, "wall_windows_s": [4.0, 2.0, 2.0]}
    assert ledger_run.undisturbed([first, second]) == {
        "setup_s": 0.4, "wall_s": pytest.approx(5.0),
        "total_s": pytest.approx(5.9), "rss_peak_mb": 101.0}
    # No windows (shard2-k10): the fastest whole repeat.
    del first["wall_windows_s"], second["wall_windows_s"]
    assert ledger_run.undisturbed([first, second])["wall_s"] == 8.0


# -- the command, end to end -----------------------------------------------------
def _run(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", *argv], cwd=str(cwd),
        capture_output=True, text=True, timeout=600)


def _spec_names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_quick_run_emits_exactly_the_listed_metrics(trace, section):
    proc = _run("--workload", "gt3-3dp", "--seed", "11", "--seconds", "1",
                "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == _spec_names(section)
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_spec_lists_the_code_s_names():
    assert [w["name"] for w in SPEC["workloads"]] == list(names.WORKLOADS)
    assert _spec_names("end_to_end") == {
        k: unit for k, (unit, _better) in names.END_TO_END.items()}
    assert _spec_names("per_layer") == names.per_layer_units()
    assert SPEC["paths"] == ["benchmarks/ledger"]


def test_digest_mismatch_between_repeats_fails_the_command(monkeypatch,
                                                          capsys):
    run_child, calls = ledger_run.run_child, []

    def second_repeat_disagrees(argv):
        calls.append(argv)
        if len(calls) == 2:  # same command line, another seed
            argv = [str(int(a) + 1) if prev == "--seed" else a
                    for prev, a in zip([""] + argv, argv)]
        return run_child(argv)

    monkeypatch.setattr(ledger_run, "run_child", second_repeat_disagrees)
    code = ledger_run.main(["--workload", "gt3-3dp", "--seed", "11",
                            "--seconds", "1", "--trace", "0", "--quick",
                            "--repeats", "2"])
    captured = capsys.readouterr()
    assert code != 0 and len(calls) == 2
    assert "same-seed repeats disagree" in captured.err
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_sharded_workload_is_skipped_not_time_sliced_on_one_core(monkeypatch,
                                                                 capsys):
    monkeypatch.setattr(ledger_run, "n_cores", lambda: 1)
    monkeypatch.setattr(ledger_run, "run_child",
                        lambda argv: pytest.fail("must not run anything"))
    code = ledger_run.main(["--workload", "shard2-k10", "--seed", "1",
                            "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["attempted"] == 0 and result["metrics"] == {}
    assert "never time-sliced" in result["skipped"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(LEDGER, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = _run("--workload", "gt3-3dp", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
