"""Integration tests for differential replay (`digruber diff`).

Each named pair is an equivalence claim made by an earlier change;
these smokes hold every claim to "zero divergence, or name the first
divergent event".  Durations are short — the point is exercising the
machinery, not soak coverage (CI runs longer pairs).

The retired pairs (kernel fast paths, batch dispatch, indexed view,
vectorized sites) compared two code paths that produced one journal;
``TestGoldenDigests`` pins that journal for the path that survived.
"""

import gc

import pytest

from repro.check import PAIRS, run_pair
from repro.check.differ import _diff_config, _run_journaled
from repro.experiments.configs import scale_config


SEED = 20050101

#: ``(events, EventJournal.digest)`` recorded at the last commit that
#: still carried both halves of every result-preserving fork.  All 24
#: settings of its four variant knobs produced these values, under
#: PYTHONHASHSEED 0, 1 and random.
GOLDEN = {
    ("diff", 120.0): (276, 0xc892ef97),
    ("diff-vec", 120.0): (275, 0xd3e69985),
    ("diff", 300.0): (802, 0x3de59d0a),
    ("diff-vec", 300.0): (644, 0x9b8adb8b),
    # The 10-DP mesh write path (81 % of what sync offers a view there
    # is echoes), recorded at the last commit that applied a payload one
    # ``apply_record`` at a time: 540 ``rec.adopt`` rows each, so an
    # adoption-order or payload-order slip moves the digest.  A 60 s
    # interval, or a cell this short sees one round and the two modes
    # coincide.
    ("mesh10-delta", 400.0): (7801, 0x7413c864),
    ("mesh10-flood", 400.0): (7839, 0x717177c7),
}


def _golden_config(name, duration_s):
    if name.startswith("mesh10-"):
        return scale_config(1, 10, duration_s=duration_s, timeout_s=60.0,
                            sync_interval_s=60.0,
                            sync_delta=name == "mesh10-delta")
    config = _diff_config(duration_s, SEED)
    if name == "diff-vec":
        # Congested (many clients, few CPUs): site queues outgrow the
        # vectorization threshold, so the numpy drain really runs.
        config = config.with_(n_clients=16, n_sites=6, total_cpus=72,
                              name="diff-vec")
    return config


class TestGoldenDigests:
    @pytest.mark.parametrize("name,duration_s", sorted(GOLDEN))
    def test_journal_reproduces_recorded_digest(self, name, duration_s):
        journal = _run_journaled(_golden_config(name, duration_s))
        assert (len(journal), journal.digest) == GOLDEN[name, duration_s]
        if name.startswith("mesh10-"):
            assert sum(e.kind == "rec.adopt" for e in journal.entries) == 540

    @pytest.mark.parametrize("collector", ["disabled", "threshold-1"])
    def test_journal_is_blind_to_the_collector(self, collector):
        """The cyclic GC is unobservable to the simulation: the diff
        smoke's golden journal reproduces with automatic collection off
        and with a collection pass after every allocation."""
        thresholds, enabled = gc.get_threshold(), gc.isenabled()
        try:
            if collector == "disabled":
                gc.disable()
            else:
                gc.set_threshold(1)
            journal = _run_journaled(_golden_config("diff", 300.0))
        finally:
            gc.set_threshold(*thresholds)
            if enabled:
                gc.enable()
        assert (len(journal), journal.digest) == GOLDEN["diff", 300.0]

    def test_congested_config_engages_the_vector_drain(self):
        from repro.experiments.runner import run_experiment
        result = run_experiment(_golden_config("diff-vec", 120.0))
        assert sum(s.vector_drains for s in result.grid.sites.values()) > 0


class TestPairsIdentical:
    def test_spans_pair_identical_with_ctx_only_on_one_side(self):
        report = run_pair("observers", duration_s=120.0)
        assert report.identical, report.describe()
        # Side A runs unobserved, side B with every observer on (spans
        # included): digests agree even though only B's entries carry
        # span context.
        assert not any(e.ctx for e in report.journal_a.entries)
        assert any(e.ctx for e in report.journal_b.entries)

    def test_workers_pair_identical(self):
        # Satellite: run_parallel with 1 worker vs 4 workers produces
        # identical per-run summary digests, in deterministic order.
        report = run_pair("workers", duration_s=90.0)
        assert report.identical, report.describe()
        kinds = [e.kind for e in report.journal_a.entries]
        assert kinds and set(kinds) == {"run.summary"}
        names_a = [e.detail.split("|")[0] for e in report.journal_a.entries]
        names_b = [e.detail.split("|")[0] for e in report.journal_b.entries]
        assert names_a == names_b  # result order == input order

    def test_delta_sync_pair_converges(self):
        report = run_pair("delta-sync", duration_s=160.0)
        assert report.identical, report.describe()
        assert all(e.kind == "dp.final" for e in report.journal_a.entries)
        assert len(report.journal_a) == 4  # one terminal digest per DP


class TestInjection:
    def test_injected_divergence_is_named_with_span_context(self):
        report = run_pair("observers", duration_s=120.0, inject=40)
        assert not report.identical
        ea, eb = report.divergence
        assert ea.index == eb.index == 40
        assert eb.detail.endswith("|INJECTED")
        # Side B runs spans-on, so the report names the causal span of
        # the first divergent event.
        text = report.describe()
        assert "DIVERGED" in text
        assert "#40" in text

    def test_identical_report_text(self):
        report = run_pair("delta-sync", duration_s=160.0)
        assert "IDENTICAL" in report.describe()


class TestApi:
    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError, match="unknown pair"):
            run_pair("no-such-pair")

    def test_pair_registry_matches_cli(self):
        assert sorted(PAIRS) == ["autoscale-frozen", "delta-sync",
                                 "observers", "resume", "resume-sharded",
                                 "sharded-2", "sharded-4", "workers"]
        # The CLI's --pair choices must stay in lockstep with the
        # registry (an unlisted pair is unreachable from the shell).
        from repro.cli import build_parser
        parser = build_parser()
        for pair in sorted(PAIRS):
            args = parser.parse_args(["diff", "--pair", pair])
            assert args.pair == pair
        with pytest.raises(SystemExit):  # no default pair
            parser.parse_args(["diff"])

    def test_same_config_reruns_identically(self):
        # The foundation the pairs stand on: the journaled run itself
        # is deterministic.
        a = _run_journaled(_diff_config(90.0, seed=3))
        b = _run_journaled(_diff_config(90.0, seed=3))
        assert a.digest == b.digest and len(a) == len(b) > 0

    def test_seed_changes_the_run(self):
        a = _run_journaled(_diff_config(90.0, seed=3))
        b = _run_journaled(_diff_config(90.0, seed=4))
        assert a.digest != b.digest
