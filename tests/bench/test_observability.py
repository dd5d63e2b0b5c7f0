"""Campaign observability: worker-counter aggregation, coverage in the
bench summary, and the coverage knobs on the harness."""

import dataclasses

from repro.bench import summary as bench_summary
from repro.bench.harness import run_anduril, run_baseline
from repro.bench.parallel import CampaignTask, execute_task, run_anduril_many
from repro.failures import get_case
from repro.obs import metrics as obs_metrics


@dataclasses.dataclass
class StubOutcome:
    case_id: str
    success: bool = True
    rounds: int = 1
    seconds: float = 0.1


@dataclasses.dataclass
class StubStrategyOutcome:
    strategy: str
    case_id: str
    success: bool = True
    rounds: int = 1
    seconds: float = 0.1
    coverage: dict = None


class TestWorkerCounterAggregation:
    def test_pool_counters_merge_back_to_parent(self):
        """Counters bumped inside worker processes reach the parent
        registry — one campaign.anduril_runs per cell, regardless of
        which process ran it."""
        cases = [get_case("f1"), get_case("f4")]
        obs_metrics.reset()
        try:
            outcomes = run_anduril_many(cases, jobs=2, max_rounds=120)
            assert all(o.success for o in outcomes)
            assert obs_metrics.get("campaign.anduril_runs") == 2
            assert obs_metrics.get("campaign.rounds") == sum(
                o.rounds for o in outcomes
            )
        finally:
            obs_metrics.reset()

    def test_serial_path_counts_identically(self):
        cases = [get_case("f1"), get_case("f4")]
        obs_metrics.reset()
        try:
            run_anduril_many(cases, jobs=1, max_rounds=120)
            serial = obs_metrics.get("campaign.anduril_runs")
        finally:
            obs_metrics.reset()
        assert serial == 2

    def test_outcomes_carry_their_cell_delta(self):
        obs_metrics.increment("campaign.anduril_runs", 7)  # an earlier cell
        try:
            outcome = execute_task(CampaignTask.anduril("f1", max_rounds=120))
        finally:
            obs_metrics.reset()
        # The envelope holds this cell's movement only, whatever the
        # process had counted before it.
        counters = outcome.telemetry["counters"]
        assert counters["campaign.anduril_runs"] == 1
        assert counters["campaign.rounds"] == outcome.rounds
        assert outcome.telemetry["histograms"]["latency.round_seconds"][
            "count"
        ] == outcome.rounds
        # run_anduril itself attaches nothing (that's execute_task's
        # job), but the field exists so either outcome pickles alike.
        assert run_anduril(get_case("f1"), max_rounds=120).telemetry == {}


class TestRunnerStatsViews:
    """Heartbeat, per-cell and summary are one reducer over one registry."""

    #: A fixed registry state, in bump order (the summary sorts it).
    COUNTERS = [
        ("cache.misses", 538), ("cache.stores", 530), ("cache.hits", 70),
        ("cache.alias_hits", 7), ("sim.checkpoint.fallbacks", 69),
        ("sim.checkpoint.opens", 26),
        ("sim.checkpoint.open_seconds", 0.0312345678),
        ("sim.checkpoint.fork_seconds", 0.4123456789),
        ("sim.checkpoint.forks", 133), ("verdict.cutoffs", 8),
        ("verdict.virtual_seconds_saved", 79.5573734),
        ("verdict.events_saved", 171), ("campaign.rounds", 42),
    ]

    def setup_method(self):
        bench_summary.clear()
        obs_metrics.reset()

    teardown_method = setup_method

    def test_sections_keep_their_committed_shape(self):
        """cache/verdict exactly as every summary so far has had them;
        checkpoint too, except that its seconds are no longer 0."""
        import json

        for name, value in self.COUNTERS:
            obs_metrics.increment(name, value)
        document = bench_summary.summarize({})
        assert json.dumps(document["cache"]) == (
            '{"alias_hits": 7, "hits": 70, "misses": 538, "stores": 530, '
            '"hit_rate": 0.125203}'
        )
        assert json.dumps(document["verdict"]) == (
            '{"cutoffs": 8, "events_saved": 171, '
            '"virtual_seconds_saved": 79.557373}'
        )
        assert json.dumps(document["checkpoint"]) == (
            '{"fallbacks": 69, "fork_seconds": 0.412346, "forks": 133, '
            '"open_seconds": 0.031235, "opens": 26}'
        )
        assert document["counters"] == {"campaign.rounds": 42.0}
        # Per-cell blocks keep the cell's own bump order.
        cell = obs_metrics.runner_stats(obs_metrics.capture()["counters"])
        assert list(cell["cache"]) == [
            "misses", "stores", "hits", "alias_hits", "hit_rate"
        ]

    def test_views_agree_after_a_fork_served_search(self, free_forks):
        from repro.obs.bus import heartbeat_stats
        from repro.sim.checkpoint import checkpoint_supported

        outcome = execute_task(
            CampaignTask.anduril(
                "f11", max_rounds=40, checkpoint=True, early_verdict=True
            )
        )
        bench_summary.record_outcome(outcome)
        document = bench_summary.summarize()
        heartbeat = heartbeat_stats()
        views = [document, document["cases"]["f11"], heartbeat]
        for section in obs_metrics.RUNNER_SECTIONS:
            assert all(
                view.get(section) == heartbeat.get(section) for view in views
            ), section
        if checkpoint_supported():
            checkpoint = document["checkpoint"]
            assert checkpoint["forks"] > 0
            assert isinstance(checkpoint["forks"], int)
            assert checkpoint["fork_seconds"] > 0
            assert checkpoint["open_seconds"] > 0


class TestHarnessCoverage:
    def test_anduril_outcome_carries_coverage_by_default(self):
        outcome = run_anduril(get_case("f1"), max_rounds=120)
        assert outcome.coverage is not None
        assert outcome.coverage["space"] > 0
        assert 0 < outcome.coverage["planned"] <= outcome.coverage["space"]

    def test_coverage_can_be_disabled(self):
        outcome = run_anduril(get_case("f1"), max_rounds=120, coverage=False)
        assert outcome.coverage is None

    def test_baseline_outcome_carries_comparable_coverage(self):
        anduril = run_anduril(get_case("f1"), max_rounds=120)
        baseline = run_baseline(
            "exhaustive", get_case("f1"), max_rounds=120, max_seconds=20.0
        )
        assert baseline.coverage is not None
        # Same case, same enumeration inputs: identical space size makes
        # the planned/fired fractions directly comparable.
        assert baseline.coverage["space"] == anduril.coverage["space"]


class TestSummaryCoverageSection:
    def setup_method(self):
        bench_summary.clear()
        obs_metrics.reset()

    def teardown_method(self):
        bench_summary.clear()
        obs_metrics.reset()

    def test_coverage_section_compares_strategies(self):
        anduril = run_anduril(get_case("f1"), max_rounds=120)
        bench_summary.record_outcome(anduril)
        for name in ("exhaustive", "fate"):
            outcome = run_baseline(
                name, get_case("f1"), max_rounds=120, max_seconds=20.0
            )
            bench_summary.record_outcome(outcome)
        document = bench_summary.summarize()
        coverage = document["coverage"]
        assert set(coverage) == {"anduril", "exhaustive", "fate"}
        for strategy in coverage:
            assert "f1" in coverage[strategy]
            assert coverage[strategy]["f1"]["space"] > 0

    def test_stub_outcomes_without_coverage_still_record(self):
        bench_summary.record_outcome(StubOutcome("f1"))
        bench_summary.record_outcome(
            StubStrategyOutcome("random", "f1")
        )
        document = bench_summary.summarize()
        assert document["cases"]["f1"]["success"] is True
        assert "coverage" not in document

    def test_clear_resets_strategy_registry(self):
        bench_summary.record_outcome(
            StubStrategyOutcome("random", "f1", coverage={"space": 1})
        )
        bench_summary.clear()
        assert "coverage" not in bench_summary.summarize()

    def test_written_summary_keeps_round_records_on_one_line(self, tmp_path):
        """The tracked artifact stays reviewable: integer-only arrays
        (the coverage rounds series) collapse to single lines while the
        JSON round-trips unchanged."""
        import json

        coverage = {
            "space": 4,
            "planned": 2,
            "fired": 1,
            "noop": 0,
            "planned_outside": 0,
            "planned_fraction": 0.5,
            "fired_fraction": 0.25,
            "noop_fraction": 0.0,
            "rounds": [[1, 1, 1, 0, 1], [2, 1, 2, 1, 1]],
        }
        bench_summary.record_outcome(
            StubStrategyOutcome("random", "f1", coverage=coverage)
        )
        bench_summary.record_outcome(StubOutcome("f1"))
        path = bench_summary.write_bench_summary(str(tmp_path / "s.json"))
        text = open(path, encoding="utf-8").read()
        assert '"rounds": [[1, 1, 1, 0, 1], [2, 1, 2, 1, 1]]' in text
        assert json.loads(text) == bench_summary.summarize()

    def test_compaction_never_rewrites_string_values(self):
        """Compaction is structural: string values whose *content* looks
        like a sloppily-spaced integer array must round-trip untouched."""
        import json

        document = {
            "note": "[1,   2]",
            "multiline": "[\n  1,\n  2\n]",
            "rounds": [[1, 2], [3, 4]],
            "floats": [0.5, 1.5],
        }
        text = bench_summary._compact_dumps(document)
        assert json.loads(text) == document
        assert '"rounds": [[1, 2], [3, 4]]' in text
        # Float arrays keep the indented layout.
        assert '"floats": [0.5, 1.5]' not in text


class TestLatencySection:
    """The streaming histograms surface as ``latency`` in the summary."""

    def test_section_absent_without_observations(self):
        obs_metrics.reset()
        try:
            assert bench_summary.latency_section() == {}
            assert "latency" not in bench_summary.summarize()
        finally:
            obs_metrics.reset()

    def test_section_carries_quantiles_after_a_run(self):
        obs_metrics.reset()
        try:
            run_anduril(get_case("f1"), max_rounds=120)
            section = bench_summary.latency_section()
            assert "latency.round_seconds" in section
            quantiles = section["latency.round_seconds"]
            assert quantiles["count"] >= 1
            assert quantiles["p50"] <= quantiles["p99"]
            assert bench_summary.summarize()["latency"] == section
        finally:
            obs_metrics.reset()
