"""Tests for ablation variants and state-of-the-art baseline analogs."""

import pytest

from repro.baselines import (
    ALL_STRATEGIES,
    CrashTunerStrategy,
    DistanceInstanceLimit,
    ExhaustiveInstances,
    FateStrategy,
    RandomInjector,
    StacktraceInjector,
    StrategyRunner,
)
from repro.failures import get_case


@pytest.fixture(scope="module")
def f1_context():
    return StrategyRunner().context(get_case("f1"))


@pytest.fixture(scope="module")
def f17_context():
    return StrategyRunner().context(get_case("f17"))


class TestContext:
    def test_candidates_are_causal_graph_sources(self, f1_context):
        assert f1_context.prepared.candidates
        for info in f1_context.prepared.candidates:
            assert info.node_id.startswith("extexc:")

    def test_instances_recorded_from_probe(self, f1_context):
        assert f1_context.prepared.occurrences
        trace = f1_context.prepared.normal_run.trace
        for site_id, count in f1_context.prepared.occurrences.items():
            assert list(f1_context.occurrences_of(site_id)) == list(
                range(1, count + 1)
            )
            positions = trace.positions(site_id)
            assert len(positions) == count
            assert list(positions) == sorted(positions)
        assert not f1_context.occurrences_of("never:ran:0:op")


class TestQueueShapes:
    def test_exhaustive_covers_every_candidate_instance(self, f17_context):
        strategy = ExhaustiveInstances()
        queue = strategy.build_queue(f17_context)
        sites = {instance.site_id for instance in queue}
        assert sites == {info.site_id for info in f17_context.prepared.candidates}
        # Hundreds of instances for the WAL workload.
        assert len(queue) > 300

    def test_instance_limit_caps_per_site(self, f17_context):
        strategy = DistanceInstanceLimit()
        queue = strategy.build_queue(f17_context)
        per_site: dict[tuple, int] = {}
        for instance in queue:
            key = (instance.site_id, instance.exception)
            per_site[key] = per_site.get(key, 0) + 1
        assert per_site and all(count <= 3 for count in per_site.values())

    def test_fate_sweeps_whole_system_not_causal_graph(self, f17_context):
        strategy = FateStrategy()
        queue = strategy.build_queue(f17_context)
        fate_sites = {instance.site_id for instance in queue}
        causal_sites = {info.site_id for info in f17_context.prepared.candidates}
        assert causal_sites < fate_sites  # strictly more (coverage-first)

    def test_fate_failure_ids_deduplicate(self, f17_context):
        queue = FateStrategy().build_queue(f17_context)
        ids = [(i.site_id, i.exception, i.occurrence) for i in queue]
        assert len(ids) == len(set(ids))

    def test_crashtuner_only_network_sites(self, f17_context):
        queue = CrashTunerStrategy().build_queue(f17_context)
        for instance in queue:
            op = instance.site_id.rsplit(":", 1)[-1]
            assert op.startswith(("sock", "net"))

    def test_stacktrace_sites_appear_in_failure_log(self, f17_context):
        queue = StacktraceInjector().build_queue(f17_context)
        assert queue, "failure log contains stack traces; queue must be non-empty"
        failure_text = f17_context.prepared.failure_log.to_text()
        for instance in queue[:5]:
            function = instance.site_id.rsplit(":", 2)[-2]
            assert f"at {function}(" in failure_text

    def test_random_is_seeded_and_reproducible(self, f17_context):
        a = RandomInjector(seed=5).build_queue(f17_context)
        b = RandomInjector(seed=5).build_queue(f17_context)
        assert a == b
        c = RandomInjector(seed=6).build_queue(f17_context)
        assert a != c


class TestRunner:
    def test_all_strategies_reproduce_the_easy_case(self):
        case = get_case("f1")
        runner = StrategyRunner(max_rounds=300, max_seconds=30)
        for name in ("exhaustive", "fault-site-distance", "stacktrace"):
            result = runner.run(ALL_STRATEGIES[name](), case, case_id="f1")
            assert result.success, f"{name} failed on f1: {result.message}"

    def test_budget_is_respected(self):
        case = get_case("f17")
        runner = StrategyRunner(max_rounds=5, max_seconds=30)
        result = runner.run(ExhaustiveInstances(), case, case_id="f17")
        assert not result.success
        assert result.rounds <= 5

    def test_instance_limited_variants_miss_deep_timing(self):
        """The paper's '-' cells: 3-instance variants cannot reach f17's
        root instance (occurrence ~50)."""
        case = get_case("f17")
        runner = StrategyRunner(max_rounds=300, max_seconds=60)
        result = runner.run(DistanceInstanceLimit(), case, case_id="f17")
        assert not result.success

    @pytest.mark.parametrize("name", sorted(ALL_STRATEGIES))
    def test_a_baseline_result_carries_its_rounds_and_signature(self, name):
        """A baseline's result is ANDURIL's: its round records back
        ``rounds``, and its signature is a pure function of the case."""
        case = get_case("f1")
        runner = StrategyRunner(max_rounds=40, max_seconds=None)
        first, second = (
            runner.run(ALL_STRATEGIES[name](), case) for _ in range(2)
        )
        assert len(first.round_records) == first.rounds
        assert len(first.coverage.rounds) == first.rounds
        assert first.signature() == second.signature()
