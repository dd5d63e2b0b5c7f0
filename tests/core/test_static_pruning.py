"""Static fault-space pruning on committed cases: the soundness properties.

Pruning is accounting-only, so two properties must hold on every
committed case:

* **No contradictions** — a fired triple the flow pass called
  unreachable is a hard failure (the dynamic cross-check of the static
  claim).
* **Signature equivalence** — the exploration outcome is byte-identical
  with pruning on and off; only the coverage denominator may differ.
"""

import pytest

from repro.analysis.system_model import clear_facts_cache
from repro.core import explorer as explorer_module
from repro.core.pruning import DEFAULT_RADIUS, pruner_from_prepared
from repro.failures import get_case

#: One case per mini system (the CI dogfood set) plus f17, the densest
#: fault space in the dataset (2020 triples), where pruning matters most.
CASES = ["f1", "f9", "f13", "f19", "f22", "f17"]


@pytest.fixture(autouse=True)
def fresh_flow_graphs():
    clear_facts_cache()
    yield
    clear_facts_cache()


def explore(case_id, prune):
    explorer = get_case(case_id).explorer(prune=prune)
    return explorer, explorer.explore()


class TestPruningSoundness:
    @pytest.mark.parametrize("case_id", CASES)
    def test_no_dynamic_contradictions(self, case_id):
        _explorer, result = explore(case_id, prune="static")
        summary = result.coverage
        assert summary.pruned_space_size is not None
        assert summary.pruned_space_size <= summary.space_size
        assert summary.contradictions == (), (
            f"{case_id}: fired triples the static analysis called "
            f"unreachable: {summary.contradictions}"
        )

    @pytest.mark.parametrize("case_id", CASES)
    def test_signature_identical_with_and_without_pruning(self, case_id):
        _e1, pruned = explore(case_id, prune="static")
        _e2, plain = explore(case_id, prune="none")
        assert pruned.signature() == plain.signature()
        assert plain.coverage.pruned_space_size is None
        # Same raw space; only the accounting denominator differs.
        assert pruned.coverage.space_size == plain.coverage.space_size
        assert pruned.coverage.planned == plain.coverage.planned
        assert pruned.coverage.fired == plain.coverage.fired

    def test_dense_case_prunes_at_least_a_quarter(self):
        # f17's 2020-triple space is dominated by hot-loop occurrences far
        # from any relevant observable; the acceptance floor is 25%.
        _explorer, result = explore("f17", prune="static")
        summary = result.coverage
        dropped = summary.space_size - summary.pruned_space_size
        assert dropped / summary.space_size >= 0.25


class TestStaticPruner:
    def test_pruner_from_prepared_keeps_fired_triples(self):
        explorer, result = explore("f17", prune="static")
        prepared = explorer.prepare()
        pruner = pruner_from_prepared(prepared.flow_graph, prepared)
        assert pruner.radius == DEFAULT_RADIUS
        fired = []
        if result.script is not None:
            fired = [result.script.instance, *result.script.extra_instances]
        assert fired, "f17 is a committed reproduction"
        for instance in fired:
            assert pruner.live(
                instance.site_id, instance.exception, instance.occurrence
            )

    def test_speculative_occurrences_survive(self):
        explorer, _result = explore("f1", prune="static")
        prepared = explorer.prepare()
        pruner = pruner_from_prepared(prepared.flow_graph, prepared)
        # An occurrence the probe never timestamped has no evidence to
        # prune on; it must be conservatively kept (unless its pair is
        # statically dead).
        live_pairs = {
            key
            for key in prepared.flow_graph.paths
            if prepared.flow_graph.pair_live(*key)
        }
        for site_id, exception in live_pairs:
            assert pruner.live(site_id, exception, 999_999)

    def test_radius_zero_is_strictest(self):
        explorer, _result = explore("f17", prune="static")
        prepared = explorer.prepare()
        wide = pruner_from_prepared(prepared.flow_graph, prepared)
        narrow = pruner_from_prepared(prepared.flow_graph, prepared, radius=0.0)
        space = {
            (env.site_id, exc, occ)
            for env in prepared.model.env_calls
            for exc in env.exception_types
            for occ in (1, 2, 3)
        }
        assert narrow.prune(space) <= wide.prune(space)

    @pytest.mark.parametrize("radius", [-1.0, float("nan")])
    def test_a_negative_or_nan_radius_is_refused(self, radius):
        explorer = get_case("f1").explorer(prune="static", max_rounds=0)
        prepared = explorer.prepare()
        with pytest.raises(ValueError, match="radius"):
            pruner_from_prepared(prepared.flow_graph, prepared, radius=radius)


def test_an_unpruned_search_builds_no_flow_graph(monkeypatch):
    """The flow pass feeds static pruning alone, so a ``prune="none"``
    search never builds it, though its coverage is still accounted."""

    def no_flow_pass(*args, **kwargs):
        raise AssertionError("flow pass built for an unpruned search")

    monkeypatch.setattr(explorer_module, "propagation_graph", no_flow_pass)
    explorer = get_case("f1").explorer(prune="none", max_rounds=5)
    assert explorer.prepare().flow_graph is None
    assert explorer.explore().coverage.pruned_space_size is None
