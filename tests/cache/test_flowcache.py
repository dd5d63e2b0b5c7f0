"""The flow graph is memoised on its model: built once per model,
shared by every reader, persisted nowhere."""

from repro.analysis import analyze_package, build_propagation_graph
from repro.analysis.flow import FlowAnalysis, propagation_graph
from repro.analysis.lint import run_lint
from repro.analysis.system_model import clear_facts_cache
from repro.cache import flowcache
from repro.cache.flowcache import cached_propagation_graph
from repro.failures import get_case


def test_fingerprinted_builds_are_memoized():
    # The memo key is now the model object rather than a workload
    # fingerprint; a repeat read is still the memoised build, and that
    # build equals an uncached one.
    model = analyze_package("repro.systems.minizk")
    first = cached_propagation_graph(model)
    assert cached_propagation_graph(model) is first
    assert first.paths == build_propagation_graph(model).paths
    assert first.dead_pairs() == build_propagation_graph(model).dead_pairs()


def test_no_workload_memoizes_per_model_object():
    model = analyze_package("repro.systems.minizk")
    first = propagation_graph(model)
    assert propagation_graph(model) is first
    other = analyze_package("repro.systems.minizk")
    assert propagation_graph(other) is not first
    clear_facts_cache()
    assert propagation_graph(model) is not first


def test_the_old_name_is_the_same_function():
    # The e2e tracer wraps the accessor under this name and rebinds every
    # module global that *is* it, so it must not be a wrapper.
    assert flowcache.cached_propagation_graph is propagation_graph


def test_pruning_and_the_lint_rule_share_one_build(monkeypatch):
    clear_facts_cache()
    builds = []
    original = FlowAnalysis.build

    def counting_build(self, *args, **kwargs):
        builds.append(self.model)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(FlowAnalysis, "build", counting_build)
    case = get_case("f1")
    model = case.model()
    case.explorer(prune="static", max_rounds=0).prepare()
    run_lint(model, rules=["handler-unsync-write"])
    assert builds == [model]
