"""Dataset invariants for all 27 failure cases.

These mirror the paper's setup requirements (§2): the failure is
fault-induced (the workload alone never satisfies the oracle), the known
root cause reproduces it, and the generated failure log parses back from
text like a production log would.
"""

import pytest

from repro.__main__ import main
from repro.bench.tables import format_table
from repro.failures import INDEX, SYSTEMS, all_cases, get_case
from repro.injection.fir import InjectionPlan
from repro.sim.cluster import execute_workload

CASES = all_cases()


def test_catalog_has_27_cases():
    assert len(CASES) == 27
    assert [case.case_id for case in CASES] == [f"f{i}" for i in range(1, 28)]


class TestIndex:
    """The data-only index agrees with the cases the modules register."""

    def test_lists_exactly_the_registered_ids(self):
        assert list(INDEX) == [case.case_id for case in CASES]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.case_id)
    def test_row_matches_the_case(self, case):
        module, package = SYSTEMS[case.system]
        assert INDEX[case.case_id] == (case.issue, case.system, case.title)
        assert case.package == package
        assert case.workload.__module__ == f"repro.failures.{module}"

    def test_list_prints_one_row_per_case_in_id_order(self, capsys):
        assert main(["list"]) == 0
        expected = format_table(
            ["id", "issue", "system", "title"],
            [(case.case_id, case.issue, case.system, case.title) for case in CASES],
        )
        assert capsys.readouterr().out == expected + "\n"


def test_five_systems_covered():
    systems = {case.system for case in CASES}
    assert systems == {"zookeeper", "hdfs", "hbase", "kafka", "cassandra"}


def test_paper_distribution_of_cases():
    by_system = {}
    for case in CASES:
        by_system.setdefault(case.system, []).append(case.case_id)
    assert len(by_system["zookeeper"]) == 5
    assert len(by_system["hdfs"]) == 8
    assert len(by_system["hbase"]) == 7
    assert len(by_system["kafka"]) == 4
    assert len(by_system["cassandra"]) == 3


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.case_id)
class TestPerCase:
    def test_workload_alone_does_not_reproduce(self, case):
        assert not case.oracle.satisfied(case.run_without_fault())

    def test_ground_truth_reproduces(self, case):
        result = case.run_with_ground_truth()
        assert result.injected, "ground-truth instance did not fire"
        assert case.oracle.satisfied(result)

    def test_failure_log_parses_with_content(self, case):
        failure_log = case.failure_log()
        assert len(failure_log) > 10
        assert len(failure_log.threads()) >= 2

    def test_ground_truth_site_is_inferred_by_causal_graph(self, case):
        explorer = case.explorer()
        explorer.prepare()
        gt_site = case.ground_truth.resolve_site(case.model())
        assert explorer.policy.pool.rank_of_site(gt_site) is not None

    def test_fault_spec_valid_for_env_op(self, case):
        # The ground-truth site's op must actually support the declared
        # fault spec: a raisable exception type, or a corruption kind
        # registered for that op.
        from repro.injection.sites import parse_fault_spec
        from repro.sim.env import ENV_OP_CORRUPTIONS, ENV_OPS

        op = case.ground_truth.op
        spec = parse_fault_spec(case.ground_truth.exception)
        if spec.kind == "corrupt":
            assert spec.name in ENV_OP_CORRUPTIONS[op]
        else:
            assert spec.name in ENV_OPS[op]


class TestAlternates:
    def test_deeper_root_causes_also_reproduce(self):
        cases_with_alternates = [case for case in CASES if case.alternates]
        assert len(cases_with_alternates) >= 2
        for case in cases_with_alternates:
            for alternate in case.alternates:
                plan = InjectionPlan.single(alternate.resolve_instance(case.model()))
                seed = (
                    case.failure_seed if case.failure_seed is not None else case.seed
                )
                result = execute_workload(
                    case.workload, horizon=case.horizon, seed=seed, plan=plan
                )
                assert result.injected
                assert case.oracle.satisfied(result), (
                    f"{case.case_id} alternate did not satisfy oracle"
                )


class TestTimingSensitivity:
    """The motivating property: only specific instances reproduce f17."""

    def test_f17_wrong_occurrence_does_not_reproduce(self):
        case = get_case("f17")
        gt = case.ground_truth_instance()
        from repro.injection.sites import FaultInstance

        wrong = FaultInstance(gt.site_id, gt.exception, occurrence=5)
        seed = case.failure_seed if case.failure_seed is not None else case.seed
        result = execute_workload(
            case.workload, horizon=case.horizon, seed=seed,
            plan=InjectionPlan.single(wrong),
        )
        assert result.injected
        assert not case.oracle.satisfied(result)

    def test_f17_site_executes_many_times(self):
        case = get_case("f17")
        probe = case.run_without_fault()
        site = case.ground_truth.resolve_site(case.model())
        assert probe.site_counts.get(site, 0) > 100
