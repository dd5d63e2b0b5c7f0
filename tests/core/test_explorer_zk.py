"""End-to-end Explorer tests on the MiniZK failure cases."""

import pytest

from repro.core.oracle import LogMessageOracle
from repro.failures import all_cases, get_case

ZK_CASES = [case for case in all_cases() if case.system == "zookeeper"]


@pytest.mark.parametrize("case", ZK_CASES, ids=lambda c: c.case_id)
class TestZkReproduction:
    def test_normal_run_does_not_satisfy_oracle(self, case):
        assert not case.oracle.satisfied(case.run_without_fault())

    def test_ground_truth_reproduces(self, case):
        result = case.run_with_ground_truth()
        assert result.injected
        assert case.oracle.satisfied(result)

    def test_explorer_reproduces(self, case):
        result = case.explorer(max_rounds=300).explore()
        assert result.success, result.message
        assert result.injected is not None
        assert result.script is not None

    def test_reproduction_script_replays(self, case):
        result = case.explorer(max_rounds=300).explore()
        replay = result.script.replay(case.workload)
        assert replay.injected
        assert case.oracle.satisfied(replay)

    def test_root_site_in_causal_graph(self, case):
        explorer = case.explorer()
        explorer.prepare()
        gt_site = case.ground_truth.resolve_site(case.model())
        assert explorer.policy.pool.rank_of_site(gt_site) is not None


class TestExplorerMechanics:
    def test_unsatisfiable_oracle_exhausts_space(self):
        case = get_case("f3")
        explorer = case.explorer(
            oracle=LogMessageOracle("this message does not exist anywhere"),
            max_rounds=400,
        )
        result = explorer.explore()
        assert not result.success
        assert result.message in ("fault space exhausted", "round budget exhausted")
        assert result.rounds > 0

    def test_round_budget_respected(self):
        case = get_case("f3")
        explorer = case.explorer(
            oracle=LogMessageOracle("never matches anything"), max_rounds=2
        )
        result = explorer.explore()
        assert result.rounds <= 2

    def test_rank_trajectory_recorded(self):
        case = get_case("f1")
        result = case.explorer(max_rounds=50).explore()
        trajectory = result.rank_trajectory
        assert trajectory, "expected at least one rank sample"
        rounds = [r for r, _rank in trajectory]
        assert rounds == sorted(rounds)

    def test_script_round_trips_json(self):
        case = get_case("f1")
        result = case.explorer(max_rounds=50).explore()
        from repro.core.report import ReproductionScript

        script2 = ReproductionScript.from_json(result.script.to_json())
        assert script2.instance == result.script.instance
        assert script2.seed == result.script.seed
