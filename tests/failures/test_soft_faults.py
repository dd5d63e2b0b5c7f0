"""The seeded soft-fault cases (f23–f27): only the corruption dimension
can reproduce them, and the ``fault_dims`` switch gates the search space."""

import pytest

from repro.failures import get_case
from repro.injection.fir import InjectionPlan
from repro.injection.sites import FaultInstance, is_corruption_spec
from repro.sim.cluster import execute_workload
from repro.sim.env import ENV_OPS

SOFT_CASES = ["f23", "f24", "f25", "f26", "f27"]


@pytest.mark.parametrize("case_id", SOFT_CASES)
class TestSoftFaultCases:
    def test_ground_truth_is_a_corruption(self, case_id):
        case = get_case(case_id)
        assert is_corruption_spec(case.ground_truth.exception)
        assert case.fault_dims == "all"

    def test_no_exception_at_the_site_reproduces(self, case_id):
        # The seeded defects are detect-too-late residuals: every
        # exception the op can raise is caught and downgraded, so the
        # exception dimension cannot satisfy the oracle at the
        # ground-truth (site, occurrence) — only corrupt data can.
        case = get_case(case_id)
        gt = case.ground_truth_instance()
        seed = case.failure_seed if case.failure_seed is not None else case.seed
        for exception in ENV_OPS[case.ground_truth.op]:
            plan = InjectionPlan.single(
                FaultInstance(gt.site_id, exception, gt.occurrence)
            )
            result = execute_workload(
                case.workload, horizon=case.horizon, seed=seed, plan=plan
            )
            assert result.injected, f"{exception} did not fire"
            assert not case.oracle.satisfied(result), (
                f"{case_id}: exception {exception} unexpectedly reproduces"
            )

    def test_corruption_candidates_gated_by_fault_dims(self, case_id):
        from repro.analysis.model import (
            filter_candidates_by_dims,
            graph_fault_candidates,
        )

        case = get_case(case_id)
        soft = case.explorer().prepare().prepared
        all_dims = filter_candidates_by_dims(
            graph_fault_candidates(soft.graph), "all"
        )
        assert any(
            is_corruption_spec(candidate.exception) for candidate in all_dims
        ), f"{case_id}: no corruption candidates under fault_dims=all"
        exceptions_only = filter_candidates_by_dims(
            graph_fault_candidates(soft.graph), "exceptions"
        )
        assert not any(
            is_corruption_spec(candidate.exception)
            for candidate in exceptions_only
        ), f"{case_id}: corruption candidate leaked into exception-only search"

    def test_explorer_reproduces_with_a_corruption(self, case_id):
        case = get_case(case_id)
        result = case.explorer(max_rounds=800).explore()
        assert result.success, f"{case_id}: {result.message}"
        assert is_corruption_spec(result.injected.spec), (
            f"{case_id}: reproduced via {result.injected.spec}, "
            f"expected a corruption"
        )

    def test_addon_module_scoped_to_the_deploying_case(self, case_id):
        # The seeded daemon is an ADDON_MODULE: it exists in the soft
        # case's static model but not in the base system model, so
        # whole-model strategies (FATE's static sweep, the random
        # injector's space) are byte-identical for every legacy case.
        from repro.failures.case import system_model

        case = get_case(case_id)
        assert case.addon_modules, f"{case_id}: deploys no addon module"
        addon_file = case.addon_modules[0].rsplit(".", 1)[1] + ".py"
        base_files = {
            env_call.file for env_call in system_model(case.package).env_calls
        }
        case_files = {env_call.file for env_call in case.model().env_calls}
        assert not any(addon_file in file for file in base_files), (
            f"{case_id}: {addon_file} leaked into the base {case.system} model"
        )
        assert any(addon_file in file for file in case_files)


class TestAddonDeclaration:
    def test_unknown_addon_is_rejected(self):
        from repro.analysis.system_model import analyze_package

        with pytest.raises(ValueError, match="does not declare"):
            analyze_package(
                "repro.systems.minihbase",
                addons=("repro.systems.minihbase.no_such_daemon",),
            )

    def test_every_addon_module_is_declared_by_its_package(self):
        import importlib

        from repro.failures import all_cases

        for case in all_cases():
            declared = getattr(
                importlib.import_module(case.package), "ADDON_MODULES", ()
            )
            for addon in case.addon_modules:
                assert addon in declared, (case.case_id, addon)
