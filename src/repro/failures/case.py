"""Failure case definitions.

A :class:`FailureCase` bundles everything ANDURIL's problem statement
lists as inputs (§2): the system (package to analyze), a driving workload,
a failure log, and a failure oracle — plus the ground truth the evaluation
needs (the root-cause fault site and occurrence, known because the real
issues are resolved).

As in the paper's methodology, when no production log exists we generate
the failure log by injecting the ground-truth fault once and recording the
run's log *as text* (re-parsed, so source metadata is stripped exactly as
it would be for a real production log).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from ..core.oracle import Oracle
from ..core.params import SearchParams
from ..injection.fir import InjectionPlan
from ..injection.sites import FaultInstance
from ..logs.parser import KAFKA_FORMAT, LOG4J_FORMAT, LogParser
from ..logs.record import LogFile
from ..sim.cluster import RunResult, WorkloadFn, execute_workload

if TYPE_CHECKING:
    from ..analysis.system_model import SystemModel
    from ..core.explorer import Explorer

_MODEL_CACHE: dict[tuple[str, tuple[str, ...]], SystemModel] = {}
_FAILURE_LOG_CACHE: dict[str, LogFile] = {}


def system_model(
    package: str, addons: tuple[str, ...] = ()
) -> SystemModel:
    """Analyze a system package once per deployment and cache the model."""
    from ..analysis.system_model import analyze_package

    key = (package, tuple(sorted(addons)))
    model = _MODEL_CACHE.get(key)
    if model is None:
        model = analyze_package(package, addons)
        _MODEL_CACHE[key] = model
    return model


def clear_failure_log_cache() -> None:
    _FAILURE_LOG_CACHE.clear()


@dataclasses.dataclass(frozen=True)
class GroundTruth:
    """Root-cause fault, specified structurally (robust to line drift).

    ``function`` is the bare name of the function containing the env call;
    ``module_suffix`` disambiguates when several functions share the name.
    ``index`` selects among multiple matching env calls in that function.
    ``exception`` holds a canonical fault-spec string: a bare exception
    type name for the raise dimension, ``corrupt:<kind>`` for a soft
    fault (the field name predates the second dimension).
    """

    function: str
    op: str
    exception: str
    occurrence: int
    module_suffix: str = ""
    index: int = 0

    def resolve_site(self, model: SystemModel) -> str:
        matches = [
            env_call
            for env_call in model.env_calls
            if env_call.function_name == self.function
            and env_call.op == self.op
            and (not self.module_suffix or self.module_suffix in env_call.file)
        ]
        if not matches:
            raise LookupError(
                f"no env call {self.op} in function {self.function}"
            )
        matches.sort(key=lambda env_call: (env_call.file, env_call.line))
        return matches[self.index].site_id

    def resolve_instance(self, model: SystemModel) -> FaultInstance:
        return FaultInstance(
            site_id=self.resolve_site(model),
            spec=self.exception,
            occurrence=self.occurrence,
        )


@dataclasses.dataclass
class FailureCase:
    _: dataclasses.KW_ONLY
    case_id: str            # paper id, e.g. "f17"
    #: The next four come from the catalog index row when the case is
    #: registered (``repro.failures.INDEX``); a case the index does not
    #: list sets them itself.
    issue: str = ""         # e.g. "HBase-25905"
    title: str = ""
    system: str = ""        # e.g. "hbase"
    package: str = ""       # e.g. "repro.systems.minihbase"
    description: str
    workload: WorkloadFn
    horizon: float
    oracle: Oracle
    ground_truth: GroundTruth
    seed: int = 0
    #: Seed of the "production" run that generated the failure log.  When
    #: it differs from ``seed``, the failure log's timeline does not match
    #: the Explorer's probe runs exactly — as in real deployments — so the
    #: temporal alignment (§5.2.3) is genuinely approximate.
    failure_seed: int | None = None
    max_rounds: int = 2000
    #: Deeper/alternative root causes that also satisfy the oracle
    #: (the Table 6 phenomenon), if any.
    alternates: list[GroundTruth] = dataclasses.field(default_factory=list)
    #: Text format of the production failure log ("log4j" or "kafka");
    #: like the paper, one parser configuration covers four systems and a
    #: second covers Kafka.
    log_style: str = "log4j"
    #: Fault dimensions the search needs for this case: ``exceptions``
    #: (the legacy default — keeps pre-spec campaigns byte-identical),
    #: ``soft``, or ``all``.  Soft-fault-only cases set ``all`` so both
    #: dimensions compete in the ranking, as a real campaign would run.
    fault_dims: str = "exceptions"
    #: Optional system components (declared in the package's
    #: ``ADDON_MODULES``) this case's workload deploys.  The static model
    #: — and with it every strategy's fault space — covers exactly the
    #: deployed modules, so cases that do not spawn an add-on daemon are
    #: untouched by its existence.
    addon_modules: tuple[str, ...] = ()

    # ------------------------------------------------------------------ helpers

    def model(self) -> SystemModel:
        return system_model(self.package, self.addon_modules)

    def ground_truth_instance(self) -> FaultInstance:
        return self.ground_truth.resolve_instance(self.model())

    def run_without_fault(self) -> RunResult:
        return self._run(self.seed)

    def run_with_ground_truth(self) -> RunResult:
        """Reproduce the failure in the production configuration."""
        plan = InjectionPlan.single(self.ground_truth_instance())
        seed = self.failure_seed if self.failure_seed is not None else self.seed
        return self._run(seed, plan)

    def _run(self, seed: int, plan=None) -> RunResult:
        from ..cache import cached_execute

        return cached_execute(
            self.workload,
            horizon=self.horizon,
            seed=seed,
            plan=plan,
            runner=execute_workload,
        )

    def failure_log(self) -> LogFile:
        """The production failure log (generated per the paper's method)."""
        cached = _FAILURE_LOG_CACHE.get(self.case_id)
        if cached is None:
            result = self.run_with_ground_truth()
            if not result.injected:
                raise RuntimeError(
                    f"{self.case_id}: ground-truth instance did not fire"
                )
            if not self.oracle.satisfied(result):
                raise RuntimeError(
                    f"{self.case_id}: ground-truth injection does not satisfy "
                    f"the oracle"
                )
            text = result.log.to_text(style=self.log_style)
            fmt = KAFKA_FORMAT if self.log_style == "kafka" else LOG4J_FORMAT
            cached = LogParser([fmt]).parse_text(text)
            _FAILURE_LOG_CACHE[self.case_id] = cached
        return cached

    def explorer(self, params: Optional[SearchParams] = None, **overrides) -> Explorer:
        """An Explorer searching ``params`` under any of its fields in
        ``overrides``; the rest of ``overrides`` go to the Explorer."""
        from ..core.explorer import Explorer

        params, overrides = SearchParams.split(overrides, params)
        settings = dict(
            workload=self.workload,
            horizon=self.horizon,
            failure_log=self.failure_log(),
            oracle=self.oracle,
            model=self.model(),
            seed=self.seed,
            max_rounds=self.max_rounds,
            ground_truth_site=self.ground_truth.resolve_site(self.model()),
            case_id=self.case_id,
            system=self.system,
            params=params.resolve(self.fault_dims),
        )
        settings.update(overrides)
        return Explorer(**settings)

