"""The fault-injection runtime (the paper's ``FIR``, Figure 3).

Every environment-boundary call in system code funnels through
:meth:`FIR.on_site`, which plays both instrumented roles from the paper:

* ``traceSite`` — record (site, occurrence, virtual time, logical log
  index) so the feedback algorithm can compute temporal distances
  (§5.2.3); and
* ``throwIfEnabled`` — consult the active injection plan and, when this
  site's current occurrence matches, either raise the planned exception
  (``raise`` specs) or hand the caller a value-corruption applier
  (``corrupt:<kind>`` specs) that the env op runs its computed result
  through before returning it.

A plan holds a *window* of fault instances (§5.2.5): the first instance
that actually occurs in the run is injected, and at most one injection
fires per run.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Iterable, Optional

from ..obs import VIRTUAL
from .corruptions import corruption_for
from .sites import FaultInstance, SiteRef, is_corruption_spec, parse_fault_spec


def dedupe_instances(instances: Iterable[FaultInstance]) -> list[FaultInstance]:
    """Drop instances whose ``(site_id, occurrence)`` was already seen.

    A plan's single-shot window keys instances by ``(site_id,
    occurrence)``, so two entries that differ only by exception cannot
    coexist — :class:`InjectionPlan` rejects them.  Window assembly
    filters with this helper instead, keeping the *first* (i.e. highest
    priority) entry per key; the shadowed candidate stays untried and
    gets its own round later.
    """
    seen: set[tuple[str, int]] = set()
    unique: list[FaultInstance] = []
    for instance in instances:
        key = (instance.site_id, instance.occurrence)
        if key in seen:
            continue
        seen.add(key)
        unique.append(instance)
    return unique


@dataclasses.dataclass(slots=True, unsafe_hash=True)
class TraceEvent:
    """One dynamic execution of a fault site.

    Immutable by convention, not by ``frozen=True``: one is built per
    site execution and per decoded cache or fork row, and a frozen
    ``__init__`` pays four ``object.__setattr__`` calls for it.  Nothing
    assigns to an event after construction.
    """

    site_id: str
    occurrence: int
    time: float       # virtual seconds
    log_index: int    # number of log records emitted before this event


@dataclasses.dataclass
class InjectionPlan:
    """A window of fault instances to try in one run.

    ``instances`` is the single-shot window: the first one to occur is
    injected and the rest are disarmed.  ``always`` holds *base* faults
    that fire unconditionally whenever their (site, occurrence) executes —
    the mechanism behind the iterative multi-fault workflow (§3: fix one
    fault into the workload, search for the next).
    """

    instances: list[FaultInstance]
    always: list[FaultInstance] = dataclasses.field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_key = self._index("instances", self.instances)
        self._always_by_key = self._index("always", self.always)

    @staticmethod
    def _index(
        label: str, instances: list[FaultInstance]
    ) -> dict[tuple[str, int], FaultInstance]:
        """Key instances by ``(site_id, occurrence)``, rejecting collisions.

        Silently collapsing duplicates would make every entry but the
        last uninjectable; callers assembling windows from ranked
        candidates must filter with :func:`dedupe_instances` first.
        """
        by_key: dict[tuple[str, int], FaultInstance] = {}
        for inst in instances:
            key = (inst.site_id, inst.occurrence)
            previous = by_key.get(key)
            if previous is not None:
                raise ValueError(
                    f"duplicate {label} instance for site {inst.site_id} "
                    f"occurrence {inst.occurrence}: {previous.spec} vs "
                    f"{inst.spec} (dedupe the window before building "
                    f"the plan)"
                )
            by_key[key] = inst
        return by_key

    def match(self, site_id: str, occurrence: int) -> Optional[FaultInstance]:
        return self._by_key.get((site_id, occurrence))

    def match_always(self, site_id: str, occurrence: int) -> Optional[FaultInstance]:
        return self._always_by_key.get((site_id, occurrence))

    @classmethod
    def single(cls, instance: FaultInstance) -> "InjectionPlan":
        return cls([instance])

    @classmethod
    def of(
        cls,
        instances: Iterable[FaultInstance],
        always: Iterable[FaultInstance] = (),
    ) -> "InjectionPlan":
        return cls(list(instances), list(always))

    # ------------------------------------------------------------ serialization
    #
    # Plans cross a process boundary on their way to a checkpoint holder,
    # as a payload of plain tuples.  ``key()`` is the canonical identity
    # the run cache indexes by — two plans with equal keys drive
    # byte-identical runs of the deterministic simulator.

    def to_payload(self) -> dict:
        # A raise spec's canonical form is the bare exception name, so
        # payloads (and ``key()`` below) are value-identical to the
        # pre-spec ``(site, exception, occurrence)`` schema.
        return {
            "instances": [
                (inst.site_id, inst.spec, inst.occurrence)
                for inst in self.instances
            ],
            "always": [
                (inst.site_id, inst.spec, inst.occurrence)
                for inst in self.always
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "InjectionPlan":
        return cls(
            [FaultInstance(*item) for item in payload["instances"]],
            [FaultInstance(*item) for item in payload["always"]],
        )

    def key(self) -> tuple:
        return (
            tuple(
                (inst.site_id, inst.spec, inst.occurrence)
                for inst in self.instances
            ),
            tuple(
                (inst.site_id, inst.spec, inst.occurrence)
                for inst in self.always
            ),
        )

    def __getstate__(self) -> dict:
        # Drop the derived lookup dicts; rebuild them on the other side.
        return {"instances": list(self.instances), "always": list(self.always)}

    def __setstate__(self, state: dict) -> None:
        self.instances = state["instances"]
        self.always = state["always"]
        self.__post_init__()


def is_injected(exc: BaseException) -> bool:
    """Whether ``exc`` was raised by the FIR rather than organically.

    The mini systems never call this; it exists so tests can tell an
    injected fault apart from an organic one.
    """
    return getattr(exc, "injected_by_fir", False)


class FIR:
    """Per-run fault-injection runtime state."""

    def __init__(self) -> None:
        self.tracing = True
        self.plan: Optional[InjectionPlan] = None
        self.counts: dict[str, int] = {}
        self.trace: list[TraceEvent] = []
        self.fired: Optional[FaultInstance] = None
        self.always_fired: list[FaultInstance] = []
        self.request_count = 0
        self.decision_seconds = 0.0
        #: ``repro.obs`` recorder; ``None`` keeps the hot path free of
        #: timing calls and event allocations (profiling off).
        self.recorder = None
        #: Checkpoint hook: when set, ``on_site`` calls ``_trigger(self)``
        #: the moment ``request_count`` reaches ``_trigger_at`` — after the
        #: request is traced, before its injection decision.  The sim
        #: checkpoint layer pauses a holder process here and forks
        #: candidate runs that continue with a swapped-in plan.
        self._trigger: Optional[Callable[["FIR"], None]] = None
        self._trigger_at = 0
        # Unbound, every event reads log index 0 at time 0.0.
        self._log_index_fn: Callable[[], int] = int
        self._clock: Callable[[], float] = float

    def bind(
        self,
        log_index_fn: Callable[[], int],
        clock: Callable[[], float],
    ) -> None:
        """Attach the run's log counter and virtual clock.

        ``on_site`` calls both once per traced request, so a cluster
        binds them straight to the objects that hold the answers, which
        stay valid for its whole life (see ``Cluster.__init__``).
        """
        self._log_index_fn = log_index_fn
        self._clock = clock

    def set_plan(self, plan: Optional[InjectionPlan]) -> None:
        self.plan = plan
        self.fired = None
        self.always_fired = []

    def swap_plan(self, plan: Optional[InjectionPlan]) -> None:
        """Replace the plan mid-run, preserving fired/base-fault state.

        Unlike :meth:`set_plan` this keeps ``fired``, ``always_fired``,
        counts, and the trace — the contract a checkpoint fork needs: the
        prefix ran under the base-only plan, and the candidate plan takes
        over for the suffix as if it had been active all along (it could
        not have fired earlier by construction of the fork point).
        """
        self.plan = plan

    def set_trigger(
        self, at_request: int, callback: Callable[["FIR"], None]
    ) -> None:
        """Invoke ``callback(self)`` when request ``at_request`` is reached.

        ``at_request`` is a 1-based request ordinal.  The callback runs
        after the request is counted and traced but *before* its
        injection decision, and is one-shot (cleared before invocation).
        """
        if at_request < 1:
            raise ValueError("at_request is a 1-based request ordinal")
        self._trigger_at = int(at_request)
        self._trigger = callback

    def on_site(self, site: SiteRef) -> Optional[Callable[[Any], Any]]:
        """Trace this execution of ``site`` and inject if the plan says so.

        Raise specs raise the planned exception here.  Corruption specs
        instead *return* the registered corruption applier: the env op
        runs its computed result through it before handing the value to
        the caller, so the op "succeeds" with poisoned data.  Returns
        ``None`` when nothing (or an exception) was injected.

        Decision timing is sampled only when a ``repro.obs`` recorder is
        attached (profiling): the default path pays no ``perf_counter``
        calls, which matters at millions of site executions per campaign
        and keeps timing noise out of outcome comparisons.
        """
        recorder = self.recorder
        started = time.perf_counter() if recorder is not None else 0.0
        site_id = site.site_id
        counts = self.counts
        occurrence = counts.get(site_id, 0) + 1
        counts[site_id] = occurrence
        self.request_count += 1
        if self.tracing:
            self.trace.append(
                TraceEvent(
                    site_id, occurrence, self._clock(), self._log_index_fn()
                )
            )
        if self._trigger is not None and self.request_count == self._trigger_at:
            # One-shot checkpoint hook: the holder process parks here (its
            # trigger loop never returns); a forked child returns with the
            # candidate plan swapped in and decides this request below.
            trigger, self._trigger = self._trigger, None
            trigger(self)
        plan = self.plan
        instance = None
        is_base_fault = False
        if plan is not None:
            # The usual plan carries no base faults: skip their probe.
            if plan._always_by_key:
                instance = plan.match_always(site_id, occurrence)
                is_base_fault = instance is not None
            if instance is None and self.fired is None:
                instance = plan.match(site_id, occurrence)
        if recorder is not None:
            self.decision_seconds += time.perf_counter() - started
        if instance is not None:
            applier = None
            if is_corruption_spec(instance.spec):
                # A corruption only fires where the op can carry it; an
                # unsupported (hand-written) plan entry is a non-match so
                # the window stays armed rather than "firing" invisibly.
                applier = corruption_for(
                    parse_fault_spec(instance.spec).name, site.op
                )
                if applier is None:
                    return None
            if is_base_fault:
                self.always_fired.append(instance)
            else:
                self.fired = instance
            if recorder is not None:
                recorder.event(
                    "fir.inject",
                    "fir",
                    clock=VIRTUAL,
                    ts=self._clock(),
                    site=site_id,
                    occurrence=occurrence,
                    exception=instance.spec,
                    base_fault=is_base_fault,
                    log_index=self._log_index_fn(),
                )
            if applier is not None:
                return applier
            # Imported lazily: repro.sim imports this module at package
            # init time, so a top-level import would be circular.
            from ..sim.errors import exception_from_name

            exc = exception_from_name(
                parse_fault_spec(instance.spec).name,
                f"injected {instance.spec} at {site_id} (occurrence "
                f"{instance.occurrence})",
            )
            exc.injected_by_fir = True
            raise exc
        return None

    # -------------------------------------------------------------- reporting

    @property
    def mean_decision_latency(self) -> float:
        if self.request_count == 0:
            return 0.0
        return self.decision_seconds / self.request_count

    def occurrences_of(self, site_id: str) -> int:
        return self.counts.get(site_id, 0)

    def dynamic_instance_count(self) -> int:
        """Total dynamic fault-site executions observed this run."""
        return sum(self.counts.values())
