"""The fault-injection runtime (the paper's ``FIR``, Figure 3).

Every environment-boundary call in system code funnels through
:meth:`FIR.on_site`, which plays both instrumented roles from the paper:

* ``traceSite`` — record (site, virtual time, logical log index) in the
  run's :class:`ProbeTrace` so the feedback algorithm can compute
  temporal distances (§5.2.3); and
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

import bisect
import collections
import dataclasses
import functools
import time
from array import array
from typing import Any, Callable, Iterable, Optional, Sequence

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


@dataclasses.dataclass(frozen=True, slots=True)
class TraceEvent:
    """One dynamic execution of a fault site: a row of a
    :class:`ProbeTrace`, built only when someone reads the trace row by
    row (tests, tools); the search reads the columns."""

    site_id: str
    occurrence: int
    time: float       # virtual seconds
    log_index: int    # number of log records emitted before this event


class ProbeTrace:
    """The FIR trace of one run, as columns: one entry per request.

    Request ``i`` (0-based) executed site ``sites[i]`` at virtual time
    ``times[i]``, after ``log_indices[i]`` log records.  The FIR appends
    to the three columns and builds nothing per request.  Occurrences
    are not stored, because a site's ``j``-th request *is* its
    occurrence ``j``: the per-site index (:meth:`positions`, built on
    first read, extended if the trace has grown since, and shared by
    every reader) is the one place that maps one to the other.

    As a sequence (``len``, iteration, ``trace[i]``, ``trace[a:b]``) it
    reads as :class:`TraceEvent` rows, built on demand.
    """

    __slots__ = ("sites", "times", "log_indices", "_by_site", "_indexed")

    def __init__(
        self,
        sites: Optional[list] = None,
        times: Optional[array] = None,
        log_indices: Optional[array] = None,
    ) -> None:
        self.sites: list[str] = [] if sites is None else sites
        self.times = array("d") if times is None else times
        self.log_indices = array("q") if log_indices is None else log_indices
        self._by_site: collections.defaultdict = collections.defaultdict(
            functools.partial(array, "q")
        )
        self._indexed = 0

    @classmethod
    def of(cls, events: Iterable[TraceEvent]) -> "ProbeTrace":
        """The trace whose rows are ``events``, in request order; each
        site's occurrences must count up from 1, as the FIR's do."""
        events = list(events)
        trace = cls(
            [event.site_id for event in events],
            array("d", [event.time for event in events]),
            array("q", [event.log_index for event in events]),
        )
        if list(trace) != events:
            raise ValueError("each site's occurrences must count up from 1")
        return trace

    # ------------------------------------------------------------ the index

    def positions(self, site_id: str) -> Sequence[int]:
        """0-based positions of ``site_id``'s requests, in occurrence
        order: occurrence ``j`` is ``positions(site_id)[j - 1]``."""
        sites, by_site = self.sites, self._by_site
        if self._indexed != len(sites):
            for position in range(self._indexed, len(sites)):
                by_site[sites[position]].append(position)
            self._indexed = len(sites)
        return by_site.get(site_id, ())

    def ordinal(self, site_id: str, occurrence: int) -> Optional[int]:
        """The 1-based request ordinal (the unit of
        :meth:`FIR.set_trigger`) of ``site_id``'s ``occurrence``-th
        execution, or ``None`` if the run never reached it."""
        positions = self.positions(site_id)
        if 0 < occurrence <= len(positions):
            return positions[occurrence - 1] + 1
        return None

    # ----------------------------------------------------------- row access

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self):
        counts: dict[str, int] = {}
        for site_id, when, log_index in zip(
            self.sites, self.times, self.log_indices
        ):
            occurrence = counts[site_id] = counts.get(site_id, 0) + 1
            yield TraceEvent(site_id, occurrence, when, log_index)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self[i] for i in range(*item.indices(len(self)))]
        position = range(len(self))[item]
        site_id = self.sites[position]
        occurrence = bisect.bisect_left(self.positions(site_id), position) + 1
        return TraceEvent(
            site_id, occurrence, self.times[position], self.log_indices[position]
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, ProbeTrace):
            return (
                self.sites == other.sites
                and self.times == other.times
                and self.log_indices == other.log_indices
            )
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    __hash__ = None  # mutable while its run records it

    def __reduce__(self):
        # The three columns, never the index (rebuilt on first read).
        return ProbeTrace, (self.sites, self.times, self.log_indices)

    def __repr__(self) -> str:
        return f"ProbeTrace({len(self)} requests)"


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

    def first_firing(self, probe: ProbeTrace) -> Optional[FaultInstance]:
        """The window instance a run that replays ``probe`` injects, or
        ``None`` if the window stays dry (DESIGN §8.2).

        ``probe`` is the window-less run of the same workload, seed,
        horizon and base faults, which every run replays request for
        request until its first injection.  The instance to fire is
        therefore the one at the earliest probe request, skipping pairs
        :meth:`FIR.on_site` never fires: one a base fault shadows, and a
        corruption its op cannot carry.
        """
        first, first_at = None, None
        for instance in self.instances:
            if (instance.site_id, instance.occurrence) in self._always_by_key:
                continue
            op = instance.site_id.rsplit(":", 1)[-1]  # a site id ends in its op
            if instance.is_corruption and corruption_for(
                instance.fault_spec.name, op
            ) is None:
                continue
            at = probe.ordinal(instance.site_id, instance.occurrence)
            if at is not None and (first_at is None or at < first_at):
                first, first_at = instance, at
        return first

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
        self.trace = ProbeTrace()
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
        prefix ran fault-free, and the candidate plan takes
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
            trace = self.trace
            trace.sites.append(site_id)
            trace.times.append(self._clock())
            trace.log_indices.append(self._log_index_fn())
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
