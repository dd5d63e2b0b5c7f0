"""State-of-the-art comparison tools (§8.4), re-implemented as analogs.

These tools were designed for *bug finding*, not failure reproduction, so
they explore for coverage:

* ``FateStrategy`` — FATE-style: failure IDs deduplicate injections; it
  sweeps every static fault site in the whole system (not pruned by any
  causal relation to the target failure), breadth-first over occurrence
  classes.
* ``CrashTunerStrategy`` — CrashTuner-style: injects around *meta-info*
  access points (code touching node/task identity), which in our systems
  means the network-interaction sites; it tries the first occurrences of
  each such site.
* ``StacktraceInjector`` — parses WARN/ERROR stack traces out of the
  failure log and only injects at logged frames (§8.4's extra baseline).
* ``RandomInjector`` — chaos-monkey-style uniform random choice over the
  dynamic fault space.
"""

from __future__ import annotations

import random
import re

from ..injection.sites import FaultInstance
from .base import SearchContext, Strategy
from .variants import _StaticOrderStrategy

OCCURRENCE_SWEEP = 5  # how many occurrence classes FATE explores per site


class FateStrategy(_StaticOrderStrategy):
    """Coverage-first sweep over all static fault sites with failure IDs."""

    name = "fate"

    def build_queue(self, context: SearchContext):
        queue: list[FaultInstance] = []
        seen_failure_ids: set[tuple[str, str, int]] = set()
        # Breadth-first over occurrence classes: all sites at occurrence 1,
        # then occurrence 2, ... — FATE's "explore new failure scenarios
        # first" policy.
        env_calls = sorted(
            context.model.env_calls, key=lambda call: call.site_id
        )
        for occurrence in range(1, OCCURRENCE_SWEEP + 1):
            for env_call in env_calls:
                for exc_type in env_call.exception_types:
                    failure_id = (env_call.site_id, exc_type, occurrence)
                    if failure_id in seen_failure_ids:
                        continue
                    seen_failure_ids.add(failure_id)
                    queue.append(
                        FaultInstance(env_call.site_id, exc_type, occurrence)
                    )
        return queue


#: Identifier-ish variable names treated as meta-info (node/task identity).
_META_INFO = re.compile(
    r"(name|node|server|leader|peer|worker|task|replica|owner|src|dst)",
    re.IGNORECASE,
)

#: Node-lifecycle functions: CrashTuner's meta-info points cluster around
#: node startup/shutdown and membership-change events.
_LIFECYCLE = re.compile(
    r"(accept|join|register|connect|elect|follow|heartbeat|claim|recover)",
    re.IGNORECASE,
)


class CrashTunerStrategy(_StaticOrderStrategy):
    """Inject at node-interaction points around meta-info accesses."""

    name = "crashtuner"

    def build_queue(self, context: SearchContext):
        queue: list[FaultInstance] = []
        for env_call in sorted(
            context.model.env_calls, key=lambda call: call.site_id
        ):
            if not env_call.op.startswith(("sock", "net")):
                continue
            # Keep sites in functions that read or write meta-info.
            touches_meta = any(
                _META_INFO.search(variable)
                for condition in context.model.conditions
                if condition.function == env_call.function
                for variable in condition.variables
            ) or any(
                _META_INFO.search(target)
                for assign in context.model.assigns
                if assign.function == env_call.function
                for target in assign.targets
            )
            if not touches_meta and not _LIFECYCLE.search(env_call.function_name):
                continue
            for exc_type in env_call.exception_types:
                for occurrence in (1, 2, 3):
                    queue.append(
                        FaultInstance(env_call.site_id, exc_type, occurrence)
                    )
        return queue


_FRAME = re.compile(r"\tat (?P<function>\w+)\((?P<file>[\w.]+):(?P<line>\d+)\)")


class StacktraceInjector(_StaticOrderStrategy):
    """Only inject at fault sites whose frames appear in logged traces."""

    name = "stacktrace"

    def build_queue(self, context: SearchContext):
        failure_log = context.case.failure_log()
        logged_frames: set[tuple[str, str]] = set()
        exception_types: set[str] = set()
        for record in failure_log:
            if record.level.name not in ("WARN", "ERROR", "FATAL"):
                continue
            for match in _FRAME.finditer(record.message):
                logged_frames.add((match["file"], match["function"]))
            for exc_name in re.findall(r"\b(\w+Exception)\b", record.message):
                exception_types.add(exc_name)
        queue: list[FaultInstance] = []
        for env_call in sorted(
            context.model.env_calls, key=lambda call: call.site_id
        ):
            file_base = env_call.file.rsplit("/", 1)[-1]
            if (file_base, env_call.function_name) not in logged_frames:
                continue
            for exc_type in env_call.exception_types:
                if exception_types and exc_type not in exception_types:
                    continue
                for event in context.instances_of(env_call.site_id) or []:
                    queue.append(
                        FaultInstance(env_call.site_id, exc_type, event.occurrence)
                    )
                if not context.instances_of(env_call.site_id):
                    queue.append(FaultInstance(env_call.site_id, exc_type, 1))
        return queue


class RandomInjector(_StaticOrderStrategy):
    """Chaos-style: uniformly random dynamic fault instances."""

    name = "random"

    def __init__(self, seed: int = 1) -> None:
        self._rng = random.Random(seed)

    def build_queue(self, context: SearchContext):
        space: list[FaultInstance] = []
        for env_call in context.model.env_calls:
            events = context.instances_of(env_call.site_id)
            occurrences = [event.occurrence for event in events] or [1]
            for exc_type in env_call.exception_types:
                for occurrence in occurrences:
                    space.append(
                        FaultInstance(env_call.site_id, exc_type, occurrence)
                    )
        self._rng.shuffle(space)
        return space
