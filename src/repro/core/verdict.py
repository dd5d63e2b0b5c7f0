"""Early-verdict oracle cutoff: incremental verdict monitoring (DESIGN §13).

Oracles are normally evaluated post-hoc on a finished :class:`RunResult`,
so every run grinds ``sim.run(until=horizon)`` through the entire
post-injection remainder even when the symptom locked in long before the
horizon.  This module compiles an :class:`~repro.core.oracle.Oracle` tree
into an incremental **VerdictMonitor** with three-valued (Kleene) state:
each node is ``True``, ``False``, or ``None`` (undecided), and the event
loop may stop the moment the *root* is decided ``True``.

Soundness rests on per-leaf monotonicity classes:

* ``LogMessageOracle`` / ``CrashedTaskOracle`` latch ``True`` from in-run
  watchpoints (a log-emission hook on the collector, a task-failure hook
  off the scheduler's crash path).  A matching record or crash can never
  be unwritten, so the latch is final.
* ``StatePredicateOracle`` latches only when the case *declared* its
  predicate monotone (set-once flags, increasing counters — audited at
  the declaration site).  Undeclared predicates stay undecided: partial
  state could satisfy a predicate the final state would not.
* ``StuckTaskOracle`` (and unknown ``Oracle`` subclasses) never decide
  mid-run — "blocked at the end of the run" is a property of the final
  schedule, unknowable before quiescence.
* ``AllOf``/``AnyOf``/``Not`` compose verdicts Kleene-style, so e.g. an
  ``AnyOf`` is decided on the first latched branch and a ``Not`` over a
  latchable subtree can decide ``False`` (which may decide an enclosing
  tree ``True``).

Because leaves only move ``None -> True`` and everything above them is a
monotone Kleene combination, a decided node can never flip — the root
verdict is prefix-monotone, which is exactly what makes cutoff legal:
the remainder of the run provably cannot change the outcome.

Cutoff fires **only** when the root is ``True`` (the failure reproduced).
Unsatisfied runs always execute to the horizon, so the log-diff feedback
loop — which must see the full log of a non-reproducing run — is
untouched by construction.  A second gate keeps injection accounting
truthful: when the active plan carries candidate instances, cutoff waits
until the injection actually fired, so ``injected``/``injected_instance``
and fault-space coverage never describe a run whose injection was still
pending.

:func:`compile_cutoff` is the entry point: it returns ``None`` whenever
the oracle can never be decided early (a pure stuck-task oracle, say), in
which case callers skip monitoring entirely and pay zero overhead.  The
compiled form also carries a stable ``key`` digest of the oracle's spec
tree, so the run cache can segregate truncated entries under a
monitor-specific key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
from typing import Any, Callable, Optional

from . import oracle as _oracle

__all__ = [
    "CompiledVerdict",
    "VerdictMonitor",
    "compile_cutoff",
    "monitor_key",
    "oracle_spec",
]


# --------------------------------------------------------------------- spec
#
# A spec is a nested tuple mirroring the oracle tree, built from exact
# leaf types (subclasses with overridden ``satisfied`` become opaque —
# we cannot know what they observe, so we must not latch for them):
#
#   ("log", pattern, level)
#   ("crash", task_prefix, error_type)
#   ("stuck", function, task_prefix)
#   ("state", description, monotone)
#   ("all", (spec, ...)) / ("any", (spec, ...)) / ("not", spec)
#   ("opaque", class_name, description)
#
# Specs contain only primitives, so they hash stably into the cache's
# monitor key.


def oracle_spec(node: "_oracle.Oracle") -> tuple:
    """The picklable spec tree for an oracle (exact-type dispatch)."""
    kind = type(node)
    if kind is _oracle.LogMessageOracle:
        return ("log", node._regex.pattern, node._level)
    if kind is _oracle.CrashedTaskOracle:
        return ("crash", node._task_prefix, node._error_type)
    if kind is _oracle.StuckTaskOracle:
        return ("stuck", node._function, node._task_prefix)
    if kind is _oracle.StatePredicateOracle:
        return ("state", node.description, bool(node.monotone))
    if kind is _oracle.AllOf:
        return ("all", tuple(oracle_spec(sub) for sub in node._oracles))
    if kind is _oracle.AnyOf:
        return ("any", tuple(oracle_spec(sub) for sub in node._oracles))
    if kind is _oracle.Not:
        return ("not", oracle_spec(node._oracle))
    return ("opaque", kind.__name__, getattr(node, "description", ""))


def monitor_key(spec: tuple) -> str:
    """A short stable digest of a spec (cache-key extension for
    truncated entries; identical in every process)."""
    return hashlib.sha256(repr(spec).encode("utf-8")).hexdigest()[:16]


def _can_true(spec: tuple) -> bool:
    """Whether this subtree can ever be decided ``True`` mid-run."""
    kind = spec[0]
    if kind in ("log", "crash"):
        return True
    if kind == "state":
        return bool(spec[2])
    if kind == "not":
        return _can_false(spec[1])
    if kind == "all":
        return all(_can_true(sub) for sub in spec[1])
    if kind == "any":
        return any(_can_true(sub) for sub in spec[1])
    return False  # stuck / opaque


def _can_false(spec: tuple) -> bool:
    """Whether this subtree can ever be decided ``False`` mid-run.

    Leaves never can: they latch ``True`` or stay undecided (absence is
    only provable at the horizon).  Only a ``Not`` over a latchable
    subtree introduces ``False``.
    """
    kind = spec[0]
    if kind == "not":
        return _can_true(spec[1])
    if kind == "all":
        return any(_can_false(sub) for sub in spec[1])
    if kind == "any":
        return all(_can_false(sub) for sub in spec[1])
    return False


# ------------------------------------------------------------ runtime nodes


class _Leaf:
    """A latching leaf: ``value`` moves ``None -> True`` at most once."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[bool] = None

    def evaluate(self) -> Optional[bool]:
        return self.value


class _LogLeaf(_Leaf):
    __slots__ = ("regex", "level")

    def __init__(self, pattern: str, level: Optional[str]) -> None:
        super().__init__()
        self.regex = re.compile(pattern)
        self.level = level

    def matches(self, record) -> bool:
        if self.level is not None and record.level.name != self.level:
            return False
        return self.regex.search(record.message) is not None


class _CrashLeaf(_Leaf):
    __slots__ = ("prefix", "error_type")

    def __init__(self, prefix: str, error_type: str) -> None:
        super().__init__()
        self.prefix = prefix
        self.error_type = error_type

    def matches(self, task) -> bool:
        if not task.name.startswith(self.prefix):
            return False
        if self.error_type:
            return type(task.error).__name__ == self.error_type
        return True


class _StateLeaf(_Leaf):
    __slots__ = ("predicate",)

    def __init__(self, predicate: Callable[[dict], bool]) -> None:
        super().__init__()
        self.predicate = predicate


class _OpaqueLeaf(_Leaf):
    """Never latches (stuck / non-monotone state / unknown oracles)."""

    __slots__ = ()


class _NotNode:
    __slots__ = ("child",)

    def __init__(self, child) -> None:
        self.child = child

    def evaluate(self) -> Optional[bool]:
        value = self.child.evaluate()
        return None if value is None else (not value)


class _AllNode:
    __slots__ = ("children",)

    def __init__(self, children) -> None:
        self.children = list(children)

    def evaluate(self) -> Optional[bool]:
        decided = True
        for child in self.children:
            value = child.evaluate()
            if value is False:
                return False
            if value is not True:
                decided = False
        return True if decided else None


class _AnyNode:
    __slots__ = ("children",)

    def __init__(self, children) -> None:
        self.children = list(children)

    def evaluate(self) -> Optional[bool]:
        decided = True
        for child in self.children:
            value = child.evaluate()
            if value is True:
                return True
            if value is not False:
                decided = False
        return False if decided else None


class _ObservedState(dict):
    """``cluster.state`` replacement that tells the monitor on mutation.

    Systems alias ``cluster.state`` directly at build time, so the swap
    happens at attach — before ``workload(cluster)`` runs — and every
    publish through ``[]=``/``update``/``setdefault`` is observed.  Other
    mutators (``pop``, nested-value mutation) are not hooked; missing a
    notification only delays a latch, never fabricates one.
    """

    __slots__ = ("_monitor",)

    def __init__(self, monitor: "VerdictMonitor") -> None:
        super().__init__()
        self._monitor = monitor

    def __setitem__(self, key, value) -> None:
        dict.__setitem__(self, key, value)
        self._monitor._on_state(self)

    def update(self, *args, **kwargs) -> None:
        dict.update(self, *args, **kwargs)
        self._monitor._on_state(self)

    def setdefault(self, key, default=None):
        value = dict.setdefault(self, key, default)
        self._monitor._on_state(self)
        return value


# ----------------------------------------------------------------- monitor


class VerdictMonitor:
    """Incremental oracle evaluation over one run.

    Attach to a fresh :class:`~repro.sim.cluster.Cluster` *before* the
    workload builds the system, then pass to ``cluster.run(horizon,
    monitor=...)``.  The scheduler polls :meth:`should_stop` after each
    dispatched event; the poll is two attribute reads while nothing has
    latched since the last poll.
    """

    __slots__ = (
        "key",
        "_root",
        "_log_leaves",
        "_crash_leaves",
        "_state_leaves",
        "_fir",
        "_dirty",
        "_decided",
        "_cutoff_enabled",
    )

    def __init__(
        self, root, log_leaves, crash_leaves, state_leaves, key: str
    ) -> None:
        self.key = key
        self._root = root
        self._log_leaves = list(log_leaves)
        self._crash_leaves = list(crash_leaves)
        self._state_leaves = list(state_leaves)
        self._fir = None
        # Evaluate once on the first poll even with nothing latched:
        # degenerate trees (an empty AllOf) are decided at time zero.
        self._dirty = True
        self._decided = False
        self._cutoff_enabled = True

    # ------------------------------------------------------------- wiring

    def attach(self, cluster) -> None:
        """Install watchpoints on a fresh cluster (pre-workload)."""
        self._fir = cluster.fir
        if self._log_leaves:
            cluster.collector.add_listener(self._on_log)
        if self._crash_leaves:
            # Registered after Cluster._log_crash, so the crash record is
            # already in the log when log leaves are re-checked.
            cluster.sim.on_task_crash(self._on_crash)
        if self._state_leaves:
            observed = _ObservedState(self)
            observed.update(cluster.state)
            cluster.state = observed

    def enable_cutoff(self) -> None:
        self._cutoff_enabled = True

    def disable_cutoff(self) -> None:
        """Keep watchpoints latching but never stop the run (used by the
        checkpoint holder: its fault-free prefix must reach the park
        point even when the verdict is already decided)."""
        self._cutoff_enabled = False

    # -------------------------------------------------------- watchpoints

    def _on_log(self, record) -> None:
        for leaf in self._log_leaves:
            if leaf.value is None and leaf.matches(record):
                leaf.value = True
                self._dirty = True

    def _on_crash(self, task) -> None:
        for leaf in self._crash_leaves:
            if leaf.value is None and leaf.matches(task):
                leaf.value = True
                self._dirty = True

    def _on_state(self, state: dict) -> None:
        for leaf in self._state_leaves:
            if leaf.value is None:
                try:
                    latched = bool(leaf.predicate(state))
                except Exception:
                    # Partial state may raise (missing keys) where the
                    # final state would not; treat as not-yet-latched.
                    latched = False
                if latched:
                    leaf.value = True
                    self._dirty = True

    # ------------------------------------------------------------ verdict

    def verdict(self) -> Optional[bool]:
        """The current Kleene verdict (``None`` = undecided)."""
        return self._root.evaluate()

    @property
    def decided(self) -> bool:
        return self._decided

    def should_stop(self) -> bool:
        """Scheduler poll: stop now iff the verdict is decided ``True``
        and cutoff is both enabled and injection-truthful."""
        if not self._decided:
            if not self._dirty:
                return False
            self._dirty = False
            if self._root.evaluate() is not True:
                return False
            self._decided = True
        if not self._cutoff_enabled:
            return False
        fir = self._fir
        if fir is None:
            return True
        plan = fir.plan
        # Injection-truthfulness gate: with candidate instances pending,
        # wait for the injection to fire so the truncated result's
        # injected/injected_instance/coverage view matches the full run's.
        return plan is None or not plan.instances or fir.fired is not None


# ---------------------------------------------------------------- builders


def _build_from_oracle(node: "_oracle.Oracle", logs, crashes, states):
    kind = type(node)
    if kind is _oracle.LogMessageOracle:
        leaf = _LogLeaf(node._regex.pattern, node._level)
        logs.append(leaf)
        return leaf
    if kind is _oracle.CrashedTaskOracle:
        leaf = _CrashLeaf(node._task_prefix, node._error_type)
        crashes.append(leaf)
        return leaf
    if kind is _oracle.StatePredicateOracle and node.monotone:
        leaf = _StateLeaf(node._predicate)
        states.append(leaf)
        return leaf
    if kind is _oracle.AllOf:
        return _AllNode(
            _build_from_oracle(sub, logs, crashes, states)
            for sub in node._oracles
        )
    if kind is _oracle.AnyOf:
        return _AnyNode(
            _build_from_oracle(sub, logs, crashes, states)
            for sub in node._oracles
        )
    if kind is _oracle.Not:
        return _NotNode(_build_from_oracle(node._oracle, logs, crashes, states))
    return _OpaqueLeaf()  # stuck / non-monotone state / unknown subclass


@dataclasses.dataclass(frozen=True)
class CompiledVerdict:
    """A compiled oracle: a monitor factory plus its cache key."""

    factory: Callable[[], VerdictMonitor]
    key: str


def compile_cutoff(oracle: "_oracle.Oracle") -> Optional[CompiledVerdict]:
    """Compile ``oracle`` for early cutoff, or ``None`` when its verdict
    can never be decided mid-run (callers then skip monitoring and pay
    nothing)."""
    spec = oracle_spec(oracle)
    if not _can_true(spec):
        return None
    key = monitor_key(spec)

    def factory() -> VerdictMonitor:
        logs: list = []
        crashes: list = []
        states: list = []
        root = _build_from_oracle(oracle, logs, crashes, states)
        return VerdictMonitor(root, logs, crashes, states, key)

    return CompiledVerdict(factory=factory, key=key)
