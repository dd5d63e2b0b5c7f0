"""Concurrency rule pack: lock ordering and cross-task shared state.

Three rules built on the flow pass's cross-thread edges and the
owner-tracked call facts (``CallFact.owner``):

* ``lock-order-inversion`` — two locks acquired in opposite orders on
  two code paths.  Under concurrent execution the paths can deadlock
  (the classic ABBA shape; HBASE-22539's split-WAL hang).
* ``await-under-lock`` — blocking on a queue, future, or task join
  while holding a lock.  If the unblocking party needs the same lock,
  the system wedges; even when it does not, the lock's hold time is
  unbounded.
* ``handler-unsync-write`` — a handler path mutates a variable that a
  function on a *different task* branches on, with no lock held.  The
  recovery action races with the reader: the paper's minicluster bugs
  where a handler flips a flag the main loop is concurrently testing.

Lock identity is the receiver name of ``acquire()``/``release()`` calls
(``self.wal_lock.acquire()`` -> ``wal_lock``), so the matching stays
name-based and conservative like the rest of the catalog.  None of the
rules implicate fault sites (``site_ids`` is always empty): deadlocks
and races are not injectable env faults, so these findings inform the
human report without naming a site a fault could be injected at.
"""

from __future__ import annotations

from ..flow import FlowAnalysis, task_root_closure
from .base import Finding, LintContext, rule

RELEASE_CALLEES = frozenset({"release", "force_release"})

#: Callee names that block the current task until another task acts.
BLOCKING_CALLEES = frozenset({"get", "join", "wait", "await_result", "result"})


def _lock_calls(ctx: LintContext, qualname: str):
    """This function's acquire/release calls with a known lock name."""
    return sorted(
        (
            call
            for call in ctx.model.calls_in(qualname)
            if call.owner
            and (call.callee == "acquire" or call.callee in RELEASE_CALLEES)
        ),
        key=lambda call: call.line,
    )


def _held_before(lock_calls, line: int) -> list[str]:
    """Lock names held just before ``line``, in acquisition order."""
    held: list[str] = []
    for call in lock_calls:
        if call.line >= line:
            break
        if call.callee == "acquire":
            if call.owner not in held:
                held.append(call.owner)
        elif call.owner in held:
            held.remove(call.owner)
    return held


def _queue_owners(ctx: LintContext) -> frozenset[str]:
    """Receiver names that are fed by a ``put`` somewhere in the package.

    Used to tell a queue's blocking ``get`` apart from a dict lookup:
    only receivers something enqueues into count.
    """
    return frozenset(
        call.owner
        for call in ctx.model.calls
        if call.owner and call.callee in ("put", "put_nowait")
    )


@rule(
    "lock-order-inversion",
    "two locks acquired in opposite orders on different code paths",
)
def check_lock_order(ctx: LintContext) -> list[Finding]:
    # Acquisition-order edges: holding A while acquiring B records A->B.
    edges: dict[tuple[str, str], list] = {}
    for fn in ctx.model.functions:
        lock_calls = _lock_calls(ctx, fn.qualname)
        for call in lock_calls:
            if call.callee != "acquire":
                continue
            for held in _held_before(lock_calls, call.line):
                if held != call.owner:
                    edges.setdefault((held, call.owner), []).append(call)
    findings: list[Finding] = []
    for (first, second), acquires in sorted(edges.items()):
        if (second, first) not in edges:
            continue
        for call in acquires:
            findings.append(
                Finding(
                    rule="lock-order-inversion",
                    severity="error",
                    file=call.file,
                    line=call.line,
                    function=call.caller,
                    message=(
                        f"acquires {second!r} while holding {first!r}, but "
                        f"another path acquires them in the opposite order; "
                        f"concurrent execution can deadlock"
                    ),
                )
            )
    return findings


@rule(
    "await-under-lock",
    "blocking on a queue/future/join while holding a lock",
)
def check_await_under_lock(ctx: LintContext) -> list[Finding]:
    queue_owners = _queue_owners(ctx)
    findings: list[Finding] = []
    for fn in ctx.model.functions:
        lock_calls = _lock_calls(ctx, fn.qualname)
        if not any(call.callee == "acquire" for call in lock_calls):
            continue
        for call in sorted(ctx.model.calls_in(fn.qualname), key=lambda c: c.line):
            if call.callee not in BLOCKING_CALLEES:
                continue
            # A bare .get() only blocks when the receiver is a queue.
            if call.callee == "get" and call.owner not in queue_owners:
                continue
            held = _held_before(lock_calls, call.line)
            if not held:
                continue
            receiver = f"{call.owner}." if call.owner else ""
            findings.append(
                Finding(
                    rule="await-under-lock",
                    severity="error",
                    file=call.file,
                    line=call.line,
                    function=call.caller,
                    message=(
                        f"blocks on {receiver}{call.callee}() while holding "
                        f"lock(s) {', '.join(repr(name) for name in held)}; "
                        f"the unblocking task may need the same lock"
                    ),
                )
            )
    return findings


@rule(
    "handler-unsync-write",
    "handler path writes shared state another task reads, without a lock",
)
def check_handler_unsync_write(ctx: LintContext) -> list[Finding]:
    model = ctx.model
    graph = FlowAnalysis(model).build()
    closures = task_root_closure(model, graph)
    # function qualname -> the task roots it can run under.
    roots_of: dict[str, set[str]] = {}
    for root, members in closures.items():
        for member in members:
            roots_of.setdefault(member, set()).add(root)

    def concurrent(first: str, second: str) -> bool:
        """Can the two functions execute on different tasks?"""
        first_roots = roots_of.get(first, set())
        second_roots = roots_of.get(second, set())
        if first_roots and second_roots:
            return bool(
                (first_roots | second_roots) - (first_roots & second_roots)
            ) or len(first_roots & second_roots) > 1
        # One side under a spawned task, the other outside every task
        # closure (e.g. the workload's main loop): still concurrent.
        return bool(first_roots) != bool(second_roots)

    # Variables some function branches on, per function.
    condition_readers: dict[str, set[str]] = {}
    for condition in model.conditions:
        for variable in condition.variables:
            condition_readers.setdefault(variable, set()).add(condition.function)

    findings: list[Finding] = []
    for try_fact in model.trys:
        for handler in try_fact.handlers:
            lock_calls = _lock_calls(ctx, handler.function)
            for assign in ctx.assigns_in_span(*ctx.handler_span(handler)):
                if assign.function != handler.function:
                    continue
                if _held_before(lock_calls, assign.line):
                    continue
                for variable in assign.targets:
                    readers = condition_readers.get(variable, set())
                    racing = sorted(
                        reader
                        for reader in readers
                        if reader != handler.function
                        and concurrent(handler.function, reader)
                    )
                    if not racing:
                        continue
                    findings.append(
                        Finding(
                            rule="handler-unsync-write",
                            severity="warning",
                            file=assign.file,
                            line=assign.line,
                            function=handler.function,
                            message=(
                                f"handler writes {variable!r} without a lock "
                                f"while {racing[0]} (on another task) branches "
                                f"on it; the recovery races with the reader"
                            ),
                        )
                    )
    return findings
