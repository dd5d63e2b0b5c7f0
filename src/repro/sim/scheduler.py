"""Deterministic discrete-event scheduler with generator-based tasks.

The simulator is the substrate under every mini distributed system.  A
"thread" is a Python generator; it blocks by yielding *effects* (sleeps,
condition waits, queue operations, futures) that the scheduler interprets.
Virtual time only advances when every runnable task has run, so a run is a
pure function of (workload, seed, injection plan) — the determinism that
lets ANDURIL's reproduction scripts replay a failure exactly.

Hang symptoms matter to the paper (stuck WAL rollers, blocked repairs), so
the scheduler records which tasks are still blocked when the run ends and
can capture a virtual stack (the ``yield from`` chain) for each, which
oracles match the way a developer matches a jstack dump.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import functools
import heapq
import operator
import random
import traceback
from typing import Any, Callable, Generator, Iterable, Optional

from .errors import InterruptedException

TaskGen = Generator[Any, Any, Any]


class TaskState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"
    KILLED = "killed"


@dataclasses.dataclass(frozen=True, slots=True)
class StackFrame:
    """One frame of a task's virtual stack."""

    file: str
    line: int
    function: str

    def __str__(self) -> str:
        return f"{self.function} ({self.file}:{self.line})"


class Sleep:
    """Effect: suspend the task for ``delay`` virtual seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError("sleep delay must be non-negative")
        self.delay = delay

    def subscribe(self, sim: "Simulator", task: "Task") -> None:
        task._timer = sim.resume_at(sim.now + self.delay, task)


class Task:
    """A named simulated thread wrapping a generator."""

    __slots__ = (
        "name",
        "gen",
        "state",
        "result",
        "error",
        "error_traceback",
        "waiting_on",
        "_parked_in",
        "_timer",
        "_watchers",
    )

    def __init__(self, name: str, gen: TaskGen) -> None:
        self.name = name
        self.gen = gen
        self.state = TaskState.READY
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.error_traceback: str = ""
        #: The effect the task last yielded: what it is blocked on while
        #: ``BLOCKED``; ``None`` before its first yield and once finished.
        self.waiting_on: Any = None
        #: The park record, set by the effect's ``subscribe`` and undone on
        #: every wakeup (signal, timeout, interrupt, kill): the waiter
        #: collection the task sits in, and the queue entry of its pending
        #: timed wakeup.  Both are ``None`` whenever the task is not blocked.
        self._parked_in: Any = None
        self._timer: Optional[list] = None
        #: Callbacks to run when the task finishes (used by join()).
        self._watchers: list[Callable[["Task"], None]] = []

    def __repr__(self) -> str:
        return f"<Task {self.name} {self.state.value}>"

    @property
    def alive(self) -> bool:
        return self.state in (TaskState.READY, TaskState.RUNNING, TaskState.BLOCKED)

    def virtual_stack(self) -> list[StackFrame]:
        """The task's current ``yield from`` chain, outermost first."""
        frames: list[StackFrame] = []
        gen = self.gen
        while gen is not None:
            frame = getattr(gen, "gi_frame", None)
            if frame is not None:
                frames.append(
                    StackFrame(
                        file=frame.f_code.co_filename,
                        line=frame.f_lineno,
                        function=frame.f_code.co_name,
                    )
                )
            gen = getattr(gen, "gi_yieldfrom", None)
        return frames

    def stack_functions(self) -> list[str]:
        return [frame.function for frame in self.virtual_stack()]

    def blocked_in(self, function: str) -> bool:
        """Whether the task is blocked with ``function`` on its stack."""
        return self.state is TaskState.BLOCKED and function in self.stack_functions()


class Join:
    """Effect: wait for another task to finish; yields its result."""

    __slots__ = ("task",)

    def __init__(self, task: Task) -> None:
        self.task = task

    def subscribe(self, sim: "Simulator", waiter: Task) -> None:
        if not self.task.alive:
            # The task already finished, so its result is final.
            sim.resume_soon(waiter, value=self.task.result)
            return

        def on_done(done: Task) -> None:
            sim._resume(waiter, value=done.result)

        self.task._watchers.append(on_done)


#: Queue-entry sentinel marking a task wakeup scheduled by ``resume_at``.
#: The run loop wakes, steps and parks the task in its own body instead of
#: through a per-wakeup closure — wakeups are by far the most common event.
_RESUME: Any = object()

_BLOCKED = TaskState.BLOCKED
_READY = TaskState.READY
_RUNNING = TaskState.RUNNING


class Simulator:
    """Deterministic event loop over virtual time."""

    def __init__(self, seed: int = 0) -> None:
        self.now = 0.0
        self.random = random.Random(seed)
        self.current_task: Optional[Task] = None
        self.tasks: list[Task] = []
        #: Queue entries popped by :meth:`run`, cancelled ones included (a
        #: cancelled timer is still popped and counted; only what it would
        #: have done is skipped).  A pure function of ``(workload, seed,
        #: plan)`` and of nothing in the kernel's implementation: it is the
        #: ``sim.events_executed`` recorder counter and the numerator of
        #: the benchmark's ``sim.events_per_s``, so a kernel change may
        #: make events cheaper but never fewer.
        self.events_executed = 0
        #: Entries are 6-slot lists ``[when, seq, fn, task, value, exc]``:
        #: ``fn`` is ``_RESUME`` for a task wakeup (slots 3–5 say whom and
        #: with what), a callable for a ``call_at`` callback (slot 3 holds
        #: its argument tuple), and ``None`` once cancelled.  Slot 2 is the
        #: only slot ever mutated, and only to ``None``: by the canceller
        #: ``call_at`` returns, or — for the entry ``resume_at`` hands back
        #: — by whoever undoes the park record that holds it.  ``seq`` is
        #: unique, so heap comparisons never reach the non-orderable slots.
        self._heap: list[list] = []
        #: Entries due at ``now``, FIFO, with no ``seq`` (DESIGN §2.1):
        #: each was scheduled after time reached ``now``, so it follows
        #: every heap entry due at ``now`` (:meth:`run` moves those here
        #: first), which is exactly ``(when, seq)`` order.
        self._ready: collections.deque[list] = collections.deque()
        self._seq = 0
        self._crash_handlers: list[Callable[[Task], None]] = []

    # ------------------------------------------------------------------ events

    def post_at(self, when: float, fn: Callable[..., None], *args: Any) -> list:
        """:meth:`call_at` without building a canceller; returns the entry."""
        if when <= self.now:
            entry = [self.now, 0, fn, args, None, None]
            self._ready.append(entry)
            return entry
        self._seq += 1
        entry = [when, self._seq, fn, args, None, None]
        heapq.heappush(self._heap, entry)
        return entry

    def call_at(
        self, when: float, fn: Callable[..., None], *args: Any
    ) -> Callable[[], None]:
        """Schedule ``fn(*args)`` at virtual time ``when``; returns a canceller."""
        entry = self.post_at(when, fn, *args)
        return functools.partial(operator.setitem, entry, 2, None)

    def call_soon(self, fn: Callable[..., None], *args: Any) -> Callable[[], None]:
        return self.call_at(self.now, fn, *args)

    def resume_at(
        self,
        when: float,
        task: Task,
        value: Any = None,
        exc: Optional[BaseException] = None,
    ) -> list:
        """Schedule a wakeup of ``task`` with ``value`` (or ``exc`` thrown).

        Returns the queue entry, which is the cancellation handle:
        ``entry[2] = None`` revokes the wakeup (the entry is still popped
        and counted).
        """
        if when <= self.now:
            return self.resume_soon(task, value, exc)
        self._seq += 1
        entry = [when, self._seq, _RESUME, task, value, exc]
        heapq.heappush(self._heap, entry)
        return entry

    def resume_soon(
        self,
        task: Task,
        value: Any = None,
        exc: Optional[BaseException] = None,
    ) -> list:
        entry = [self.now, 0, _RESUME, task, value, exc]
        self._ready.append(entry)
        return entry

    def pending_events(self) -> int:
        """Entries still queued, heap and ready alike, cancelled ones
        included: what a run cut short leaves undispatched."""
        return len(self._heap) + len(self._ready)

    # ------------------------------------------------------------------- tasks

    def spawn(self, name: str, gen: TaskGen) -> Task:
        """Register a generator as a named task and schedule its first step."""
        if not hasattr(gen, "send"):
            raise TypeError(f"spawn() expects a generator, got {type(gen).__name__}")
        task = Task(name, gen)
        self.tasks.append(task)
        self.post_at(self.now, self._step, task)
        return task

    def on_task_crash(self, handler: Callable[[Task], None]) -> None:
        """Register a handler invoked when a task dies of an unhandled error."""
        self._crash_handlers.append(handler)

    def interrupt(self, task: Task) -> None:
        """Throw :class:`InterruptedException` into a blocked task."""
        self._resume(task, exc=InterruptedException(f"{task.name} interrupted"))

    def kill(self, task: Task) -> None:
        """Terminate a task without running its handlers (crash analog)."""
        if not task.alive:
            return
        self._unpark(task)
        task.state = TaskState.KILLED
        task.gen.close()
        self._notify_watchers(task)

    # -------------------------------------------------------------------- run

    def run(self, until: float, monitor=None) -> bool:
        """Run events until the queue drains or virtual ``until`` is reached.

        ``monitor`` (a :class:`repro.core.verdict.VerdictMonitor`) is
        polled after each dispatched event; when it reports the verdict
        decided, the loop exits *without* advancing ``now`` to ``until``
        and returns ``True``.

        A task wakeup is dispatched in the loop body itself — undo the
        park record, ``send`` into the generator, let the yielded effect
        park the task again — so the common event costs one ready-queue
        pop, one generator step and one ``subscribe``; everything rarer (a
        task finishing or crashing, a non-effect yielded) goes through the
        same helpers :meth:`_step` uses.  Time advances only when the
        ready queue is empty, and the heap's entries due then join it.
        """
        if self.now > until:
            return False
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        should_stop = None if monitor is None else monitor.should_stop
        while True:
            if ready:
                entry = popleft()
            elif heap and heap[0][0] <= until:
                entry = pop(heap)
                now = self.now = entry[0]
                while heap and heap[0][0] == now:
                    ready.append(pop(heap))
            else:
                break
            self.events_executed += 1
            fn = entry[2]
            if fn is None:
                continue
            if fn is not _RESUME:
                fn(*entry[3])
            else:
                task = entry[3]
                if task.state is _BLOCKED:
                    if task._parked_in is not None or task._timer is not None:
                        self._unpark(task)
                    self.current_task = task
                    task.state = _RUNNING
                    try:
                        exc = entry[5]
                        if exc is None:
                            effect = task.gen.send(entry[4])
                        else:
                            effect = task.gen.throw(exc)
                    except BaseException as error:  # noqa: BLE001 - task end
                        self._finish(task, error)
                    else:
                        task.state = _BLOCKED
                        task.waiting_on = effect
                        try:
                            subscribe = effect.subscribe
                        except AttributeError:
                            self._reject(task, effect)
                        else:
                            subscribe(self, task)
                    self.current_task = None
            if should_stop is not None and should_stop():
                return True
        self.now = max(self.now, until)
        return False

    def blocked_tasks(self) -> list[Task]:
        return [task for task in self.tasks if task.state is TaskState.BLOCKED]

    def failed_tasks(self) -> list[Task]:
        return [task for task in self.tasks if task.state is TaskState.FAILED]

    # --------------------------------------------------------------- internals

    def _resume(
        self,
        task: Task,
        value: Any = None,
        exc: Optional[BaseException] = None,
    ) -> None:
        """Wake a blocked task *now*, from inside another event (``Join``
        completion, ``interrupt``); scheduled wakeups never come here."""
        if task.state is not _BLOCKED:
            return  # raced with another wakeup (e.g. timeout vs signal)
        self._unpark(task)
        task.state = _READY
        self._step(task, value, exc)

    def _step(
        self,
        task: Task,
        value: Any = None,
        exc: Optional[BaseException] = None,
    ) -> None:
        """Advance the task's generator by one yield (a task's first step,
        and the nested steps of :meth:`_resume`; :meth:`run` steps woken
        tasks itself)."""
        if task.state is not _READY:
            return  # killed before it ever ran
        previous = self.current_task
        self.current_task = task
        task.state = _RUNNING
        try:
            if exc is not None:
                effect = task.gen.throw(exc)
            else:
                effect = task.gen.send(value)
        except BaseException as error:  # noqa: BLE001 - task end
            self._finish(task, error)
        else:
            task.state = _BLOCKED
            task.waiting_on = effect
            try:
                subscribe = effect.subscribe
            except AttributeError:
                self._reject(task, effect)
            else:
                subscribe(self, task)
        self.current_task = previous

    def _unpark(self, task: Task) -> None:
        """Undo the park record: leave the waiter collection, revoke the
        timed wakeup.  The one place either is undone, whoever wakes the
        task; a signaller that already popped the task, or a timer that is
        the entry being dispatched, makes its half a no-op."""
        waiters = task._parked_in
        if waiters is not None:
            task._parked_in = None
            if task in waiters:
                waiters.remove(task)
        timer = task._timer
        if timer is not None:
            task._timer = None
            timer[2] = None

    def _finish(self, task: Task, error: BaseException) -> None:
        """The generator ended: by returning, or by an unhandled error.

        Runs with ``current_task`` still set, so crash handlers (and the
        records they log) are attributed to the crashing task.
        """
        task.waiting_on = None
        if isinstance(error, StopIteration):
            task.state = TaskState.DONE
            task.result = error.value
        else:
            task.state = TaskState.FAILED
            task.error = error
            task.error_traceback = traceback.format_exc()
            for handler in self._crash_handlers:
                handler(task)
        self._notify_watchers(task)

    def _reject(self, task: Task, effect: Any) -> None:
        task.state = TaskState.FAILED
        task.error = TypeError(f"task {task.name} yielded {effect!r}")
        self._notify_watchers(task)

    def _notify_watchers(self, task: Task) -> None:
        watchers, task._watchers = task._watchers, []
        for watcher in watchers:
            watcher(task)


def stuck_report(tasks: Iterable[Task]) -> str:
    """Human-readable report of blocked tasks (a jstack analog)."""
    lines = []
    for task in tasks:
        lines.append(f'Thread "{task.name}" BLOCKED')
        for frame in task.virtual_stack():
            lines.append(f"    at {frame}")
    return "\n".join(lines)
