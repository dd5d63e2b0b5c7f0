"""Synchronization primitives for simulated tasks.

All primitives are effects: a task blocks by ``yield``-ing the object the
primitive returns.  Wakeups are always scheduled through ``resume_soon`` so
that execution never recurses through generator frames, keeping the run
order a deterministic function of the event queue.

An effect that has to block *parks* the task: it appends the task to the
primitive's FIFO waiter deque (a plain list on :class:`Future`, which only
ever wakes everyone) and records that collection, and the heap entry of a
timeout if any, on the task — ``Task._parked_in`` / ``Task._timer``.
That record is plain data; ``Simulator._unpark`` undoes it on any wakeup.
Signallers just ``popleft`` the next waiter and ``resume_soon`` it.

The :class:`Future`/:class:`Executor` pair matters beyond plumbing: the
paper's exception analysis explicitly models cross-thread exception
propagation through futures (§4.1), and several failure cases hinge on a
fault thrown inside a submitted job surfacing as an ``ExecutionException``
at the waiting thread.
"""

from __future__ import annotations

import collections
from typing import Any, Callable, Generator, Optional

from .errors import ExecutionException, IllegalStateException
from .scheduler import Simulator, Task


class Condition:
    """Java-style condition variable.

    ``wait(timeout)`` yields ``True`` when signaled and ``False`` on
    timeout — the shape of ``Condition.await(long)`` that the motivating
    HBase example's ``doneCondition.await(timeoutNs)`` relies on.
    """

    def __init__(self, sim: Simulator, name: str = "cond") -> None:
        self._sim = sim
        self.name = name
        self._waiters: collections.deque[Task] = collections.deque()

    def wait(self, timeout: Optional[float] = None) -> "_ConditionWait":
        return _ConditionWait(self, timeout)

    def notify_all(self) -> None:
        waiters = self._waiters
        while waiters:
            self._sim.resume_soon(waiters.popleft(), True)

    def notify(self) -> None:
        if self._waiters:
            self._sim.resume_soon(self._waiters.popleft(), True)


class _ConditionWait:
    __slots__ = ("_condition", "_timeout")

    def __init__(self, condition: Condition, timeout: Optional[float]) -> None:
        self._condition = condition
        self._timeout = timeout

    def subscribe(self, sim: Simulator, task: Task) -> None:
        task._parked_in = waiters = self._condition._waiters
        waiters.append(task)
        if self._timeout is not None:
            task._timer = sim.resume_at(sim.now + self._timeout, task, False)


class Lock:
    """Non-reentrant mutual exclusion."""

    def __init__(self, sim: Simulator, name: str = "lock") -> None:
        self._sim = sim
        self.name = name
        self._holder: Optional[Task] = None
        self._waiters: collections.deque[Task] = collections.deque()

    @property
    def held(self) -> bool:
        return self._holder is not None

    @property
    def holder_name(self) -> Optional[str]:
        return self._holder.name if self._holder else None

    def acquire(self) -> "_LockAcquire":
        return _LockAcquire(self)

    def release(self) -> None:
        if self._holder is None:
            raise IllegalStateException(f"lock {self.name} released while free")
        self._holder = None
        if self._waiters:
            self._holder = task = self._waiters.popleft()
            self._sim.resume_soon(task, True)

    def force_release(self) -> None:
        """Drop the lock regardless of holder (crash-cleanup analog)."""
        if self._holder is not None:
            self.release()


class _LockAcquire:
    __slots__ = ("_lock",)

    def __init__(self, lock: Lock) -> None:
        self._lock = lock

    def subscribe(self, sim: Simulator, task: Task) -> None:
        lock = self._lock
        if lock._holder is None:
            lock._holder = task
            sim.resume_soon(task, True)
            return
        task._parked_in = lock._waiters
        lock._waiters.append(task)


class Queue:
    """Bounded FIFO queue with blocking put/get.

    ``get(timeout)`` yields the item, or ``None`` on timeout (the shape of
    ``BlockingQueue.poll(long)``).  Items are reserved at subscribe time so
    two concurrent getters never race for the same element.
    """

    def __init__(
        self, sim: Simulator, name: str = "queue", capacity: Optional[int] = None
    ) -> None:
        self._sim = sim
        self.name = name
        self.capacity = capacity
        self._items: collections.deque[Any] = collections.deque()
        self._getters: collections.deque[Task] = collections.deque()
        #: Blocked putters; each one's item rides on its ``_QueuePut``
        #: effect (``task.waiting_on``) until the queue admits it.
        self._putters: collections.deque[Task] = collections.deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        return not self._items

    def put(self, item: Any) -> "_QueuePut":
        return _QueuePut(self, item)

    def put_nowait(self, item: Any) -> None:
        """Non-blocking put; raises when the queue is full."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            raise IllegalStateException(f"queue {self.name} full")
        self._deliver(item)

    def get(self, timeout: Optional[float] = None) -> "_QueueGet":
        return _QueueGet(self, timeout)

    def get_nowait(self) -> Any:
        """Non-blocking get; returns None when empty."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return item
        return None

    def peek(self) -> Any:
        return self._items[0] if self._items else None

    def drain(self) -> list[Any]:
        items = list(self._items)
        self._items.clear()
        while self._putters:
            self._admit_putter()
        return items

    # --------------------------------------------------------------- internals

    def _deliver(self, item: Any) -> None:
        """Hand an item to a waiting getter or store it."""
        if self._getters:
            self._sim.resume_soon(self._getters.popleft(), item)
        else:
            self._items.append(item)

    def _admit_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            putter = self._putters.popleft()
            self._items.append(putter.waiting_on._item)
            self._sim.resume_soon(putter)


class _QueuePut:
    __slots__ = ("_queue", "_item")

    def __init__(self, queue: Queue, item: Any) -> None:
        self._queue = queue
        self._item = item

    def subscribe(self, sim: Simulator, task: Task) -> None:
        queue = self._queue
        if queue.capacity is None or len(queue._items) < queue.capacity or queue._getters:
            queue._deliver(self._item)
            sim.resume_soon(task)
            return
        task._parked_in = queue._putters
        queue._putters.append(task)


class _QueueGet:
    __slots__ = ("_queue", "_timeout")

    def __init__(self, queue: Queue, timeout: Optional[float]) -> None:
        self._queue = queue
        self._timeout = timeout

    def subscribe(self, sim: Simulator, task: Task) -> None:
        queue = self._queue
        if queue._items:
            item = queue._items.popleft()
            queue._admit_putter()
            sim.resume_soon(task, item)
            return
        task._parked_in = getters = queue._getters
        getters.append(task)
        if self._timeout is not None:
            task._timer = sim.resume_at(sim.now + self._timeout, task)


class Future:
    """A write-once result container; yielding it waits for completion.

    A waiter receives the result, or — when the future completed
    exceptionally — an :class:`ExecutionException` wrapping the original
    cause is thrown into it, matching ``Future.get()`` semantics.
    """

    def __init__(self, sim: Simulator, name: str = "future") -> None:
        self._sim = sim
        self.name = name
        self._done = False
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        #: A list, not a deque: a future is made per submission, woken
        #: once and all at a time, and an empty deque is a 64-slot block.
        self._waiters: list[Task] = []

    @property
    def done(self) -> bool:
        return self._done

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def set_result(self, value: Any = None) -> None:
        if self._done:
            return
        self._done = True
        self._result = value
        self._wake_all()

    def set_exception(self, exc: BaseException) -> None:
        if self._done:
            return
        self._done = True
        self._exception = exc
        self._wake_all()

    # Java-flavored alias used by the mini systems.
    complete_exceptionally = set_exception

    def subscribe(self, sim: Simulator, task: Task) -> None:
        if self._done:
            self._schedule_wake(task)
            return
        task._parked_in = self._waiters
        self._waiters.append(task)

    def _wake_all(self) -> None:
        waiters, self._waiters = self._waiters, []
        for task in waiters:
            self._schedule_wake(task)

    def _schedule_wake(self, task: Task) -> None:
        # The future is write-once and already done here, so capturing the
        # outcome now (rather than at fire time) is equivalent.
        if self._exception is not None:
            self._sim.resume_soon(task, exc=ExecutionException(self._exception))
        else:
            self._sim.resume_soon(task, value=self._result)


GenFn = Callable[..., Generator[Any, Any, Any]]


class Executor:
    """Thread-pool analog: each submission runs as its own task.

    An unhandled exception inside a submitted job completes the job's
    future exceptionally instead of crashing the process — the executor
    swallows it exactly the way a Java pool does, which is why faults can
    hide until someone waits on the future.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self._sim = sim
        self.name = name
        self._counter = 0

    def submit(self, fn: GenFn, *args: Any, **kwargs: Any) -> Future:
        self._counter += 1
        future = Future(self._sim, name=f"{self.name}-f{self._counter}")
        task_name = f"{self.name}-{self._counter}"

        def runner() -> Generator[Any, Any, Any]:
            try:
                result = yield from fn(*args, **kwargs)
            except GeneratorExit:
                raise
            except BaseException as error:  # noqa: BLE001 - pool boundary
                future.set_exception(error)
            else:
                future.set_result(result)

        self._sim.spawn(task_name, runner())
        return future


class SerialExecutor:
    """Single-threaded executor: jobs run in submission order on one task.

    This is the shape of HBase's WAL ``consumeExecutor``: one long-lived
    worker draining a job queue, so a job that blocks starves every later
    submission — the exact mechanism behind the motivating failure.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self._sim = sim
        self.name = name
        self._jobs: Queue = Queue(sim, name=f"{name}-jobs")
        self._counter = 0
        self.worker = sim.spawn(name, self._loop())

    def submit(self, fn: GenFn, *args: Any, **kwargs: Any) -> Future:
        self._counter += 1
        future = Future(self._sim, name=f"{self.name}-f{self._counter}")
        self._jobs.put_nowait((fn, args, kwargs, future))
        return future

    def _loop(self) -> Generator[Any, Any, Any]:
        while True:
            job = yield self._jobs.get()
            if job is None:
                continue
            fn, args, kwargs, future = job
            try:
                result = yield from fn(*args, **kwargs)
            except GeneratorExit:
                raise
            except BaseException as error:  # noqa: BLE001 - pool boundary
                future.set_exception(error)
            else:
                future.set_result(result)
