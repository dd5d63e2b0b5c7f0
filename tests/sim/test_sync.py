"""Tests for conditions, locks, queues, futures, and executors."""

import pytest

from repro.sim.errors import ExecutionException, IllegalStateException, IOException
from repro.sim.scheduler import Simulator, Sleep
from repro.sim.sync import Condition, Executor, Future, Lock, Queue, SerialExecutor


def run(sim, until=100.0):
    sim.run(until=until)


class TestCondition:
    def test_notify_all_wakes_waiters(self):
        sim = Simulator()
        cond = Condition(sim)
        woken = []

        def waiter(i):
            signaled = yield cond.wait()
            woken.append((i, signaled))

        for i in range(3):
            sim.spawn(f"w{i}", waiter(i))
        sim.call_at(1.0, cond.notify_all)
        run(sim)
        assert sorted(woken) == [(0, True), (1, True), (2, True)]

    def test_wait_timeout_returns_false(self):
        sim = Simulator()
        cond = Condition(sim)
        outcome = []

        def waiter():
            signaled = yield cond.wait(timeout=2.0)
            outcome.append((signaled, sim.now))

        sim.spawn("w", waiter())
        run(sim)
        assert outcome == [(False, 2.0)]

    def test_signal_beats_timeout(self):
        sim = Simulator()
        cond = Condition(sim)
        outcome = []

        def waiter():
            signaled = yield cond.wait(timeout=5.0)
            outcome.append(signaled)

        sim.spawn("w", waiter())
        sim.call_at(1.0, cond.notify_all)
        run(sim)
        assert outcome == [True]

    def test_timed_out_waiter_not_resumed_twice(self):
        sim = Simulator()
        cond = Condition(sim)
        wakeups = []

        def waiter():
            signaled = yield cond.wait(timeout=1.0)
            wakeups.append(signaled)
            signaled = yield cond.wait(timeout=10.0)
            wakeups.append(signaled)

        sim.spawn("w", waiter())
        sim.call_at(2.0, cond.notify_all)  # after first timeout
        run(sim)
        assert wakeups == [False, True]

    def test_notify_one(self):
        sim = Simulator()
        cond = Condition(sim)
        woken = []

        def waiter(i):
            yield cond.wait()
            woken.append(i)

        sim.spawn("w0", waiter(0))
        sim.spawn("w1", waiter(1))
        sim.call_at(1.0, cond.notify)
        run(sim)
        assert woken == [0]


class TestLock:
    def test_mutual_exclusion(self):
        sim = Simulator()
        lock = Lock(sim)
        timeline = []

        def worker(name):
            yield lock.acquire()
            timeline.append(f"{name}-in")
            yield Sleep(1.0)
            timeline.append(f"{name}-out")
            lock.release()

        sim.spawn("a", worker("a"))
        sim.spawn("b", worker("b"))
        run(sim)
        assert timeline == ["a-in", "a-out", "b-in", "b-out"]

    def test_release_while_free_raises(self):
        sim = Simulator()
        lock = Lock(sim)
        with pytest.raises(IllegalStateException):
            lock.release()

    def test_holder_name(self):
        sim = Simulator()
        lock = Lock(sim)

        def worker():
            yield lock.acquire()
            yield Sleep(10.0)

        sim.spawn("holder", worker())
        sim.run(until=1.0)
        assert lock.holder_name == "holder"


class TestQueue:
    def test_fifo_order(self):
        sim = Simulator()
        queue = Queue(sim)
        got = []

        def producer():
            for i in range(3):
                yield queue.put(i)

        def consumer():
            for _ in range(3):
                item = yield queue.get()
                got.append(item)

        sim.spawn("p", producer())
        sim.spawn("c", consumer())
        run(sim)
        assert got == [0, 1, 2]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        queue = Queue(sim)
        got = []

        def consumer():
            item = yield queue.get()
            got.append((item, sim.now))

        sim.spawn("c", consumer())
        sim.call_at(3.0, lambda: queue.put_nowait("x"))
        run(sim)
        assert got == [("x", 3.0)]

    def test_get_timeout_returns_none(self):
        sim = Simulator()
        queue = Queue(sim)
        got = []

        def consumer():
            item = yield queue.get(timeout=2.0)
            got.append(item)

        sim.spawn("c", consumer())
        run(sim)
        assert got == [None]

    def test_bounded_put_blocks(self):
        sim = Simulator()
        queue = Queue(sim, capacity=1)
        timeline = []

        def producer():
            yield queue.put("a")
            timeline.append(("a", sim.now))
            yield queue.put("b")
            timeline.append(("b", sim.now))

        def consumer():
            yield Sleep(5.0)
            item = yield queue.get()
            timeline.append((f"got-{item}", sim.now))

        sim.spawn("p", producer())
        sim.spawn("c", consumer())
        run(sim)
        assert ("a", 0.0) in timeline
        # 'b' only entered after the consumer freed a slot at t=5.
        assert ("b", 5.0) in timeline

    def test_put_nowait_full_raises(self):
        sim = Simulator()
        queue = Queue(sim, capacity=1)
        queue.put_nowait(1)
        with pytest.raises(IllegalStateException):
            queue.put_nowait(2)

    def test_two_getters_one_item(self):
        sim = Simulator()
        queue = Queue(sim)
        got = []

        def consumer(i):
            item = yield queue.get(timeout=10.0)
            got.append((i, item))

        sim.spawn("c0", consumer(0))
        sim.spawn("c1", consumer(1))
        sim.call_at(1.0, lambda: queue.put_nowait("only"))
        run(sim, until=20.0)
        assert sorted(got) == [(0, "only"), (1, None)]

    def test_drain(self):
        sim = Simulator()
        queue = Queue(sim)
        for i in range(3):
            queue.put_nowait(i)
        assert queue.drain() == [0, 1, 2]
        assert queue.empty


class TestFuture:
    def test_result_delivered(self):
        sim = Simulator()
        future = Future(sim)
        got = []

        def waiter():
            value = yield future
            got.append(value)

        sim.spawn("w", waiter())
        sim.call_at(1.0, lambda: future.set_result("done"))
        run(sim)
        assert got == ["done"]

    def test_exception_wrapped_as_execution_exception(self):
        sim = Simulator()
        future = Future(sim)
        got = []

        def waiter():
            try:
                yield future
            except ExecutionException as error:
                got.append(type(error.cause).__name__)

        sim.spawn("w", waiter())
        sim.call_at(1.0, lambda: future.set_exception(IOException("disk gone")))
        run(sim)
        assert got == ["IOException"]

    def test_wait_on_completed_future(self):
        sim = Simulator()
        future = Future(sim)
        future.set_result(5)
        got = []

        def waiter():
            got.append((yield future))

        sim.spawn("w", waiter())
        run(sim)
        assert got == [5]

    def test_double_completion_ignored(self):
        sim = Simulator()
        future = Future(sim)
        future.set_result(1)
        future.set_result(2)
        assert future._result == 1


class TestExecutors:
    def test_executor_runs_jobs_concurrently(self):
        sim = Simulator()
        pool = Executor(sim, "pool")
        done = []

        def job(i):
            yield Sleep(1.0)
            done.append((i, sim.now))
            return i

        def main():
            futures = [pool.submit(job, i) for i in range(3)]
            for future in futures:
                yield future

        sim.spawn("main", main())
        run(sim)
        # Concurrent: all finish at t=1, not t=1,2,3.
        assert [t for _, t in done] == [1.0, 1.0, 1.0]

    def test_executor_propagates_exception_via_future(self):
        sim = Simulator()
        pool = Executor(sim, "pool")
        got = []

        def job():
            raise IOException("inner fault")
            yield  # pragma: no cover

        def main():
            try:
                yield pool.submit(job)
            except ExecutionException as error:
                got.append(str(error.cause))

        sim.spawn("main", main())
        run(sim)
        assert got == ["inner fault"]

    def test_serial_executor_runs_in_order(self):
        sim = Simulator()
        pool = SerialExecutor(sim, "serial")
        done = []

        def job(i):
            yield Sleep(1.0)
            done.append((i, sim.now))

        for i in range(3):
            pool.submit(job, i)
        run(sim)
        assert done == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_serial_executor_blocked_job_starves_later_jobs(self):
        sim = Simulator()
        pool = SerialExecutor(sim, "serial")
        cond = Condition(sim)
        done = []

        def blocker():
            yield cond.wait()  # never signaled
            done.append("blocker")

        def quick():
            done.append("quick")
            return None
            yield  # pragma: no cover

        pool.submit(blocker)
        pool.submit(quick)
        run(sim)
        assert done == []  # quick never ran: the worker is stuck
        assert pool.worker.blocked_in("blocker")


class TestWakeOrder:
    """Ordering the data-driven park records must keep."""

    def test_condition_notify_wakes_in_arrival_order(self):
        sim = Simulator()
        cond = Condition(sim)
        woken = []

        def waiter(i):
            yield cond.wait()
            woken.append(i)

        for i in range(4):
            sim.spawn(f"w{i}", waiter(i))
        for when in (1.0, 2.0, 3.0):
            sim.call_at(when, cond.notify)
        run(sim)
        assert woken == [0, 1, 2]
        assert [task.name for task in cond._waiters] == ["w3"]

    def test_lock_release_hands_over_in_arrival_order(self):
        sim = Simulator()
        lock = Lock(sim)
        order = []

        def worker(i):
            yield lock.acquire()
            order.append(i)
            yield Sleep(1.0)
            lock.release()

        for i in range(4):
            sim.spawn(f"w{i}", worker(i))
        run(sim)
        assert order == [0, 1, 2, 3]

    def test_queue_getters_and_putters_are_served_in_arrival_order(self):
        sim = Simulator()
        queue = Queue(sim, capacity=1)
        got, put = [], []

        def getter(i):
            got.append((i, (yield queue.get())))

        def putter(i):
            yield queue.put(f"item{i}")
            put.append(i)

        for i in range(3):
            sim.spawn(f"g{i}", getter(i))
        run(sim, until=1.0)
        for i in range(5):
            sim.spawn(f"p{i}", putter(i))
        run(sim, until=2.0)
        # Three items go straight to the waiting getters, the fourth
        # fills the queue, the fifth blocks.
        assert got == [(0, "item0"), (1, "item1"), (2, "item2")]
        assert put == [0, 1, 2, 3]
        assert [task.name for task in queue._putters] == ["p4"]
        assert queue.get_nowait() == "item3"
        run(sim, until=3.0)
        assert put == [0, 1, 2, 3, 4] and queue.peek() == "item4"

    def test_wakeup_ahead_of_the_timer_at_the_same_timestamp_wins(self):
        """Same ``when``: ``seq`` decides.  The signal's wakeup entry was
        pushed first, so the task gets the value; the timer entry is
        revoked but still popped and counted."""
        sim = Simulator()
        cond = Condition(sim)
        outcome = []

        def waiter():
            outcome.append((yield cond.wait(timeout=2.0)))
            yield cond.wait()  # would expose a second, stale wakeup

        task = sim.spawn("w", waiter())
        signal = sim.resume_at(2.0, task, "signal")  # seq ahead of the timer's
        run(sim, until=1.0)
        timer = task._timer
        assert (timer[0], signal[0]) == (2.0, 2.0) and signal[1] < timer[1]
        before = sim.events_executed
        run(sim, until=5.0)
        assert outcome == ["signal"]
        assert timer[2] is None
        assert sim.events_executed == before + 2
        assert task.state.value == "blocked" and list(cond._waiters) == [task]

    def test_timer_ahead_of_the_wakeup_at_the_same_timestamp_wins(self):
        """The reverse: a signal issued at the very instant the timeout is
        due arrives behind the timer entry, so the task times out and has
        left the waiter set before anyone can pop it."""
        sim = Simulator()
        cond = Condition(sim)
        outcome = []

        def waiter():
            outcome.append((yield cond.wait(timeout=2.0)))

        def check_then_notify():
            outcome.append(list(cond._waiters))
            cond.notify()

        task = sim.spawn("w", waiter())
        run(sim, until=1.0)
        sim.call_at(2.0, check_then_notify)  # seq behind the timer's
        run(sim, until=5.0)
        assert outcome == [False, []]
        assert task.state.value == "done"

    def test_notify_all_and_future_completion_wake_each_task_once(self):
        sim = Simulator()
        cond = Condition(sim)
        future = Future(sim)
        wakeups = []

        def cond_waiter(i):
            wakeups.append(("cond", i, (yield cond.wait(timeout=5.0))))
            yield Sleep(100.0)  # a second wakeup would cut this short
            wakeups.append(("cond-slept", i))

        def future_waiter(i):
            wakeups.append(("future", i, (yield future)))
            yield Sleep(100.0)
            wakeups.append(("future-slept", i))

        for i in range(3):
            sim.spawn(f"c{i}", cond_waiter(i))
            sim.spawn(f"f{i}", future_waiter(i))

        def signal_everything_twice():
            cond.notify_all()
            cond.notify_all()
            cond.notify()
            future.set_result("done")
            future.set_result("again")

        sim.call_at(1.0, signal_everything_twice)
        run(sim, until=50.0)
        assert sorted(wakeups) == (
            [("cond", i, True) for i in range(3)]
            + [("future", i, "done") for i in range(3)]
        )
        assert not cond._waiters and not future._waiters

    def test_interrupted_waiter_leaves_every_kind_of_waiter_set(self):
        from repro.sim.errors import InterruptedException

        sim = Simulator()
        cond, lock, future = Condition(sim), Lock(sim), Future(sim)
        getq, putq = Queue(sim), Queue(sim, capacity=0)
        effects = {
            "cond": cond.wait,
            "lock": lock.acquire,
            "future": lambda: future,
            "get": getq.get,
            "put": lambda: putq.put("x"),
        }
        caught = []

        def holder():
            yield lock.acquire()
            yield Sleep(100.0)

        def victim(kind):
            try:
                yield effects[kind]()
            except InterruptedException:
                caught.append(kind)

        sim.spawn("holder", holder())
        victims = [sim.spawn(kind, victim(kind)) for kind in effects]
        sim.call_at(1.0, lambda: [sim.interrupt(task) for task in victims])
        run(sim, until=2.0)
        assert caught == list(effects)
        for waiters in (
            cond._waiters, lock._waiters, future._waiters,
            getq._getters, putq._putters,
        ):
            assert not waiters
