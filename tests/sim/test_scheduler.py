"""Tests for the discrete-event scheduler and task model."""

from repro.sim.scheduler import Join, Simulator, Sleep, TaskState, stuck_report
from repro.sim.errors import InterruptedException


def test_tasks_run_and_finish():
    sim = Simulator()
    log = []

    def worker(name):
        log.append(f"{name}-start")
        yield Sleep(1.0)
        log.append(f"{name}-end")
        return name

    t1 = sim.spawn("a", worker("a"))
    t2 = sim.spawn("b", worker("b"))
    sim.run(until=10.0)
    assert t1.state is TaskState.DONE and t2.state is TaskState.DONE
    assert t1.result == "a"
    assert log == ["a-start", "b-start", "a-end", "b-end"]


def test_virtual_time_advances_with_sleep():
    sim = Simulator()
    times = []

    def worker():
        for _ in range(3):
            yield Sleep(2.5)
            times.append(sim.now)

    sim.spawn("t", worker())
    sim.run(until=100.0)
    assert times == [2.5, 5.0, 7.5]
    assert sim.now == 100.0


def test_spawn_order_is_deterministic():
    def run_once():
        sim = Simulator(seed=7)
        order = []

        def worker(i):
            order.append(i)
            yield Sleep(0.0)
            order.append(i + 100)

        for i in range(5):
            sim.spawn(f"w{i}", worker(i))
        sim.run(until=1.0)
        return order

    assert run_once() == run_once()


def test_unhandled_exception_marks_task_failed():
    sim = Simulator()
    crashes = []
    sim.on_task_crash(lambda task: crashes.append(task.name))

    def bad():
        yield Sleep(0.1)
        raise ValueError("boom")

    task = sim.spawn("bad", bad())
    sim.run(until=1.0)
    assert task.state is TaskState.FAILED
    assert isinstance(task.error, ValueError)
    assert crashes == ["bad"]
    assert "boom" in task.error_traceback


def test_join_waits_for_result():
    sim = Simulator()
    results = []

    def child():
        yield Sleep(1.0)
        return 42

    def parent():
        task = sim.spawn("child", child())
        value = yield Join(task)
        results.append(value)

    sim.spawn("parent", parent())
    sim.run(until=5.0)
    assert results == [42]


def test_join_on_finished_task_returns_immediately():
    sim = Simulator()
    results = []

    def child():
        return 7
        yield  # pragma: no cover - makes this a generator

    def parent():
        task = sim.spawn("child", child())
        yield Sleep(1.0)  # let the child finish first
        value = yield Join(task)
        results.append(value)

    sim.spawn("parent", parent())
    sim.run(until=5.0)
    assert results == [7]


def test_interrupt_throws_into_blocked_task():
    sim = Simulator()
    outcome = []

    def sleeper():
        try:
            yield Sleep(100.0)
            outcome.append("finished")
        except InterruptedException:
            outcome.append("interrupted")

    task = sim.spawn("s", sleeper())
    sim.call_at(1.0, lambda: sim.interrupt(task))
    sim.run(until=10.0)
    assert outcome == ["interrupted"]


def test_kill_stops_task_without_handlers():
    sim = Simulator()
    outcome = []

    def sleeper():
        try:
            yield Sleep(100.0)
        finally:
            outcome.append("cleanup")

    task = sim.spawn("s", sleeper())
    sim.call_at(1.0, lambda: sim.kill(task))
    sim.run(until=10.0)
    assert task.state is TaskState.KILLED
    assert outcome == ["cleanup"]


def test_blocked_tasks_and_virtual_stack():
    sim = Simulator()

    def inner():
        yield Sleep(1000.0)

    def outer():
        yield from inner()

    task = sim.spawn("t", outer())
    sim.run(until=5.0)
    assert task in sim.blocked_tasks()
    functions = task.stack_functions()
    assert functions == ["outer", "inner"]
    assert task.blocked_in("inner")
    report = stuck_report([task])
    assert 'Thread "t" BLOCKED' in report
    assert "at inner" in report


def test_run_stops_at_horizon_with_pending_events():
    sim = Simulator()
    fired = []

    def heartbeat():
        while True:
            yield Sleep(1.0)
            fired.append(sim.now)

    sim.spawn("hb", heartbeat())
    sim.run(until=3.5)
    assert fired == [1.0, 2.0, 3.0]
    assert sim.now == 3.5


def test_call_at_cancel():
    sim = Simulator()
    fired = []
    cancel = sim.call_at(1.0, lambda: fired.append("x"))
    cancel()
    sim.run(until=5.0)
    assert fired == []


def test_non_generator_spawn_rejected():
    sim = Simulator()
    try:
        sim.spawn("bad", lambda: None)  # type: ignore[arg-type]
    except TypeError:
        pass
    else:
        raise AssertionError("expected TypeError")


def test_yielding_garbage_fails_task():
    sim = Simulator()

    def bad():
        yield 12345

    task = sim.spawn("bad", bad())
    sim.run(until=1.0)
    assert task.state is TaskState.FAILED
    assert isinstance(task.error, TypeError)


# ----------------------------------------------------- park records as data


def test_interrupted_sleeper_is_not_woken_by_its_stale_timer():
    """The sleep's timer is the park record's timer: interrupting the
    sleeper revokes it, so it cannot later wake the task out of an
    unrelated, untimed wait."""
    from repro.sim.sync import Queue

    sim = Simulator()
    queue = Queue(sim)
    outcome = []

    def sleeper():
        try:
            yield Sleep(5.0)
        except InterruptedException:
            outcome.append(("interrupted", sim.now))
        item = yield queue.get()
        outcome.append(("got", item, sim.now))

    task = sim.spawn("s", sleeper())
    sim.call_at(1.0, lambda: sim.interrupt(task))
    sim.run(until=10.0)
    assert outcome == [("interrupted", 1.0)]
    assert task.state is TaskState.BLOCKED
    queue.put_nowait("late")
    sim.run(until=20.0)
    assert outcome == [("interrupted", 1.0), ("got", "late", 10.0)]


def test_killed_sleepers_timer_does_not_touch_a_same_named_successor():
    from repro.sim.sync import Queue

    sim = Simulator()
    queue = Queue(sim)
    outcome = []

    def first():
        yield Sleep(5.0)
        outcome.append("first woke")

    def second():
        item = yield queue.get()
        outcome.append(("second got", item, sim.now))

    def replace(task):
        sim.kill(task)
        sim.spawn("worker", second())

    task = sim.spawn("worker", first())
    sim.call_at(1.0, lambda: replace(task))
    sim.run(until=10.0)
    assert task.state is TaskState.KILLED
    assert outcome == []
    assert [t.state for t in sim.tasks] == [TaskState.KILLED, TaskState.BLOCKED]


def test_events_executed_counts_cancelled_entries():
    """``events_executed`` is heap entries popped — a cancelled timer is
    popped (and counted) like any other; only its action is skipped."""
    sim = Simulator()
    fired = []
    sim.call_at(1.0, lambda: fired.append("kept"))
    sim.call_at(2.0, lambda: fired.append("cancelled"))()
    entry = sim.resume_at(3.0, sim.spawn("idle", iter_forever()))
    entry[2] = None
    sim.run(until=2.5)
    assert fired == ["kept"]
    assert sim.events_executed == 3  # the spawn, "kept", cancelled "cancelled"
    sim.run(until=5.0)
    assert sim.events_executed == 4  # the cancelled wakeup at 3.0 too


def iter_forever():
    while True:
        yield Sleep(1000.0)


def test_cancelled_timeout_is_still_popped_and_counted():
    from repro.sim.sync import Condition

    def events(signal: bool) -> int:
        sim = Simulator()
        cond = Condition(sim)

        def waiter():
            yield cond.wait(timeout=2.0)

        sim.spawn("w", waiter())
        if signal:
            sim.call_at(1.0, cond.notify)
        sim.run(until=10.0)
        return sim.events_executed

    # spawn + timeout, against spawn + notify callback + wakeup + the
    # revoked timeout entry.
    assert events(signal=False) == 2
    assert events(signal=True) == 4


def test_crash_handlers_run_as_the_crashing_task():
    sim = Simulator()
    seen = []
    sim.on_task_crash(lambda task: seen.append((task.name, sim.current_task)))

    def bad():
        yield Sleep(0.1)
        raise ValueError("boom")

    def bad_at_once():
        raise ValueError("boom on the first step")
        yield  # pragma: no cover - makes this a generator

    first = sim.spawn("first-step", bad_at_once())
    task = sim.spawn("bad", bad())
    sim.run(until=1.0)
    assert seen == [("first-step", first), ("bad", task)]
    assert sim.current_task is None


def test_call_at_passes_arguments():
    sim = Simulator()
    fired = []
    sim.call_at(1.0, lambda *args: fired.append(args), "a", 2)
    sim.call_soon(fired.append, "soon")
    sim.run(until=5.0)
    assert fired == ["soon", ("a", 2)]
