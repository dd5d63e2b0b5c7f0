"""Property: the kernel's wake order equals a naive reference interpreter.

Random small programs — sleeps, timed and untimed gets, puts on bounded
queues, lock hand-offs, futures, network-style sends and one
``interrupt`` — run on the real :class:`Simulator` and on
:class:`Reference`, the same semantics written the slow obvious way (an
unsorted agenda scanned for its ``(when, seq)`` minimum, plain lists for
waiter sets, program counters for generators).  A send schedules a
delivery callback the way :class:`~repro.sim.network.Network` does —
``post_at(now + latency)`` onto the heap, or ``call_soon`` onto the ready
queue — so heap entries and ready entries interleave at one instant.
They must agree on every completed operation and delivery — who, which,
when, with what value — on each task's final state and on
``events_executed``; two runs of the real kernel must agree with each
other.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.errors import InterruptedException
from repro.sim.scheduler import Simulator, Sleep
from repro.sim.sync import Future, Lock, Queue

HORIZON = 6.0
CAPACITIES = (1, 2, None)  # queue 0, queue 1, unbounded queue 2
FUTURES = 2
START, INTERRUPTED = "start", "interrupted"


class Reference:
    def __init__(self, program):
        self.program = program
        self.now, self.seq, self.popped, self.log = 0.0, 0, 0, []
        self.agenda = []  # entries [when, seq, live, task, value]
        count = len(program)
        self.pc, self.state = [0] * count, ["ready"] * count
        self.parked = [(None, None)] * count  # (waiter list, timer entry)
        self.items = [[] for _ in CAPACITIES]
        self.getters = [[] for _ in CAPACITIES]
        self.putters = [[] for _ in CAPACITIES]
        self.putting = {}
        self.holder, self.lock_waiters = None, []
        self.results = [None] * FUTURES  # None = pending, else (value,)
        self.future_waiters = [[] for _ in range(FUTURES)]
        for task in range(count):
            self.schedule(0.0, task, START)

    def schedule(self, when, task, value):
        self.seq += 1
        entry = [when, self.seq, True, task, value]
        self.agenda.append(entry)
        return entry

    def run(self):
        while self.agenda:
            entry = min(self.agenda, key=lambda e: (e[0], e[1]))
            if entry[0] > HORIZON:
                break
            self.agenda.remove(entry)
            self.now = max(self.now, entry[0])
            self.popped += 1
            if not entry[2]:
                continue
            if isinstance(entry[3], tuple):  # ("deliver", queue)
                self.deliver(entry[3][1], entry[4])
            else:
                self.wake(entry[3], entry[4])
        return self.log, self.state, self.popped

    def deliver(self, q, item):
        """A send's callback: ``Queue.put_nowait``, dropped when full."""
        accepted = self.room(q)
        if accepted:
            if self.getters[q]:
                self.schedule(self.now, self.getters[q].pop(0), item)
            else:
                self.items[q].append(item)
        self.log.append(("net", item, self.now, accepted))

    def wake(self, task, value):
        if (self.state[task] == "ready") != (value is START):
            return
        if self.state[task] not in ("ready", "blocked"):
            return
        waiters, timer = self.parked[task]
        self.parked[task] = (None, None)
        if waiters is not None and task in waiters:
            waiters.remove(task)
        if timer is not None:
            timer[2] = False
        self.state[task] = "running"
        if value is not START:
            self.complete(task, value)
        ops = self.program[task]
        while self.pc[task] < len(ops):
            if self.begin(task, ops[self.pc[task]]):
                self.state[task] = "blocked"
                return
            self.complete(task, None)
        self.state[task] = "done"

    def complete(self, task, value):
        self.log.append((task, self.pc[task], self.now, value))
        self.pc[task] += 1

    def park(self, task, waiters, timeout=None, on_timeout=None):
        timer = None
        if waiters is not None:
            waiters.append(task)
        if timeout is not None:
            timer = self.schedule(self.now + timeout, task, on_timeout)
        self.parked[task] = (waiters, timer)

    def room(self, q):
        return CAPACITIES[q] is None or len(self.items[q]) < CAPACITIES[q]

    def admit_putter(self, q):
        if self.putters[q] and self.room(q):
            putter = self.putters[q].pop(0)
            self.items[q].append(self.putting.pop(putter))
            self.schedule(self.now, putter, None)

    def begin(self, task, op):
        """Start ``op``; True when it yields (every effect does, even one
        that is satisfied at once: its wakeup goes through the agenda)."""
        kind = op[0]
        if kind == "sleep":
            self.park(task, None, op[1])
        elif kind == "get":
            q = op[1]
            if self.items[q]:
                item = self.items[q].pop(0)
                self.admit_putter(q)  # the admitted putter wakes first
                self.schedule(self.now, task, item)
            else:
                self.park(task, self.getters[q], op[2])
        elif kind == "put":
            q, item = op[1], (task, self.pc[task])
            if self.room(q) or self.getters[q]:
                if self.getters[q]:
                    self.schedule(self.now, self.getters[q].pop(0), item)
                else:
                    self.items[q].append(item)
                self.schedule(self.now, task, None)
            else:
                self.putting[task] = item
                self.park(task, self.putters[q])
        elif kind == "acquire":
            if self.holder is None:
                self.holder = task
                self.schedule(self.now, task, True)
            else:
                self.park(task, self.lock_waiters)
        elif kind == "await":
            if self.results[op[1]] is not None:
                self.schedule(self.now, task, self.results[op[1]][0])
            else:
                self.park(task, self.future_waiters[op[1]])
        elif kind == "release":
            if self.holder == task:
                self.holder = None
                if self.lock_waiters:
                    self.holder = self.lock_waiters.pop(0)
                    self.schedule(self.now, self.holder, True)
            return False
        elif kind == "resolve":
            if self.results[op[1]] is None:
                self.results[op[1]] = ((task, self.pc[task]),)
                while self.future_waiters[op[1]]:
                    self.schedule(
                        self.now, self.future_waiters[op[1]].pop(0),
                        self.results[op[1]][0],
                    )
            return False
        elif kind == "interrupt":
            if op[1] != task and self.state[op[1]] == "blocked":
                self.wake(op[1], INTERRUPTED)
            return False
        elif kind == "send":
            item = (task, self.pc[task])
            self.schedule(self.now + op[2], ("deliver", op[1]), item)
            return False
        return True


def run_kernel(program):
    sim = Simulator()
    queues = [Queue(sim, f"q{i}", capacity) for i, capacity in enumerate(CAPACITIES)]
    lock = Lock(sim)
    futures = [Future(sim, f"f{i}") for i in range(FUTURES)]
    tasks, log = [], []

    def deliver(q, item):
        queue = queues[q]
        accepted = queue.capacity is None or len(queue) < queue.capacity
        if accepted:
            queue.put_nowait(item)
        log.append(("net", item, sim.now, accepted))

    def body(me, ops):
        for index, op in enumerate(ops):
            kind, value = op[0], None
            try:
                if kind == "sleep":
                    value = yield Sleep(op[1])
                elif kind == "get":
                    value = yield queues[op[1]].get(op[2])
                elif kind == "put":
                    value = yield queues[op[1]].put((me, index))
                elif kind == "acquire":
                    value = yield lock.acquire()
                elif kind == "await":
                    value = yield futures[op[1]]
                elif kind == "release":
                    if lock.holder_name == f"t{me}":
                        lock.release()
                elif kind == "resolve":
                    futures[op[1]].set_result((me, index))
                elif kind == "interrupt" and op[1] != me:
                    sim.interrupt(tasks[op[1]])
                elif kind == "send" and op[2]:
                    sim.post_at(sim.now + op[2], deliver, op[1], (me, index))
                elif kind == "send":
                    sim.call_soon(deliver, op[1], (me, index))
            except InterruptedException:
                value = INTERRUPTED
            log.append((me, index, sim.now, value))

    for me, ops in enumerate(program):
        tasks.append(sim.spawn(f"t{me}", body(me, ops)))
    sim.run(until=HORIZON)
    return log, [task.state.value for task in tasks], sim.events_executed


DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.5])
QUEUES = st.integers(0, len(CAPACITIES) - 1)
OPS = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("get"), QUEUES, st.one_of(st.none(), DELAYS)),
    st.tuples(st.just("put"), QUEUES),
    st.tuples(st.just("acquire")),
    st.tuples(st.just("release")),
    st.tuples(st.just("await"), st.integers(0, FUTURES - 1)),
    st.tuples(st.just("resolve"), st.integers(0, FUTURES - 1)),
    st.tuples(st.just("send"), QUEUES, st.sampled_from([0.0, 0.5, 1.0])),
)


@st.composite
def programs(draw):
    program = draw(
        st.lists(st.lists(OPS, min_size=1, max_size=6), min_size=2, max_size=4)
    )
    program = [list(ops) for ops in program]
    if draw(st.booleans()):
        # One interrupt, somewhere, aimed at some other task.
        source = draw(st.integers(0, len(program) - 1))
        victim = draw(st.integers(0, len(program) - 1))
        at = draw(st.integers(0, len(program[source])))
        program[source].insert(at, ("interrupt", victim))
    return program


@settings(max_examples=300, deadline=None)
@given(programs())
def test_wake_order_matches_the_reference_interpreter(program):
    first = run_kernel(program)
    assert first == run_kernel(program)
    assert first == Reference(program).run()


def test_reference_and_kernel_agree_on_a_timeout_signal_tie():
    """A hand-written instance of the tie the property hunts for: the put
    lands at the instant the timed get expires, behind its timer."""
    program = [
        [("get", 0, 1.0), ("get", 0, None)],
        [("sleep", 1.0), ("put", 0)],
    ]
    log, states, events = run_kernel(program)
    assert (log, states, events) == Reference(program).run()
    assert log == [
        (0, 0, 1.0, None),      # timed out: the timer entry sorts first
        (1, 0, 1.0, None),
        (0, 1, 1.0, (1, 1)),    # ... and the second get is handed the item
        (1, 1, 1.0, None),      # (its wakeup was pushed before the putter's)
    ]
    assert states == ["done", "done"]


def test_a_heap_entry_due_now_precedes_a_same_time_call_soon():
    """At t=1 the sleeper's timer and a delivery sent at t=0 are both on
    the heap; the sleeper's ``call_soon`` send, made at t=1, must still
    deliver after that delivery, not jump the queue."""
    program = [
        [("sleep", 1.0), ("send", 2, 0.0)],
        [("send", 2, 1.0), ("get", 2, None), ("get", 2, None)],
    ]
    log, states, events = run_kernel(program)
    assert (log, states, events) == Reference(program).run()
    assert [entry for entry in log if entry[0] == "net"] == [
        ("net", (1, 0), 1.0, True),
        ("net", (0, 1), 1.0, True),
    ]
    assert log[-2:] == [(1, 1, 1.0, (1, 0)), (1, 2, 1.0, (0, 1))]
    assert states == ["done", "done"]
