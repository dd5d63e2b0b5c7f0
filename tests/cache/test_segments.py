"""The segment store's failure surface (DESIGN §8.1): whatever happens
to a segment — a torn tail, a flipped bit, a killed writer, a fork, a
second writer, a full disk — a reader gets a miss and at most one
``RuntimeWarning``, never an exception, and a later writer is unaffected.
"""

import multiprocessing
import os
import signal
import time
import warnings

import pytest

from repro.cache import RunCache, configure, reset
from repro.cache.disk import _HEAD_SIZE, _SUFFIX, DiskTier
from repro.cache.runcache import HIT, MISS
from repro.sim.cluster import execute_workload

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork")


def tier(directory, errors=None):
    errors = [] if errors is None else errors
    return DiskTier(str(directory), "test-cache", lambda: errors.append(1))


def get(store, name):
    return store.read(name, bytes)


def put(store, name, payload: bytes):
    store.write(name, lambda: payload)


def segments(directory):
    return sorted(directory.glob("*" + _SUFFIX))


@pytest.fixture
def quiet():
    """Any warning at all fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def workload(cluster):
    log = cluster.logger()

    def task():
        cluster.env.disk_write("/a", b"x")
        log.info("done")
        yield cluster.sleep(0.01)

    cluster.spawn("worker", task())


# ------------------------------------------------------------ damaged segments


def test_round_trip_last_record_wins(tmp_path, quiet):
    writer = tier(tmp_path)
    put(writer, "a", b"one")
    put(writer, "b", b"two")
    put(writer, "a", b"three")
    assert get(writer, "a") == b"three"
    reader = tier(tmp_path)
    assert (get(reader, "a"), get(reader, "b")) == (b"three", b"two")
    assert get(reader, "c") is None
    assert len(segments(tmp_path)) == 1  # a reader opens no segment


def test_torn_tail_hides_only_the_record_it_tore(tmp_path, quiet):
    errors = []
    writer = tier(tmp_path)
    put(writer, "whole", b"x" * 100)
    put(writer, "torn", b"y" * 100)
    (segment,) = segments(tmp_path)
    segment.write_bytes(segment.read_bytes()[:-40])
    reader = tier(tmp_path, errors)
    assert get(reader, "whole") == b"x" * 100
    assert get(reader, "torn") is None
    # A later writer appends to its own segment and is read back whole.
    put(reader, "torn", b"z" * 100)
    assert get(tier(tmp_path, errors), "torn") == b"z" * 100
    assert errors == []


def test_empty_segment_is_nothing(tmp_path, quiet):
    (tmp_path / ("0" * 16 + "-1" + _SUFFIX)).write_bytes(b"")
    errors = []
    store = tier(tmp_path, errors)
    assert get(store, "a") is None
    put(store, "a", b"one")
    assert get(tier(tmp_path, errors), "a") == b"one"
    assert errors == []


def test_flipped_body_bit_costs_that_record_and_one_warning(tmp_path):
    writer = tier(tmp_path)
    put(writer, "first", b"x" * 100)
    put(writer, "second", b"y" * 100)
    put(writer, "third", b"z" * 100)
    (segment,) = segments(tmp_path)
    data = bytearray(segment.read_bytes())
    data[data.index(b"y" * 100) + 50] ^= 0x04
    data[data.index(b"z" * 100) + 50] ^= 0x04
    segment.write_bytes(bytes(data))
    errors = []
    reader = tier(tmp_path, errors)
    assert get(reader, "first") == b"x" * 100
    with pytest.warns(RuntimeWarning, match="skipping test-cache entry second"):
        assert get(reader, "second") is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # one warning per tier
        assert get(reader, "third") is None
        assert get(reader, "second") is None  # dropped from the index
    assert errors == [1, 1]


def test_flipped_header_bit_costs_the_rest_of_the_segment(tmp_path):
    writer = tier(tmp_path)
    put(writer, "first", b"x" * 100)
    put(writer, "second", b"y" * 100)
    put(writer, "third", b"z" * 100)
    (segment,) = segments(tmp_path)
    data = bytearray(segment.read_bytes())
    data[data.index(b"second") - _HEAD_SIZE + 6] ^= 0x01  # its length field
    segment.write_bytes(bytes(data))
    errors = []
    reader = tier(tmp_path, errors)
    with pytest.warns(RuntimeWarning, match="header in"):
        assert get(reader, "third") is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert get(reader, "second") is None
        assert get(reader, "first") == b"x" * 100
        put(reader, "third", b"again")
    assert errors == [1]  # the segment is given up once, not per lookup
    with pytest.warns(RuntimeWarning):
        later = tier(tmp_path)
        assert get(later, "third") == b"again"
    assert get(later, "first") == b"x" * 100


def test_decoder_failure_is_a_miss(tmp_path):
    store = tier(tmp_path)
    put(store, "a", b"one")
    with pytest.warns(RuntimeWarning, match="ValueError: no"):
        assert store.read("a", lambda data: (_ for _ in ()).throw(ValueError("no"))) is None
    assert get(store, "a") is None


# ------------------------------------------------------------ killed writers


def _killed_mid_append(directory):
    store = tier(directory)
    put(store, "whole", b"x" * 100)
    real_write = os.write

    def half(fd, record):
        real_write(fd, record[: len(record) // 2])
        os.kill(os.getpid(), signal.SIGKILL)

    os.write = half
    put(store, "torn", b"y" * 100)


def test_writer_killed_mid_append_loses_only_that_record(tmp_path, quiet):
    spawn = multiprocessing.get_context("spawn")
    victim = spawn.Process(target=_killed_mid_append, args=(tmp_path,))
    victim.start()
    victim.join(timeout=60)
    assert victim.exitcode == -signal.SIGKILL
    errors = []
    reader = tier(tmp_path, errors)
    assert get(reader, "whole") == b"x" * 100
    assert get(reader, "torn") is None
    put(reader, "torn", b"z" * 100)
    assert get(tier(tmp_path, errors), "torn") == b"z" * 100
    assert errors == []


def test_short_write_abandons_the_segment(tmp_path, monkeypatch):
    errors = []
    store = tier(tmp_path, errors)
    put(store, "before", b"x" * 100)
    real_write = os.write
    with monkeypatch.context() as patch, pytest.warns(RuntimeWarning, match="short write"):
        # The disk fills up 30 bytes into the record.
        patch.setattr(os, "write", lambda fd, record: real_write(fd, record[:30]))
        put(store, "torn", b"y" * 100)
    put(store, "after", b"z" * 100)
    assert errors == [1]
    # The torn record is the last of its file; "after" went to a new one.
    assert len(segments(tmp_path)) == 2
    reader = tier(tmp_path, errors)
    assert get(reader, "before") == b"x" * 100
    assert get(reader, "torn") is None
    assert get(reader, "after") == b"z" * 100
    assert errors == [1]


# -------------------------------------------------------- concurrent writers


def _await(store, name, seconds=60.0):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        found = get(store, name)
        if found is not None:
            return found
        time.sleep(0.005)
    raise SystemExit(f"never saw {name}")


def _chatty_writer(directory, me, other):
    """Write, see the other's entry, say so, and leave only once the
    other has said the same: neither exits before both have seen both."""
    store = tier(directory)
    for index in range(50):
        put(store, f"{me}-{index}", me.encode() * 100)
    for index in range(50):
        assert _await(store, f"{other}-{index}") == other.encode() * 100
    put(store, f"{me}-saw-{other}", b"yes")
    _await(store, f"{other}-saw-{me}")


def test_two_live_writers_see_each_other(tmp_path, quiet):
    spawn = multiprocessing.get_context("spawn")
    writers = [
        spawn.Process(target=_chatty_writer, args=(tmp_path, me, other))
        for me, other in (("a", "b"), ("b", "a"))
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=120)
    assert [writer.exitcode for writer in writers] == [0, 0]
    assert len(segments(tmp_path)) == 2  # one per writer, nobody shares
    reader = tier(tmp_path)
    assert all(get(reader, f"{who}-{i}") for who in "ab" for i in range(50))


@needs_fork
def test_forked_child_opens_its_own_segment_and_keeps_its_own_offsets(tmp_path, quiet):
    store = tier(tmp_path)
    put(store, "parent-before", b"p" * 100)
    (parent_segment,) = segments(tmp_path)
    child = os.fork()
    if child == 0:
        status = 1
        try:
            put(store, "child", b"c" * 100)
            # The inherited index must keep growing with the parent's
            # segment, from where the child's own scan left off.
            if _await(store, "parent-after", 30.0) == b"q" * 100:
                status = 0
        finally:
            os._exit(status)
    put(store, "parent-after", b"q" * 100)
    assert _await(store, "child") == b"c" * 100
    _pid, status = os.waitpid(child, 0)
    assert status == 0
    assert len(segments(tmp_path)) == 2
    assert b"child" not in parent_segment.read_bytes()
    reader = tier(tmp_path)
    assert [get(reader, n)[:1] for n in ("parent-before", "child", "parent-after")] == [
        b"p", b"c", b"q",
    ]


# --------------------------------------------------------------- descriptors


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_reconfiguring_leaks_no_descriptor(tmp_path):
    for index in range(3):  # two older segments for every later open to find
        configure(enabled=True, disk_dir=str(tmp_path)).execute(
            workload, 1.0, seed=index, runner=execute_workload
        )
    reset()
    before = _open_fds()
    for index in range(200):
        cache = configure(enabled=True, disk_dir=str(tmp_path))
        _result, outcome = cache.execute(workload, 1.0, seed=0, runner=execute_workload)
        assert outcome == HIT and cache._disk._segments
    reset()
    assert _open_fds() == before


def test_unwritable_directory_leaves_the_memory_tier_working(tmp_path):
    blocked = tmp_path / "blocked"
    blocked.write_text("a file where the cache directory should be")
    cache = RunCache(disk_dir=str(blocked))
    with pytest.warns(RuntimeWarning, match="skipping run-cache entry") as caught:
        _result, outcome = cache.execute(workload, 1.0, runner=execute_workload)
        assert outcome == MISS
        _result, outcome = cache.execute(workload, 1.0, runner=execute_workload)
        assert outcome == HIT
        cache.execute(workload, 1.0, seed=1, runner=execute_workload)
    assert len(caught) == 1  # once per tier
    assert cache.stats.disk_errors >= 2 and cache.stats.disk_hits == 0
