"""A columnar ``LogFile`` reads exactly like the list of rows it holds.

Random rows and cut points: the log survives a pickle round trip, a
slice pair concatenates back to the whole, and every row-shaped reader
(``len``, iteration, ``log[i]``, ``by_thread``, ``to_text``) agrees
with the same readers computed over a plain list of ``LogRecord``.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logs.record import (
    Level, LogFile, LogRecord, SourceRef, format_timestamp,
)

SOURCES = st.sampled_from(
    [None, SourceRef("wal.py", 12, "roll"), SourceRef("zk.py", 40, "sync")]
)
ROWS = st.lists(
    st.builds(
        LogRecord,
        time=st.floats(0, 7200, allow_nan=False),
        thread=st.sampled_from(["main", "worker-1", "RS-Worker-317"]),
        level=st.sampled_from(list(Level)),
        message=st.text(
            st.characters(blacklist_categories=("Cs",)), max_size=30
        ),
        source=SOURCES,
    ),
    max_size=25,
)


def reference_line(record: LogRecord, style: str) -> str:
    stamp = format_timestamp(record.time)
    level = record.level.name
    if style == "kafka":
        return f"[{stamp}] {level} [{record.thread}] {record.message}\n"
    return f"{stamp} [{record.thread}] {level} - {record.message}\n"


def assert_reads_as(log: LogFile, rows: list) -> None:
    assert len(log) == len(rows)
    assert list(log) == rows
    assert log.records == rows
    assert [log[i] for i in range(len(rows))] == rows
    assert [log[-i] for i in range(1, len(rows) + 1)] == rows[::-1]
    groups: dict = {}
    for row in rows:
        groups.setdefault(row.thread, []).append(row)
    assert log.by_thread() == groups
    assert list(log.by_thread()) == list(groups)
    assert log.threads() == list(groups)
    assert log.messages() == [row.message for row in rows]
    for style in ("log4j", "kafka"):
        assert log.to_text(style) == "".join(
            reference_line(row, style) for row in rows
        )


@given(rows=ROWS, cut=st.integers(0, 30))
@settings(max_examples=120, deadline=None)
def test_columns_read_like_rows(rows, cut):
    log = LogFile(rows)
    assert_reads_as(log, rows)

    restored = pickle.loads(pickle.dumps(log, pickle.HIGHEST_PROTOCOL))
    assert type(restored) is LogFile
    assert_reads_as(restored, rows)

    cut = min(cut, len(rows))
    head, tail = log[:cut], log[cut:]
    assert type(head) is LogFile and type(tail) is LogFile
    assert_reads_as(head, rows[:cut])
    assert_reads_as(tail, rows[cut:])
    assert_reads_as(head + tail, rows)
    # Slices and sums are new logs: the original is untouched.
    assert_reads_as(log, rows)

