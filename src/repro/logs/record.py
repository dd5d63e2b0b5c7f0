"""Log record model shared by the simulator, the parser, and the Explorer.

A :class:`LogRecord` is one line of a system log.  Records carry a *virtual*
timestamp (seconds of simulated time), the name of the thread (task) that
emitted them, a severity level, and the rendered message text.  Records
emitted by the simulator additionally carry the source location of the
logging statement, which the Explorer never uses (production logs do not
have it) but which tests use to validate template matching.

A :class:`LogFile` stores those five fields as columns, from the
simulator's logger through the run cache and the fork pipe to the
comparator; a :class:`LogRecord` is the row view built on read.
"""

from __future__ import annotations

import dataclasses
import enum
from array import array
from typing import Iterable, Iterator, Optional


class Level(enum.IntEnum):
    """Severity levels, ordered like Log4j."""

    TRACE = 0
    DEBUG = 10
    INFO = 20
    WARN = 30
    ERROR = 40
    FATAL = 50

    @classmethod
    def parse(cls, text: str) -> "Level":
        """Parse a level name such as ``"WARN"`` or ``"warning"``."""
        normalized = text.strip().upper()
        aliases = {"WARNING": "WARN", "CRITICAL": "FATAL", "ERR": "ERROR"}
        normalized = aliases.get(normalized, normalized)
        try:
            return cls[normalized]
        except KeyError:
            raise ValueError(f"unknown log level: {text!r}") from None


@dataclasses.dataclass(frozen=True)
class SourceRef:
    """Source location of a logging statement or fault site."""

    file: str
    line: int
    function: str

    def __str__(self) -> str:
        return f"{self.file}:{self.line}({self.function})"


@dataclasses.dataclass(slots=True, unsafe_hash=True)
class LogRecord:
    """One log line: a row of a :class:`LogFile`, built when read.

    ``time`` is virtual seconds since the start of the run.  ``thread`` is
    the emitting task's name.  ``message`` is the fully rendered text.
    ``source`` is only present for records produced in-process by the
    simulator's logger, one shared object per call site.  Immutable by
    convention, not by ``frozen=True``, whose ``__init__`` would pay five
    ``object.__setattr__`` calls per row; nothing assigns to a record.
    """

    time: float
    thread: str
    level: Level
    message: str
    source: Optional[SourceRef] = None

    def format_line(self, style: str = "log4j") -> str:
        """Render this record as a text log line.

        ``style`` is "log4j" (the default convention) or "kafka" (level
        first, bracketed timestamp) — the two real-world formats the
        parser ships configurations for.
        """
        return _format_line(
            style, self.time, self.thread, self.level, self.message
        )


def _format_line(
    style: str, time: float, thread: str, level: Level, message: str
) -> str:
    stamp = format_timestamp(time)
    if style == "kafka":
        return f"[{stamp}] {level.name} [{thread}] {message}"
    return f"{stamp} [{thread}] {level.name} - {message}"


def format_timestamp(time_s: float) -> str:
    """Render virtual seconds as ``HH:MM:SS,mmm`` (Log4j style).

    Virtual time starts at zero; we render it as a clock starting at
    10:00:00 so the text looks like a production log and so that the
    sanitizer genuinely has timestamps to strip.
    """
    millis = int(round(time_s * 1000.0))
    hours, rem = divmod(millis, 3_600_000)
    minutes, rem = divmod(rem, 60_000)
    seconds, ms = divmod(rem, 1000)
    return f"2024-03-01 {10 + hours:02d}:{minutes:02d}:{seconds:02d},{ms:03d}"


class LogFile:
    """A run's log, as columns: one entry per record.

    Record ``i`` was emitted at virtual time ``times[i]`` by thread
    ``thread_names[i]`` at ``levels[i]``, reads ``texts[i]``, and came
    from the logging line ``sources[i]`` (``None`` for a parsed log).
    The simulator's logger appends one value per column and builds
    nothing per record; readers on the search's hot path read the
    columns.  A log pickles as its columns, so pickle's memo stores a
    repeated thread name, level or source once per blob.

    As a sequence (``len``, iteration, ``log[i]``, :attr:`records`) it
    reads as :class:`LogRecord` rows, built on demand; ``log[a:b]`` is a
    :class:`LogFile`, and ``prefix + suffix`` concatenates two.  Equality
    and hashing are by identity: a log is the identity of the run (or
    the failure) it came from.
    """

    __slots__ = (
        "times", "thread_names", "levels", "texts", "sources", "__weakref__"
    )

    def __init__(self, records: Iterable[LogRecord] = ()) -> None:
        self.times = array("d")
        self.thread_names: list[str] = []
        self.levels: list[Level] = []
        self.texts: list[str] = []
        self.sources: list[Optional[SourceRef]] = []
        for record in records:
            self.append(record)

    def _columns(self) -> tuple:
        return (
            self.times, self.thread_names, self.levels, self.texts,
            self.sources,
        )

    #: A pickle stores the five columns.
    __getstate__ = _columns

    def __setstate__(self, columns: tuple) -> None:
        (
            self.times, self.thread_names, self.levels, self.texts,
            self.sources,
        ) = columns

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[LogRecord]:
        return map(LogRecord, *self._columns())

    def __getitem__(self, item):
        """The record at an ``int`` index, or a :class:`LogFile` of a slice."""
        if isinstance(item, slice):
            log = LogFile()
            log.__setstate__(
                tuple(column[item] for column in self._columns())
            )
            return log
        return LogRecord(
            self.times[item], self.thread_names[item], self.levels[item],
            self.texts[item], self.sources[item],
        )

    def __add__(self, other: "LogFile") -> "LogFile":
        log = LogFile()
        log.__setstate__(
            tuple(
                mine + theirs
                for mine, theirs in zip(self._columns(), other._columns())
            )
        )
        return log

    def append(self, record: LogRecord) -> None:
        self.times.append(record.time)
        self.thread_names.append(record.thread)
        self.levels.append(record.level)
        self.texts.append(record.message)
        self.sources.append(record.source)

    @property
    def records(self) -> list[LogRecord]:
        return list(self)

    def threads(self) -> list[str]:
        """All thread names in first-appearance order."""
        return list(dict.fromkeys(self.thread_names))

    def by_thread(self) -> dict[str, list[LogRecord]]:
        """Group records by thread name, preserving per-thread order."""
        groups: dict[str, list[LogRecord]] = {}
        for record in self:
            groups.setdefault(record.thread, []).append(record)
        return groups

    def to_text(self, style: str = "log4j") -> str:
        """Serialize to text, one line per record, in the given style."""
        return "".join(
            _format_line(style, time, thread, level, message) + "\n"
            for time, thread, level, message in zip(
                self.times, self.thread_names, self.levels, self.texts
            )
        )

    def messages(self) -> list[str]:
        return list(self.texts)
