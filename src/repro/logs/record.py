"""Log record model shared by the simulator, the parser, and the Explorer.

A :class:`LogRecord` is one line of a system log.  Records carry a *virtual*
timestamp (seconds of simulated time), the name of the thread (task) that
emitted them, a severity level, and the rendered message text.  Records
emitted by the simulator additionally carry the source location of the
logging statement, which the Explorer never uses (production logs do not
have it) but which tests use to validate template matching.
"""

from __future__ import annotations

import dataclasses
import enum
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
    """One log line.

    ``time`` is virtual seconds since the start of the run.  ``thread`` is
    the emitting task's name.  ``message`` is the fully rendered text.
    ``source`` is only present for records produced in-process by the
    simulator's logger, one shared object per call site.  Immutable by
    convention, not by ``frozen=True``, whose ``__init__`` would pay five
    ``object.__setattr__`` calls per line; nothing assigns to a record.
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
        stamp = format_timestamp(self.time)
        if style == "kafka":
            return f"[{stamp}] {self.level.name} [{self.thread}] {self.message}"
        return f"{stamp} [{self.thread}] {self.level.name} - {self.message}"


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
    """An ordered collection of :class:`LogRecord` with helpers.

    The Explorer treats a run's log as an immutable sequence; this class
    provides grouping by thread and text serialization.
    """

    def __init__(self, records: Iterable[LogRecord] = ()) -> None:
        self._records: list[LogRecord] = list(records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def __getitem__(self, index):
        """The record at an ``int`` index, or a list of them for a slice."""
        return self._records[index]

    def append(self, record: LogRecord) -> None:
        self._records.append(record)

    @property
    def records(self) -> list[LogRecord]:
        return list(self._records)

    def threads(self) -> list[str]:
        """All thread names in first-appearance order."""
        seen: dict[str, None] = {}
        for record in self._records:
            seen.setdefault(record.thread, None)
        return list(seen)

    def by_thread(self) -> dict[str, list[LogRecord]]:
        """Group records by thread name, preserving per-thread order."""
        groups: dict[str, list[LogRecord]] = {}
        for record in self._records:
            groups.setdefault(record.thread, []).append(record)
        return groups

    def to_text(self, style: str = "log4j") -> str:
        """Serialize to text, one line per record, in the given style."""
        return "".join(
            record.format_line(style) + "\n" for record in self._records
        )

    def messages(self) -> list[str]:
        return [record.message for record in self._records]
