"""Text log parser.

ANDURIL's input failure log is a plain text file from the production
system.  The parser supports the common Log4j-like convention used by four
of the paper's five systems plus a configurable regex for nonstandard
formats (the paper needed exactly two configurations for five systems, §7).
"""

from __future__ import annotations

import dataclasses
import re
from typing import Iterable, Optional

from .record import Level, LogFile, LogRecord

#: Default Log4j-like line format produced by :meth:`LogRecord.format_line`.
DEFAULT_PATTERN = re.compile(
    r"^(?P<date>\d{4}-\d{2}-\d{2}) "
    r"(?P<time>\d{2}:\d{2}:\d{2}),(?P<millis>\d{3}) "
    r"\[(?P<thread>[^\]]*)\] "
    r"(?P<level>[A-Z]+) - "
    r"(?P<message>.*)$"
)

#: Kafka-style format: level first, time in brackets.
KAFKA_PATTERN = re.compile(
    r"^\[(?P<date>\d{4}-\d{2}-\d{2}) "
    r"(?P<time>\d{2}:\d{2}:\d{2}),(?P<millis>\d{3})\] "
    r"(?P<level>[A-Z]+) "
    r"\[(?P<thread>[^\]]*)\] "
    r"(?P<message>.*)$"
)


@dataclasses.dataclass(frozen=True)
class LogFormat:
    """A named log line format.

    ``pattern`` must define groups ``time``, ``millis``, ``thread``,
    ``level`` and ``message`` (``date`` is optional and ignored: virtual
    runs always start on the same date).
    """

    name: str
    pattern: re.Pattern[str]

    def parse_line(self, line: str) -> Optional[LogRecord]:
        match = self.pattern.match(line.rstrip("\n"))
        if match is None:
            return None
        hours, minutes, seconds = (int(p) for p in match["time"].split(":"))
        time_s = (
            (hours - 10) * 3600.0
            + minutes * 60.0
            + seconds
            + int(match["millis"]) / 1000.0
        )
        return LogRecord(
            time=time_s,
            thread=match["thread"],
            level=Level.parse(match["level"]),
            message=match["message"],
        )


LOG4J_FORMAT = LogFormat("log4j", DEFAULT_PATTERN)
KAFKA_FORMAT = LogFormat("kafka", KAFKA_PATTERN)


class LogParser:
    """Parses text logs into :class:`LogFile`.

    Continuation lines (stack trace frames, wrapped messages) are appended
    to the previous record's message, separated by ``\\n``, mirroring how
    exception stack traces appear under their log line in real logs.
    """

    def __init__(self, formats: Iterable[LogFormat] = (LOG4J_FORMAT,)) -> None:
        self._formats = list(formats)
        if not self._formats:
            raise ValueError("at least one log format is required")

    def parse_text(self, text: str) -> LogFile:
        log = LogFile()
        for line in text.splitlines():
            record = self._parse_line(line)
            if record is not None:
                log.append(record)
            elif line.strip() and log.texts:
                log.texts[-1] += "\n" + line.rstrip()
        return log

    def _parse_line(self, line: str) -> Optional[LogRecord]:
        for fmt in self._formats:
            record = fmt.parse_line(line)
            if record is not None:
                return record
        return None
