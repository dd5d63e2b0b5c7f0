"""In-simulation logging.

Mini systems log through :class:`SimLogger`, which renders ``%s``-style
templates (the same convention the static analyzer extracts as
:class:`~repro.logs.sanitize.LogTemplate`) and attributes each record to
the currently running task — that attribution is what makes the per-thread
diff of §5.1.1 meaningful.

``SimLogger.exception`` appends a Java-style stack trace rendered from the
Python traceback, so failure logs contain the material the
stacktrace-injector baseline (§8.4) parses.
"""

from __future__ import annotations

import sys
import traceback
from typing import Any, Optional

from ..logs.record import Level, LogFile, SourceRef
from .env import _SITE_CACHE
from .scheduler import Simulator


class LogCollector:
    """Accumulates the records of one run.

    ``log`` is the same :class:`LogFile` for the collector's whole life,
    and so are its columns: the FIR binds one column's ``__len__`` as
    its log-index reader.
    """

    def __init__(self) -> None:
        self.log = LogFile()

    def __len__(self) -> int:
        return len(self.log)


def render_stack_trace(exc: BaseException, limit: int = 12) -> str:
    """Render an exception's traceback in Java log style.

    Frames from the simulator internals are dropped; only system-code
    frames appear, which is what a JVM stack trace would show.
    """
    lines = [f"{type(exc).__name__}: {exc}"]
    tb_frames = traceback.extract_tb(exc.__traceback__)
    for frame in tb_frames[-limit:]:
        filename = frame.filename
        if "/repro/sim/" in filename or "/repro/injection/" in filename:
            continue
        lines.append(f"\tat {frame.name}({filename.rsplit('/', 1)[-1]}:{frame.lineno})")
    cause = getattr(exc, "cause", None)
    if isinstance(cause, BaseException):
        lines.append(f"Caused by: {type(cause).__name__}: {cause}")
    return "\n".join(lines)


class SimLogger:
    """A named logger bound to the simulator clock and current task."""

    def __init__(
        self,
        sim: Simulator,
        collector: LogCollector,
        default_thread: str = "main",
    ) -> None:
        self._sim = sim
        self._log = collector.log
        self._default_thread = default_thread

    def _emit(self, level: Level, template: str, args: tuple[Any, ...]) -> None:
        message = template % args if args else template
        frame = sys._getframe(2)
        code = frame.f_code
        # One SourceRef per logging line, interned beside the env's fault
        # sites (a 2-tuple key never equals their 3-tuple ones).
        key = (code.co_filename, frame.f_lineno)
        source = _SITE_CACHE.get(key)
        if source is None:
            source = _SITE_CACHE[key] = SourceRef(*key, code.co_name)
        sim = self._sim
        task = sim.current_task
        log = self._log
        log.times.append(sim.now)
        log.thread_names.append(
            self._default_thread if task is None else task.name
        )
        log.levels.append(level)
        log.texts.append(message)
        log.sources.append(source)

    def debug(self, template: str, *args: Any) -> None:
        self._emit(Level.DEBUG, template, args)

    def info(self, template: str, *args: Any) -> None:
        self._emit(Level.INFO, template, args)

    def warn(self, template: str, *args: Any) -> None:
        self._emit(Level.WARN, template, args)

    def error(self, template: str, *args: Any) -> None:
        self._emit(Level.ERROR, template, args)

    def fatal(self, template: str, *args: Any) -> None:
        self._emit(Level.FATAL, template, args)

    def exception(
        self,
        template: str,
        *args: Any,
        exc: Optional[BaseException] = None,
        level: Level = Level.ERROR,
    ) -> None:
        """Log a message followed by the exception's stack trace."""
        message = template % args if args else template
        if exc is not None:
            message = message + "\n" + render_stack_trace(exc)
        self._emit(level, "%s", (message,))
