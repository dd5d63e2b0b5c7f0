"""One directory of persistent entries: the discipline every tier (run
results, flow graphs, module facts) shares.  Writes are atomic (temp
file + ``os.replace``); a corrupt, truncated or unreadable entry is
*skipped and removed* — never fatal — with one ``RuntimeWarning`` per
tier; an unwritable directory leaves the memory tier working.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable


class DiskTier:
    """Entries under ``directory``; ``what`` names the tier in warnings."""

    def __init__(
        self, directory: str, what: str, on_error: Callable[[], None]
    ) -> None:
        self.directory = directory
        self.what = what
        self._failed = on_error
        self._warned = False

    def read(self, name: str, decode: Callable[[bytes], object]):
        """``decode(entry bytes)``, or ``None`` when the entry is absent
        or — after it was counted, warned about once and removed — when
        reading or decoding it raised."""
        path = os.path.join(self.directory, name)
        try:
            with open(path, "rb") as handle:
                return decode(handle.read())
        except FileNotFoundError:
            return None
        except Exception as error:
            self._failed()
            if not self._warned:
                self._warned = True
                warnings.warn(
                    f"skipping corrupt {self.what} entry {path} "
                    f"({type(error).__name__}: {error}); further corrupt "
                    f"entries are skipped silently",
                    RuntimeWarning,
                    stacklevel=4,
                )
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def write(self, name: str, encode: Callable[[], bytes]) -> None:
        """Store ``encode()`` as entry ``name``; a failure (unencodable
        value, unwritable directory) is counted and otherwise silent."""
        import tempfile  # a warm process only reads

        try:
            os.makedirs(self.directory, exist_ok=True)
            payload = encode()
            fd, temp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(temp_path, os.path.join(self.directory, name))
            except BaseException:
                try:
                    os.remove(temp_path)
                except OSError:
                    pass
                raise
        except Exception:
            self._failed()
