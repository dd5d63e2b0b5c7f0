"""Simulated disk.

A flat path → bytes store with append support.  The real fault surface is
the :mod:`repro.sim.env` boundary in front of this class; the disk itself
is intentionally reliable so that injected faults are the only faults.
"""

from __future__ import annotations

from .errors import FileNotFoundException


class Disk:
    """Per-cluster shared storage (each system namespaces its own paths)."""

    def __init__(self) -> None:
        self._files: dict[str, bytes] = {}

    def write(self, path: str, data: bytes) -> None:
        self._files[path] = bytes(data)

    def append(self, path: str, data: bytes) -> None:
        self._files[path] = self._files.get(path, b"") + bytes(data)

    def read(self, path: str) -> bytes:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundException(path) from None

    def exists(self, path: str) -> bool:
        return path in self._files

    def delete(self, path: str) -> None:
        self._files.pop(path, None)

    def listdir(self, prefix: str) -> list[str]:
        return sorted(path for path in self._files if path.startswith(prefix))

    def size(self, path: str) -> int:
        return len(self.read(path))

    def truncate(self, path: str, length: int) -> None:
        self._files[path] = self.read(path)[:length]
