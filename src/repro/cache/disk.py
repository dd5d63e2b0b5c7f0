"""One directory of persistent records: the append-only segment store
both tiers (run results, module facts) share (DESIGN §8.1).

Each writing process owns one segment file and appends whole records —
checksummed header, entry name, payload — with one ``os.write``.  A
reader indexes the headers of every segment it finds (last record of a
name wins), reads payloads by ``pread``, and on an index miss looks
again for what other writers appended since.  Nothing here is fatal: a
record that fails its checksum or its decoder is *skipped* — counted,
with one ``RuntimeWarning`` per tier — a tail still being written (or
torn by a crash) is not there yet, and an unwritable directory leaves
the memory tier working.
"""

from __future__ import annotations

import os
import struct
import time
import warnings
import zlib
from typing import Callable

#: Part of the segment suffix: files of other versions (and the per-entry
#: ``*.pkl`` / ``*.json`` files of versions ≤ 6) are never opened.
FORMAT_VERSION = 7
_SUFFIX = f".seg{FORMAT_VERSION}"
_MAGIC = b"RC%c\n" % FORMAT_VERSION
#: magic, name length, payload length, payload crc32; then the crc32 of
#: these fields plus the name, then the name, then the payload.
_FIELDS = struct.Struct("<4sBII")
_CRC = struct.Struct("<I")
_HEAD_SIZE = _FIELDS.size + _CRC.size


class DiskTier:
    """Records under ``directory``; ``what`` names the tier in warnings."""

    def __init__(
        self, directory: str, what: str, on_error: Callable[[], None]
    ) -> None:
        self.directory = directory
        self.what = what
        self._failed = on_error
        self._warned = False
        #: name -> (fd, payload offset, payload length, payload crc32)
        self._index: dict[bytes, tuple[int, int, int, int]] = {}
        #: file name -> [fd, offset scanned (own segment: written) so far]
        self._segments: dict[str, list] = {}
        #: (pid, segment) appended to; a forked child opens its own.
        self._own = None

    def _skip(self, where: str, error: Exception) -> None:
        self._failed()
        if not self._warned:
            self._warned = True
            warnings.warn(
                f"skipping {self.what} entry {where} under "
                f"{self.directory} ({type(error).__name__}: {error}); "
                f"further failures of this tier are skipped silently",
                RuntimeWarning,
                stacklevel=4,
            )

    def _refresh(self) -> None:
        """Index what appeared since the last call: new segment files,
        then records past each segment's scanned offset."""
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return
        for name in sorted(names):  # creation order: a later record wins
            if name.endswith(_SUFFIX) and name not in self._segments:
                fd = os.open(os.path.join(self.directory, name), os.O_RDONLY)
                self._segments[name] = [fd, 0]
        for name, segment in self._segments.items():
            fd, offset = segment
            size = os.fstat(fd).st_size
            while offset + _HEAD_SIZE <= size:
                chunk = os.pread(fd, _HEAD_SIZE + 255, offset)
                magic, name_size, length, crc = _FIELDS.unpack_from(chunk)
                start = offset + _HEAD_SIZE + name_size
                if start > size:
                    break
                key = chunk[_HEAD_SIZE:_HEAD_SIZE + name_size]
                (head_crc,) = _CRC.unpack_from(chunk, _FIELDS.size)
                if magic != _MAGIC or head_crc != zlib.crc32(
                    chunk[:_FIELDS.size] + key
                ):
                    # Where the next record starts is lost with it: the
                    # rest of this segment is never looked at again.
                    offset = float("inf")
                    self._skip(f"header in {name}", ValueError("bad header"))
                    break
                if start + length > size:
                    break  # still being written, or torn by a crash
                self._index[key] = (fd, start, length, crc)
                offset = start + length
            segment[1] = offset

    def read(self, name: str, decode: Callable[[bytes], object]):
        """``decode(payload)`` of the latest record called ``name``;
        ``None`` when there is none or when reading or decoding it
        raised (counted, and the record dropped from the index)."""
        key = name.encode()
        try:
            if key not in self._index:
                self._refresh()
            entry = self._index.get(key)
            if entry is None:
                return None
            fd, offset, length, crc = entry
            data = os.pread(fd, length, offset)
            if len(data) != length or zlib.crc32(data) != crc:
                raise ValueError("checksum mismatch")
            return decode(data)
        except Exception as error:
            self._index.pop(key, None)
            self._skip(name, error)
            return None

    def write(self, name: str, encode: Callable[[], bytes]) -> None:
        """Append ``encode()`` as the record ``name``; a failure
        (unencodable value, unwritable or full directory) is counted."""
        try:
            payload = encode()
            key = name.encode()
            crc = zlib.crc32(payload)
            fields = _FIELDS.pack(_MAGIC, len(key), len(payload), crc)
            record = fields + _CRC.pack(zlib.crc32(fields + key)) + key + payload
            pid = os.getpid()
            if self._own is None or self._own[0] != pid:
                os.makedirs(self.directory, exist_ok=True)
                file_name = f"{time.time_ns():016x}-{pid}{_SUFFIX}"
                fd = os.open(
                    os.path.join(self.directory, file_name),
                    os.O_RDWR | os.O_CREAT | os.O_EXCL | os.O_APPEND,
                    0o644,
                )
                segment = self._segments[file_name] = [fd, 0]
                self._own = (pid, segment)
            segment = self._own[1]
            fd, offset = segment
            if os.write(fd, record) != len(record):
                self._own = None  # a torn record stays the last of its file
                raise OSError("short write")
            segment[1] = offset + len(record)
            self._index[key] = (fd, segment[1] - len(payload), len(payload), crc)
        except Exception as error:
            self._skip(name, error)

    def close(self) -> None:
        """Return every descriptor; the tier reopens on its next use."""
        for fd, _offset in self._segments.values():
            os.close(fd)
        self._segments.clear()
        self._index.clear()
        self._own = None
