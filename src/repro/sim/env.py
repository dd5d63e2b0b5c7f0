"""The environment boundary: every fault site lives here.

Mini systems never touch the disk or the network directly; they call the
methods of an :class:`Env` handle.  Each method is the analog of a
standard-library / third-party call in the paper's targets — the
*external-exception* sources of the causal graph (§4.1) — and each one
reports its caller's source location to the FIR before doing the real
work, which gives the FIR the chance to throw the planned exception at
exactly that site and occurrence.

``ENV_OPS`` maps each operation to the exception types it can throw; the
static analyzer uses the same table to enumerate fault candidates, so the
static and dynamic fault spaces agree by construction.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Optional, TYPE_CHECKING

from ..injection.corruptions import ENV_OP_CORRUPTIONS  # noqa: F401 (re-export)
from ..injection.sites import SiteRef, normalize_path
from .errors import TimeoutIOException
from .network import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cluster import Cluster

#: op name -> exception type names the op can raise (ordered: most typical
#: first; the analyzer emits one fault candidate per type).
ENV_OPS: dict[str, tuple[str, ...]] = {
    "disk_write": ("IOException",),
    "disk_append": ("IOException",),
    "disk_read": ("IOException", "FileNotFoundException", "EOFException"),
    "disk_delete": ("IOException",),
    "disk_list": ("IOException",),
    "disk_sync": ("IOException", "TimeoutIOException"),
    "sock_connect": ("ConnectException", "SocketException"),
    "sock_send": ("SocketException", "IOException"),
    "sock_recv": ("IOException", "EOFException", "SocketException"),
    "codec_decode": ("IOException", "EOFException"),
    "net_transfer": ("IOException", "TimeoutIOException", "InterruptedException"),
}


#: Interned SiteRefs keyed by (filename, line, op), and ``slog``'s log
#: SourceRefs by (filename, line).  A mini system has a few hundred
#: static sites but executes them millions of times per campaign; reusing
#: one ref per site skips the per-call dataclass allocation and keeps a
#: SiteRef's cached ``site_id`` warm.  Keying on the filename string
#: (whose hash is computed once and cached by the str object) rather than
#: the code object keeps entries valid across module reloads — a
#: regenerated module gets fresh code objects but the same file/line
#: identity — and stops the cache pinning dead code objects.
_SITE_CACHE: dict[tuple, Any] = {}


def clear_site_cache() -> None:
    """Drop all interned sites (call when a workload module is reloaded).

    Entries are keyed by file/line, so a reload of *unchanged* source
    keeps serving correct identities even without a clear; clearing is
    for edited/regenerated modules (the ``repro gen`` direction) where a
    cached line may no longer match the new source, and it bounds the
    cache across many generated workloads.
    """
    _SITE_CACHE.clear()


class Env:
    """Environment handle bound to one cluster.

    All methods are synchronous: time passes only at explicit sleeps and
    waits, so an env call is an atomic step of the calling task.
    """

    def __init__(self, cluster: "Cluster") -> None:
        self._cluster = cluster

    def _site(self, op: str) -> Optional[Callable[[Any], Any]]:
        """Report the *caller's* location as a fault site.

        May raise (injected exception), and may return a value-corruption
        applier that the read-path ops run their result through.
        """
        frame = sys._getframe(2)
        code = frame.f_code
        key = (code.co_filename, frame.f_lineno, op)
        site = _SITE_CACHE.get(key)
        if site is None:
            site = SiteRef(
                file=normalize_path(code.co_filename),
                line=frame.f_lineno,
                function=code.co_name,
                op=op,
            )
            _SITE_CACHE[key] = site
        return self._cluster.fir.on_site(site)

    # -------------------------------------------------------------------- disk

    def disk_write(self, path: str, data: bytes) -> None:
        self._site("disk_write")
        self._cluster.disk.write(path, data)

    def disk_append(self, path: str, data: bytes) -> None:
        self._site("disk_append")
        self._cluster.disk.append(path, data)

    def disk_read(self, path: str) -> bytes:
        corrupt = self._site("disk_read")
        data = self._cluster.disk.read(path)
        return corrupt(data) if corrupt is not None else data

    def disk_delete(self, path: str) -> None:
        self._site("disk_delete")
        self._cluster.disk.delete(path)

    def disk_list(self, prefix: str) -> list[str]:
        corrupt = self._site("disk_list")
        names = self._cluster.disk.listdir(prefix)
        return corrupt(names) if corrupt is not None else names

    def disk_sync(self, path: str) -> None:
        self._site("disk_sync")
        if not self._cluster.disk.exists(path):
            raise TimeoutIOException(f"sync of missing file {path}")

    # ----------------------------------------------------------------- network

    def sock_connect(self, src: str, dst: str) -> None:
        """Check that ``dst`` is reachable from ``src``."""
        self._site("sock_connect")
        # Reachability errors are organic faults; raise through the inbox
        # lookup which produces ConnectException.
        self._cluster.net.inbox(dst)

    def sock_send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: Any = None,
        reply_to: str | None = None,
    ) -> None:
        self._site("sock_send")
        self._cluster.net.send(
            Message(src=src, dst=dst, kind=kind, payload=payload, reply_to=reply_to)
        )

    def sock_recv(self, message: Message) -> Message:
        """Deserialize a message pulled off an inbox (receive-side site)."""
        corrupt = self._site("sock_recv")
        return corrupt(message) if corrupt is not None else message

    def codec_decode(self, blob: Any) -> Any:
        """Decode serialized data (protobuf / WAL codec analog)."""
        corrupt = self._site("codec_decode")
        return corrupt(blob) if corrupt is not None else blob

    def net_transfer(self, src: str, dst: str, size: int) -> int:
        """Bulk data transfer (image upload, balancer move, streaming).

        Unlike :meth:`sock_send`, a transfer is interruptible, so it can
        also fail with ``InterruptedException``.
        """
        corrupt = self._site("net_transfer")
        if not self._cluster.net.reachable(src, dst):
            from .errors import SocketException

            raise SocketException(f"transfer from {src} to {dst} failed")
        return corrupt(size) if corrupt is not None else size
