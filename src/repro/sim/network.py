"""Simulated message network.

Nodes register named inboxes; sends are delivered after a small fixed
latency, preserving per-link FIFO order.  Partitions and unregistered
destinations fail sends with real (non-injected) exceptions so that the
mini systems exercise their error handling even without the FIR.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from .errors import ConnectException, SocketException
from .scheduler import Simulator
from .sync import Queue

#: Fixed one-way delivery latency in virtual seconds.
DEFAULT_LATENCY = 0.001


@dataclasses.dataclass(slots=True, unsafe_hash=True)
class Message:
    """A network datagram.  Immutable by convention, not by ``frozen=True``,
    whose ``__init__`` would pay five ``object.__setattr__`` calls per send
    (DESIGN §2.1); nothing assigns to a message, a corruption copies it."""

    src: str
    dst: str
    kind: str
    payload: Any = None
    reply_to: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.kind} {self.src}->{self.dst}"


class Network:
    def __init__(self, sim: Simulator, latency: float = DEFAULT_LATENCY) -> None:
        self._sim = sim
        self._latency = latency
        self._inboxes: dict[str, Queue] = {}
        self._partitioned: set[tuple[str, str]] = set()
        self.sent_count = 0
        #: Messages that actually reached an inbox after the link latency
        #: (a send counts as delivered only when its delayed callback ran).
        self.delivered_count = 0

    def register(self, name: str) -> Queue:
        """Create (or return) the inbox for endpoint ``name``."""
        if name not in self._inboxes:
            self._inboxes[name] = Queue(self._sim, name=f"inbox:{name}")
        return self._inboxes[name]

    def unregister(self, name: str) -> None:
        self._inboxes.pop(name, None)

    def inbox(self, name: str) -> Queue:
        try:
            return self._inboxes[name]
        except KeyError:
            raise ConnectException(f"no route to {name}") from None

    def partition(self, src: str, dst: str) -> None:
        self._partitioned.add((src, dst))

    def heal(self, src: str, dst: str) -> None:
        self._partitioned.discard((src, dst))

    def reachable(self, src: str, dst: str) -> bool:
        return dst in self._inboxes and (src, dst) not in self._partitioned

    def send(self, message: Message) -> None:
        """Deliver after the link latency; raises when the link is down."""
        if (message.src, message.dst) in self._partitioned:
            raise SocketException(
                f"connection from {message.src} to {message.dst} lost"
            )
        inbox = self._inboxes.get(message.dst)
        if inbox is None:
            raise ConnectException(f"connection refused by {message.dst}")
        self.sent_count += 1
        sim = self._sim
        sim.post_at(sim.now + self._latency, self._deliver, inbox, message)

    def _deliver(self, inbox: Queue, message: Message) -> None:
        self.delivered_count += 1
        inbox.put_nowait(message)
