"""In-memory transport: named endpoints exchanging datagrams.

The paper's testbed connects an Android client to a PC server over WiFi +
SSL sockets.  Our substitute is an in-process network with named endpoints
and FIFO delivery, over which :class:`repro.net.channel.SecureChannel`
provides the SSL-equivalent protection and
:class:`repro.net.latency.LatencyModel` accounts for the air time.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Set, Tuple

from repro.errors import TransportError
from repro.obs.metrics import (
    M_NET_MESSAGES,
    M_NET_MESSAGE_BYTES,
    metric_inc,
    metric_observe,
)
from repro.obs.trace import record_bytes

__all__ = ["InMemoryNetwork", "Endpoint"]


class InMemoryNetwork:
    """A hub of named endpoints with per-destination FIFO queues.

    A destination's queue exists only while it holds datagrams: it is made
    on the first send and dropped when ``recv`` empties it, so short-lived
    endpoints (two per user in a round trip) leave only their names behind.
    """

    def __init__(self) -> None:
        self._names: Set[str] = set()
        self._queues: Dict[str, Deque[Tuple[str, bytes]]] = {}
        self.bytes_sent = 0
        self.messages_sent = 0

    def endpoint(self, name: str) -> "Endpoint":
        """Register a new named endpoint."""
        if name in self._names:
            raise TransportError(f"endpoint {name!r} already exists")
        self._names.add(name)
        return Endpoint(self, name)

    def _check_known(self, name: str) -> None:
        if name not in self._names:
            raise TransportError(f"no endpoint named {name!r}")

    def _send(self, source: str, dest: str, datagram: bytes) -> None:
        self._check_known(dest)
        self.bytes_sent += len(datagram)
        self.messages_sent += 1
        metric_inc(M_NET_MESSAGES)
        metric_observe(M_NET_MESSAGE_BYTES, len(datagram))
        record_bytes("sent", len(datagram))
        queue = self._queues.get(dest)
        if queue is None:
            queue = self._queues[dest] = deque()
        queue.append((source, datagram))

    def _recv(self, name: str) -> Tuple[str, bytes]:
        self._check_known(name)
        queue = self._queues.get(name)
        if queue is None:
            raise TransportError(f"no pending datagram for {name!r}")
        item = queue.popleft()
        if not queue:
            del self._queues[name]
        return item

    def pending(self, name: str) -> int:
        """Number of undelivered datagrams waiting at this endpoint."""
        self._check_known(name)
        queue = self._queues.get(name)
        return 0 if queue is None else len(queue)


class Endpoint:
    """One party's attachment to the network."""

    def __init__(self, network: InMemoryNetwork, name: str) -> None:
        self._network = network
        self.name = name

    def send(self, dest: str, datagram: bytes) -> None:
        """Queue a datagram for a destination endpoint."""
        self._network._send(self.name, dest, datagram)

    def recv(self) -> Tuple[str, bytes]:
        """Pop the next (source, datagram) pair; raises when empty."""
        return self._network._recv(self.name)

    def pending(self) -> int:
        """Number of undelivered datagrams waiting at this endpoint."""
        return self._network.pending(self.name)
