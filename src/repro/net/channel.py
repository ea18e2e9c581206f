"""Secure channel: encrypt-then-MAC over a transport endpoint.

Stands in for the paper's "SSL socket ... packages are sent with the mode
Encrypt-then-MAC": every protocol message is sealed with AES-CTR +
HMAC-SHA256 under a per-channel session key before it touches the transport.
A direction label and the sequence number are bound into the associated
data on both sides, so reordering, replaying or reflecting ciphertexts back
to their sender fails authentication.

Session-key establishment itself (the SSL handshake) is out of the paper's
scope; channels are constructed with a pre-shared session key, which the
test and experiment harnesses mint per connection.
"""

from __future__ import annotations

from repro.crypto.modes import AeadCiphertext, EtMCipher
from repro.errors import ProtocolError
from repro.net.messages import Message, decode_message
from repro.net.transport import Endpoint
from repro.obs.metrics import (
    M_CHANNEL_MESSAGES,
    M_CHANNEL_RECEIVED_BYTES,
    M_CHANNEL_SENT_BYTES,
    metric_inc,
    metric_observe,
)
from repro.obs.trace import record_bytes
from repro.utils.rand import SystemRandomSource

__all__ = ["SecureChannel"]


class SecureChannel:
    """One end of a secure session between two endpoints."""

    def __init__(
        self,
        endpoint: Endpoint,
        peer: str,
        session_key: bytes,
        rng: SystemRandomSource | None = None,
    ) -> None:
        self._endpoint = endpoint
        self._peer = peer
        # one label per direction, named by which end's name sorts first:
        # both ends derive the same pair, so a datagram only opens at the
        # end it was sent to, never back at its sender
        forward = endpoint.name < peer
        self._send_label = b"msg>" if forward else b"msg<"
        self._recv_label = b"msg<" if forward else b"msg>"
        self._cipher = EtMCipher(session_key)
        self._rng = rng or SystemRandomSource()
        self._send_seq = 0
        self._recv_seq = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def _aad(self, direction: bytes, seq: int) -> bytes:
        return direction + seq.to_bytes(8, "big")

    def send(self, message: Message) -> int:
        """Seal and transmit a protocol message; returns wire bytes used."""
        sealed = self._cipher.seal(
            message.encode(),
            aad=self._aad(self._send_label, self._send_seq),
            rng=self._rng,
        )
        self._send_seq += 1
        datagram = sealed.encode()
        self._endpoint.send(self._peer, datagram)
        self.bytes_sent += len(datagram)
        metric_inc(M_CHANNEL_MESSAGES)
        metric_observe(M_CHANNEL_SENT_BYTES, len(datagram))
        return len(datagram)

    def recv(self) -> Message:
        """Receive, authenticate, and decode the next message."""
        source, datagram = self._endpoint.recv()
        if source != self._peer:
            raise ProtocolError(
                f"datagram from unexpected peer {source!r}"
            )
        sealed = AeadCiphertext.decode(datagram)
        plaintext = self._cipher.open(
            sealed, aad=self._aad(self._recv_label, self._recv_seq)
        )
        self._recv_seq += 1
        self.bytes_received += len(datagram)
        metric_observe(M_CHANNEL_RECEIVED_BYTES, len(datagram))
        record_bytes("received", len(datagram))
        return decode_message(plaintext)

    def pending(self) -> int:
        """Number of undelivered datagrams waiting at this endpoint."""
        return self._endpoint.pending()

    @staticmethod
    def pair(
        network_endpoint_a: Endpoint,
        network_endpoint_b: Endpoint,
        session_key: bytes,
    ) -> tuple["SecureChannel", "SecureChannel"]:
        """Two ends of one session sharing a key (test convenience)."""
        a = SecureChannel(
            network_endpoint_a, network_endpoint_b.name, session_key
        )
        b = SecureChannel(
            network_endpoint_b, network_endpoint_a.name, session_key
        )
        return a, b
