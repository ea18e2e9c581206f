"""The untrusted server's request handler.

Glues the match engine to the wire protocol: consumes
:class:`~repro.net.messages.UploadMessage` and
:class:`~repro.net.messages.QueryRequest`, produces
:class:`~repro.net.messages.QueryResult` carrying each matched user's ID and
authentication information (which is all the querier needs to run Vf).

The honest server implemented here follows the protocol exactly; the
malicious variants live in :mod:`repro.server.adversary`.
"""

from __future__ import annotations

import pathlib
import time
from typing import Optional, Union

from repro.errors import ProtocolError
from repro.net.messages import (
    Message,
    QueryRequest,
    QueryResult,
    UploadMessage,
)
from repro.obs.logs import get_logger
from repro.obs.metrics import (
    DURATION_US_BUCKETS,
    M_SERVER_HANDLER_LATENCY_US,
    M_SERVER_QUERIES,
    M_SERVER_RESULTS,
    M_SERVER_UPLOADS,
    metric_inc,
    metric_observe,
)
from repro.obs.trace import span
from repro.server.sharding.tier import ShardedTier

__all__ = ["SMatchServer"]

_log = get_logger("server")


class SMatchServer:
    """An honest-but-curious S-MATCH server.

    The match engine is a :class:`~repro.server.sharding.tier.ShardedTier`
    (``tier``): key-index groups placed across ``shards`` shards, each its
    own :class:`~repro.server.storage.ProfileStore` +
    :class:`~repro.server.matcher.ServerMatcher`.  The default is one
    in-process shard; ``shard_mode="process"`` runs each shard in its own
    worker process, and ``data_dir`` adds per-shard WAL + snapshot
    durability, from which a server reopened on the same directory
    recovers.  Every configuration produces byte-identical
    :class:`QueryResult` encodings (``tests/test_sharding.py`` pins the
    equivalence matrix against a bare store + matcher).
    """

    def __init__(
        self,
        query_k: int = 5,
        order_method: str = "rank",
        shards: int = 1,
        shard_mode: str = "inline",
        data_dir: Optional[Union[str, pathlib.Path]] = None,
    ) -> None:
        self.tier = ShardedTier(
            shards=shards,
            order_method=order_method,
            mode=shard_mode,
            data_dir=data_dir,
        )
        self.query_k = query_k
        self.queries_served = 0
        self.uploads_accepted = 0

    # -- protocol handlers ----------------------------------------------------

    def handle_upload(self, message: UploadMessage) -> None:
        """Store an uploaded encrypted profile."""
        start_ns = time.monotonic_ns()
        try:
            with span("server.handle_upload", user=message.payload.user_id):
                self.tier.put(message.payload)
                self.uploads_accepted += 1
                metric_inc(M_SERVER_UPLOADS)
                _log.debug(
                    "upload_stored",
                    user=message.payload.user_id,
                    chain_len=len(message.payload.chain),
                )
        finally:
            self._observe_latency(start_ns)

    def handle_query(self, request: QueryRequest) -> QueryResult:
        """Run Match and assemble the result message.

        An unknown querier, or one alone in their key group, gets an empty
        result.
        """
        start_ns = time.monotonic_ns()
        try:
            with span("server.handle_query", user=request.user_id):
                entries = self.tier.query(
                    request.user_id,
                    k=self.query_k,
                    max_distance=request.max_distance,
                )
                self.queries_served += 1
                metric_inc(M_SERVER_QUERIES)
                metric_inc(M_SERVER_RESULTS, len(entries))
                _log.debug(
                    "query_served",
                    user=request.user_id,
                    results=len(entries),
                )
                return QueryResult(
                    query_id=request.query_id,
                    timestamp=request.timestamp,
                    entries=entries,
                )
        finally:
            self._observe_latency(start_ns)

    @staticmethod
    def _observe_latency(start_ns: int) -> None:
        metric_observe(
            M_SERVER_HANDLER_LATENCY_US,
            (time.monotonic_ns() - start_ns) // 1000,
            DURATION_US_BUCKETS,
        )

    def handle_message(self, message: Message) -> Optional[Message]:
        """Dispatch any protocol message; returns the response if any."""
        if isinstance(message, UploadMessage):
            self.handle_upload(message)
            return None
        if isinstance(message, QueryRequest):
            return self.handle_query(message)
        raise ProtocolError(
            f"server cannot handle {type(message).__name__}"
        )

    def close(self) -> None:
        """Release shard workers and durability handles (idempotent)."""
        self.tier.close()

    def __enter__(self) -> "SMatchServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
