"""Shard worker processes on the :mod:`repro.parallel` machinery.

Each shard of a process-mode tier is one dedicated
:class:`~repro.parallel.ProcessBackend` with a **single worker** and a
single long-lived :class:`ShardSpec` context: the backend keeps its pool
warm across batches that reuse the same context object, so the worker
process — and the :class:`~repro.server.sharding.state.ShardState` it
builds lazily from the spec — lives for the whole tier session.  Op
batches ship as ordinary task chunks (``shard_ops_chunk``), results come
back in submission order, and worker-side spans and metrics merge into
the parent trace and registry through the backend's usual telemetry path.
The tier calls its process shards one after another on the calling
thread, so each shard's worker forks there, on the first batch it gets.

Crash handling rides the backend's typed surfacing: a dead shard worker
raises :class:`~repro.errors.WorkerCrashError` and discards the pool, so
the next batch starts a fresh process whose state **recovers from disk**
(newest snapshot + WAL tail).  :class:`ProcessShard` retries the failed
batch exactly once on that path — ops are idempotent (puts replace,
removes tolerate absence), so at-least-once redelivery converges, which is
precisely the invariant the kill-shard-mid-churn test pins against an
unsharded oracle.
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import WorkerCrashError
from repro.obs.logs import get_logger
from repro.parallel import ProcessBackend, TaskEnvelope
from repro.server.sharding.state import ShardOp, ShardState

__all__ = ["ProcessShard", "ShardSpec", "shard_ops_chunk"]

_log = get_logger("server.sharding")


@dataclass(frozen=True)
class ShardSpec:
    """The picklable warm-start context of one shard worker.

    Carries only configuration, never profile data or key material; the
    worker rebuilds its state from the spec (and the shard directory,
    when durable) every time its process starts.
    """

    shard_id: int
    data_dir: Optional[str] = None  # per-shard directory; None = in-memory

    def build_state(self) -> ShardState:
        """A fresh :class:`ShardState` for this spec (recovers if durable)."""
        return ShardState(shard_id=self.shard_id, directory=self.data_dir)


#: The worker process's live shard state, built lazily from the first
#: batch's spec and kept for the life of the process (the pool's warm
#: context guarantees every batch carries the same spec).
_STATE: Optional[ShardState] = None


def shard_ops_chunk(
    spec: ShardSpec, ops: Sequence[ShardOp]
) -> List[object]:
    """Task function: apply one op batch to this worker's shard state.

    First call after a (re)start builds the state — which, for a durable
    spec, is exactly the crash-recovery path: load the newest snapshot,
    replay the WAL tail, truncate any torn write.
    """
    global _STATE
    if _STATE is None or _STATE.shard_id != spec.shard_id:
        _STATE = spec.build_state()
        # worker processes exit via interpreter shutdown (pool teardown),
        # so atexit is the close hook; a crash skips it by design — that
        # is what the WAL is for
        atexit.register(_STATE.close)
    return _STATE.apply(list(ops))


class ProcessShard:
    """A shard running in a dedicated single-worker process pool."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self._backend = ProcessBackend(workers=1)
        # one envelope for the life of the shard: context identity is what
        # keeps the pool (and the worker's recovered state) warm
        self._envelope = TaskEnvelope(
            fn=shard_ops_chunk, context=spec, label="server.shard_ops"
        )

    def apply(self, ops: Sequence[ShardOp]) -> List[object]:
        """Apply one op batch in the shard worker, retrying once on crash.

        The retry reaches a **fresh** worker that recovered from disk, and
        every op is idempotent, so at-least-once delivery converges; a
        second crash propagates — something is systematically wrong.
        """
        batch = [list(ops)]
        try:
            return self._backend.map_chunks(self._envelope, batch)[0]
        except WorkerCrashError:
            _log.warning(
                "shard_worker_crashed",
                shard=self.spec.shard_id,
                ops=len(batch[0]),
            )
            return self._backend.map_chunks(self._envelope, batch)[0]

    def close(self) -> None:
        """Shut the shard's worker pool down (idempotent)."""
        self._backend.close()
