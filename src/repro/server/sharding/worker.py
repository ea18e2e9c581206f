"""Shard worker processes: one process and one duplex pipe per shard.

Each shard of a process-mode tier is a :class:`ProcessShard`: one
dedicated worker process, started from the ``spawn`` context when the
handle is built, and one duplex :func:`multiprocessing.Pipe` to it.  The
worker builds its :class:`~repro.server.sharding.state.ShardState` from
the :class:`ShardSpec` on its first batch (for a durable spec, that build
is the recovery: newest snapshot, then the WAL tail), then answers one op
list per message until a close message or EOF, and closes the state on
the way out.  The tier calls its shards one after another on the calling
thread, so a round trip is one ``send`` and one blocking ``recv``: no
executor, and no thread in the coordinator.

Telemetry takes the path pool chunks take (:mod:`repro.parallel.backend`):
each round trip runs under a ``parallel.map`` span (``backend="process"``,
``label="server.shard_ops"``, ``chunks=1``) that counts the batch in
``smatch_parallel_chunks_total``/``smatch_parallel_tasks_total``, and the
worker runs the batch through
:func:`~repro.parallel.backend.capture_chunk`, so its spans (root
``parallel.chunk``, the state build's ``server.sharding.recover``
included) and metrics splice and merge into the coordinator's trace and
registry.

A ``send`` or ``recv`` that fails with EOF or :class:`OSError` means the
worker died: it is joined, ``smatch_parallel_worker_restarts_total``
counts it, and :class:`~repro.errors.WorkerCrashError` is raised.
:meth:`ProcessShard.apply` retries the batch exactly once on a fresh
worker, which recovers from disk — ops are idempotent (puts replace,
removes tolerate absence), so at-least-once redelivery converges, which is
the invariant the kill-shard-mid-churn test pins against an unsharded
oracle.  An exception raised by an op comes back to the caller unchanged,
and the worker stays up.

Workers start under ``spawn``, which imports the parent's ``__main__``
module afresh in each worker: a program that opens process shards must
guard its entry point with ``if __name__ == "__main__":``.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass
from functools import partial
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import List, Optional, Sequence, cast

from repro.errors import WorkerCrashError
from repro.obs.logs import get_logger
from repro.obs.metrics import M_PARALLEL_WORKER_RESTARTS, metric_inc
from repro.parallel.backend import absorb, capture_chunk, map_span
from repro.server.sharding.state import ShardOp, ShardState

__all__ = ["ProcessShard", "ShardSpec"]

_log = get_logger("server.sharding")

_SPAWN = multiprocessing.get_context("spawn")

#: The ``label`` of a shard round trip's ``parallel.map`` and
#: ``parallel.chunk`` spans.
_LABEL = "server.shard_ops"

#: How long :meth:`ProcessShard.close` waits for a worker to close its
#: WAL and exit before killing it.
_CLOSE_TIMEOUT_S = 30.0


class _WorkerTraceback(Exception):
    """Where in its shard worker an op raised: the ``__cause__`` of the
    exception :meth:`ProcessShard.apply` raises again."""


@dataclass(frozen=True)
class ShardSpec:
    """The picklable configuration a shard worker starts from.

    Carries only configuration, never profile data or key material; the
    worker rebuilds its state from the spec (and the shard directory,
    when durable) every time its process starts.
    """

    shard_id: int
    data_dir: Optional[str] = None  # per-shard directory; None = in-memory

    def build_state(self) -> ShardState:
        """A fresh :class:`ShardState` for this spec (recovers if durable)."""
        return ShardState(shard_id=self.shard_id, directory=self.data_dir)


def _shard_worker(spec: ShardSpec, conn: Connection) -> None:
    """The worker process: answer op batches until a close message or EOF.

    Each message is ``(ops, capture_spans, capture_metrics)``, and ``None``
    closes.  Each reply is ``(True, result)``, or ``(False, (exception,
    traceback))`` when an op raised.  The first batch builds the state inside its
    captured telemetry, so a durable shard's recovery shows in the trace.
    """
    state: Optional[ShardState] = None

    def run(ops: List[ShardOp]) -> List[object]:
        nonlocal state
        if state is None:
            state = spec.build_state()
        return state.apply(ops)

    try:
        for ops, capture_spans, capture_metrics in iter(conn.recv, None):
            try:
                reply = (
                    True,
                    capture_chunk(
                        partial(run, ops),
                        _LABEL,
                        0,
                        capture_spans,
                        capture_metrics,
                    ),
                )
            except Exception as exc:
                # the caller raises it again; this worker serves on
                reply = (False, (exc, traceback.format_exc()))
            conn.send(reply)
    except (EOFError, OSError):
        pass  # the coordinator is gone
    finally:
        if state is not None:
            state.close()


class ProcessShard:
    """A shard running in one dedicated worker process, over one pipe."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self._process: Optional[BaseProcess] = None
        self._conn: Optional[Connection] = None
        self._start()

    def _start(self) -> Connection:
        conn, child_conn = _SPAWN.Pipe()
        process = _SPAWN.Process(
            target=_shard_worker,
            args=(self.spec, child_conn),
            name=f"smatch-shard-{self.spec.shard_id}",
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            conn.close()
            raise
        finally:
            # only the worker may hold its end: once it dies, recv sees EOF
            child_conn.close()
        self._process, self._conn = process, conn
        return conn

    def apply(self, ops: Sequence[ShardOp]) -> List[object]:
        """Apply one op batch in the shard worker, retrying once on crash.

        The retry reaches a **fresh** worker that recovered from disk, and
        every op is idempotent, so at-least-once delivery converges; a
        second crash propagates — something is systematically wrong.
        """
        batch = list(ops)
        try:
            return self._round_trip(batch)
        except WorkerCrashError:
            _log.warning(
                "shard_worker_crashed",
                shard=self.spec.shard_id,
                ops=len(batch),
            )
            return self._round_trip(batch)

    def _round_trip(self, ops: List[ShardOp]) -> List[object]:
        conn = self._conn if self._conn is not None else self._start()
        with map_span("process", _LABEL, 1, len(ops)) as capture:
            try:
                conn.send((ops, *capture))
                ok, payload = conn.recv()
            except (EOFError, OSError) as exc:
                self._reap()
                metric_inc(M_PARALLEL_WORKER_RESTARTS)
                raise WorkerCrashError(
                    f"shard {self.spec.shard_id} worker died while running "
                    f"{len(ops)} ops"
                ) from exc
            except BaseException:
                # interrupted mid round trip: this batch's reply may still
                # be on its way, and must not answer the next batch
                self._reap()
                raise
            if not ok:
                exc, trace = payload
                raise exc from _WorkerTraceback(trace)
            return cast(List[object], absorb(payload))

    def _reap(self) -> None:
        """Close the pipe and join the worker, killing a straggler."""
        process, conn = self._process, self._conn
        self._process = self._conn = None
        if conn is not None:
            conn.close()
        if process is not None:
            process.join(_CLOSE_TIMEOUT_S)
            if process.is_alive():
                process.kill()
                process.join()
            process.close()

    def close(self) -> None:
        """Stop the worker once it has closed its WAL (idempotent)."""
        if self._conn is not None:
            try:
                self._conn.send(None)
            except OSError:
                pass  # already dead: there is nothing left to close
        self._reap()
