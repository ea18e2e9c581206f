"""Pluggable execution backends for CPU-bound bulk work.

See :mod:`repro.parallel.backend` for the backend protocol and its two
implementations (serial and process), and :mod:`repro.parallel.tasks` for
the picklable enrollment task that
:meth:`repro.core.scheme.SMatch.enroll_population` fans out.
"""

from repro.parallel.backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    TaskEnvelope,
    absorb_telemetry,
    balanced_chunk_size,
    partition_chunks,
    resolve_backend,
    run_captured,
)
from repro.parallel.tasks import EnrollSpec, enroll_chunk

__all__ = [
    "BACKEND_NAMES",
    "EnrollSpec",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "TaskEnvelope",
    "absorb_telemetry",
    "balanced_chunk_size",
    "enroll_chunk",
    "partition_chunks",
    "resolve_backend",
    "run_captured",
]
