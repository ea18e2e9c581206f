"""Shared machinery of the end-to-end benchmark.

Every workload (``roundtrip``, ``churn``, ``durable_churn``, ``bulk_enroll``)
is a class with the same life cycle: ``__init__(seed)`` is the set-up that
``setup_s`` times, ``run(seconds)`` is one timed closed-loop phase,
``finish()`` is whatever the workload does after its timed phase (the
durable tier's close and reopen), ``check()`` runs the correctness checks
outside any timed region, and ``close()`` releases pools, shard processes
and data directories.

Layers are timed from outside the program: each workload wraps every call
it makes into a public ``repro`` function in a ``repro.obs.trace.span``
named after the layer (``client.begin_derivation``,
``server.handle_message.upload`` ...).  With no tracer active those spans
are the program's shared no-op, so the untraced run pays one attribute
lookup per call.

Timings are also reported in reference seconds (see ``calibrate``): on a
host shared with other machines' work the same code runs up to 1.5x
slower for seconds to minutes at a time, and a fixed burst of
interpreter work run between the workload's chunks measures by how much.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import pathlib
import resource
import subprocess
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.net.messages import Message
from repro.server.service import SMatchServer

#: Where runs leave their result files, traces and transient data dirs.
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: Prefix of the shared-memory segments ``repro.parallel.arena`` creates.
SHM_PREFIX = "smarena_"

#: An oracle stream event: an accepted upload with no hash, or a query with
#: the hash of the encoded ``QueryResult`` the system under test returned.
Event = Tuple[Message, Optional[int]]


#: What one ``calibrate`` burst takes on the reference host, in ns.  A
#: second of wall time during which bursts take twice as long counts as
#: half a reference second.
REFERENCE_BURST_NS = 5_000_000


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def calibrate() -> int:
    """Nanoseconds a fixed burst of interpreter work takes right now.

    The burst is SHA-256 chaining and integer arithmetic in the interpreter
    loop, the two kinds of work the workloads' hot paths do, and calls no
    program code, so a change to the program never moves it.
    """
    started = time.perf_counter_ns()
    chained = b"\0" * 32
    for _ in range(1000):
        chained = hashlib.sha256(chained).digest()
    acc = 0
    for i in range(40_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter_ns() - started


def percentile(samples: Sequence[int], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (which must be non-empty)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(parts: Iterable[bytes]) -> str:
    """SHA-256 over length-framed byte strings: a workload's input hash."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def shm_segments() -> set:
    """Names of live ``repro.parallel`` shared-memory segments."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(SHM_PREFIX)}
    except FileNotFoundError:
        return set()


def filesystem_type(path: pathlib.Path) -> str:
    """The file-system type holding ``path``, as ``stat -f`` names it."""
    try:
        done = subprocess.run(
            ["stat", "-f", "-c", "%T", str(path)],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def stop_children(timeout_s: float = 30.0) -> None:
    """Stop every process this one started and wait until each has ended.

    ``ProcessBackend.close`` shuts its pool down without waiting, so pool
    and shard workers may still be exiting when a workload closes; one
    still alive after ``timeout_s`` is killed.  The first shared-memory
    segment also starts the ``multiprocessing`` resource tracker, which is
    no ``multiprocessing`` child and would outlive this process.  It ends
    when every holder of its pipe has closed it, forked workers included,
    so it is stopped last.
    """
    for child in multiprocessing.active_children():
        child.join(timeout_s)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


class PoolExhausted(RuntimeError):
    """A timed phase ran out of generated inputs before its deadline."""


@dataclass
class Phase:
    """What one timed phase did: units, wall time, latencies and counts.

    ``attempted`` units started, ``completed`` units finished, ``failed``
    units raised a typed ``repro.errors`` exception.  ``latency_ns`` maps a
    series (``upload``, ``query``, ``cohort`` ...) to per-sample
    nanoseconds, packed so that memory, which ``rss_mb`` reports, grows by
    8 bytes a sample however fast the program runs; ``counts`` holds the
    denominators the per-layer ledger divides by (``users``, ``requests``,
    ``uploads``, ``queries`` ...).
    """

    wall_s: float = 0.0
    attempted: int = 0
    completed: int = 0
    failed: int = 0
    latency_ns: Dict[str, "array[int]"] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)

    def record(self, series: str, ns: int) -> None:
        samples = self.latency_ns.get(series)
        if samples is None:
            samples = self.latency_ns[series] = array("q")
        samples.append(ns)

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def add(self, other: "Phase") -> None:
        """Fold a later chunk of the same phase into this one."""
        self.wall_s += other.wall_s
        self.attempted += other.attempted
        self.completed += other.completed
        self.failed += other.failed
        for series, samples in other.latency_ns.items():
            self.latency_ns.setdefault(series, array("q")).extend(samples)
        self.counts.update(other.counts)


#: Seconds of workload between two calibration bursts.
CHUNK_S = 0.25


def measure(
    workload, seconds: float, limit: Optional[int] = None
) -> Tuple[Phase, float]:
    """One timed phase of ``workload``, and its length in reference seconds.

    The phase runs in chunks of ``CHUNK_S`` seconds (at least one unit
    each) with a ``calibrate`` burst before the first chunk and after every
    chunk; a chunk's wall time counts at the host speed the mean of the two
    bursts around it measured.  ``limit`` caps the units attempted.  The
    phase's wall time excludes the bursts.
    """
    phase = Phase()
    reference_s = 0.0
    deadline = time.perf_counter() + seconds
    before_ns = calibrate()
    while phase.attempted != limit:
        left = deadline - time.perf_counter()
        if left <= 0:
            break
        cap = None if limit is None else limit - phase.attempted
        chunk = workload.run(min(CHUNK_S, left), limit=cap)
        after_ns = calibrate()
        phase.add(chunk)
        reference_s += chunk.wall_s * 2 * REFERENCE_BURST_NS / (before_ns + after_ns)
        before_ns = after_ns
    return phase, reference_s


def oracle_mismatches(
    base: Iterable[Message], events: Iterable[Event]
) -> int:
    """How many query results in ``events`` differ from the oracle's.

    The oracle is the legacy single-store server, ``SMatchServer(query_k=5)``:
    one ``ProfileStore`` + ``ServerMatcher``.  It is fed the ``base`` uploads,
    then the stream of accepted uploads (events whose hash is ``None``) and
    answered queries; each query's encoded ``QueryResult`` must hash to what
    the system under test returned for it.
    """
    oracle = SMatchServer(query_k=5)
    for message in base:
        oracle.handle_message(message)
    wrong = 0
    for message, result_hash in events:
        if result_hash is None:
            oracle.handle_message(message)
        elif hash(oracle.handle_message(message).encode()) != result_hash:
            wrong += 1
    return wrong
