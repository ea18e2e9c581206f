"""Operation-count instrumentation.

The paper's Section VII-C gives an analytic cost model (hash operations,
modular exponentiations, OPE work O(MN), server sort O(|V| log |V|) ...).
To *check* our implementation against that model — and to drive the
testbed-calibrated cost mode in :mod:`repro.client.device` — primitives
record their work in a thread-local :class:`OpCounter`.

Counting is off unless a counter is active, so the instrumentation adds a
single dictionary lookup to hot paths in the common case.

This module is the op-counting pillar of the :mod:`repro.obs` telemetry
package; spans (:mod:`repro.obs.trace`) activate a nested counter per span
to attribute operation deltas to pipeline phases.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

__all__ = ["OpCounter", "count_op", "counting", "current_counter", "Stopwatch"]

class _CounterLocal(threading.local):
    """Per-thread counter slot; the class-level ``None`` is every thread's
    default, so a plain attribute read never takes the miss path."""

    counter: Optional[OpCounter] = None


_local = _CounterLocal()


class OpCounter:
    """A named tally of primitive operations."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def add(self, name: str, amount: int = 1) -> None:
        """Record ``amount`` occurrences of operation ``name``."""
        self.counts[name] += amount

    def get(self, name: str) -> int:
        """Tally for ``name``; 0 when the operation was never recorded."""
        return self.counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (for reporting and assertions)."""
        return dict(self.counts)

    def merge(self, other: "OpCounter") -> None:
        """Fold another counter's tallies into this one."""
        self.counts.update(other.counts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"OpCounter({inner})"


def current_counter() -> Optional[OpCounter]:
    """The counter active on this thread, or ``None``."""
    return _local.counter


def count_op(name: str, amount: int = 1) -> None:
    """Record ``amount`` occurrences of operation ``name`` if counting."""
    counter = _local.counter
    if counter is not None:
        counter.add(name, amount)


@contextmanager
def counting() -> Iterator[OpCounter]:
    """Activate a fresh :class:`OpCounter` for the duration of the block.

    Nested blocks each get their own counter; on exit the inner counts are
    folded into the enclosing counter so totals remain consistent.
    """
    previous = _local.counter
    counter = OpCounter()
    _local.counter = counter
    try:
        yield counter
    finally:
        _local.counter = previous
        if previous is not None:
            previous.merge(counter)


class Stopwatch:
    """Accumulating wall-clock timer used by the cost experiments."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._started: Optional[float] = None

    def start(self) -> "Stopwatch":
        """Start (or resume) timing; returns self for chaining."""
        self._started = time.perf_counter()
        return self

    def stop(self) -> float:
        """Stop timing and return the accumulated seconds."""
        if self._started is None:
            raise RuntimeError("stopwatch is not running")
        self.elapsed += time.perf_counter() - self._started
        self._started = None
        return self.elapsed

    @contextmanager
    def timing(self) -> Iterator["Stopwatch"]:
        """Context manager that times its block."""
        self.start()
        try:
            yield self
        finally:
            self.stop()

    @property
    def elapsed_ms(self) -> float:
        """Accumulated time in milliseconds."""
        return self.elapsed * 1e3
