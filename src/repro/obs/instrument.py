"""Operation-count instrumentation.

The paper's Section VII-C gives an analytic cost model (hash operations,
modular exponentiations, OPE work O(MN), server sort O(|V| log |V|) ...).
To *check* our implementation against that model — and to drive the
testbed-calibrated cost mode in :mod:`repro.client.device` — primitives
record their work in a thread-local :class:`OpCounter`.

Counting is off unless a counter is active, so the instrumentation adds a
single dictionary lookup to hot paths in the common case.

This module is the op-counting pillar of the :mod:`repro.obs` telemetry
package.  The thread's counter slot holds anything with an ``add`` method
(:class:`OpSink`): an :class:`OpCounter`, or an open
:class:`~repro.obs.trace.Span`, which is its thread's counter while it is
the innermost open span and so attributes operation counts to pipeline
phases.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Protocol

__all__ = ["OpCounter", "OpSink", "count_op", "counting", "current_counter"]


class OpSink(Protocol):
    """What the counter slot holds: an :class:`OpCounter` or an open span."""

    def add(self, name: str, amount: int = 1) -> None:
        """Record ``amount`` occurrences of operation ``name``."""


class _CounterLocal(threading.local):
    """Per-thread counter slot; the class-level ``None`` is every thread's
    default, so a plain attribute read never takes the miss path."""

    counter: Optional[OpSink] = None


_local = _CounterLocal()


class OpCounter:
    """A named tally of primitive operations."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        """Record ``amount`` occurrences of operation ``name``."""
        counts = self.counts
        counts[name] = counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Tally for ``name``; 0 when the operation was never recorded."""
        return self.counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (for reporting and assertions)."""
        return dict(self.counts)

    def merge(self, other: "OpCounter") -> None:
        """Fold another counter's tallies into this one."""
        for name, amount in other.counts.items():
            self.add(name, amount)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"OpCounter({inner})"


def current_counter() -> Optional[OpSink]:
    """The innermost counter on this thread (an :class:`OpCounter` or an
    open span), or ``None``."""
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
    folded into the enclosing counter (a block or an open span) through its
    ``add``, so totals remain consistent.
    """
    previous = _local.counter
    counter = OpCounter()
    _local.counter = counter
    try:
        yield counter
    finally:
        _local.counter = previous
        if previous is not None:
            for name, amount in counter.counts.items():
                previous.add(name, amount)
