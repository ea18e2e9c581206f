"""N-thread hammer tests for the shared mutable state SML012–SML015 police.

These are the dynamic complement to the static lockset rules: each test
drives one of the concurrency-hardened components from many threads at
once and asserts an exact conservation property — counts that a lost
update or a duplicated splice would violate.  They are
deliberately deterministic in their *assertions* (exact totals, unique
ids) even though the interleavings are not.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

THREADS = 6
ITERS = 2000


def _hammer(worker: Callable[[int], None], threads: int = THREADS) -> None:
    """Run ``worker(thread_index)`` across N threads with a common start."""
    barrier = threading.Barrier(threads)
    errors: List[BaseException] = []

    def run(index: int) -> None:
        try:
            barrier.wait()
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    pool = [
        threading.Thread(target=run, args=(i,), name=f"hammer-{i}")
        for i in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]


class TestMetricsRegistryStress:
    def test_counter_increment_conservation(self) -> None:
        """No lost updates: the counter lands on exactly threads * iters."""
        registry = MetricsRegistry()

        def worker(index: int) -> None:
            for _ in range(ITERS):
                registry.inc("stress_total")

        _hammer(worker)
        assert registry.counter("stress_total").value == THREADS * ITERS

    def test_observe_and_merge_conservation(self) -> None:
        """Concurrent observes and worker merges fold without loss."""
        registry = MetricsRegistry()

        def worker(index: int) -> None:
            if index % 2 == 0:
                # direct observers
                for i in range(ITERS):
                    registry.observe("stress_bytes", i % 1024)
                    registry.inc("stress_direct")
            else:
                # pool-style: accumulate locally, merge in batches
                for _batch in range(10):
                    local = MetricsRegistry()
                    for i in range(ITERS // 10):
                        local.observe("stress_bytes", i % 1024)
                        local.inc("stress_merged")
                    registry.merge(local.to_mergeable())

        _hammer(worker)
        observers = (THREADS + 1) // 2
        mergers = THREADS // 2
        hist = registry.histogram("stress_bytes")
        assert hist.count == (observers + mergers) * ITERS
        assert registry.counter("stress_direct").value == observers * ITERS
        assert registry.counter("stress_merged").value == mergers * ITERS

    def test_gauge_last_write_is_a_written_value(self) -> None:
        """Torn writes would surface as a value no thread ever set."""
        registry = MetricsRegistry()

        def worker(index: int) -> None:
            for i in range(ITERS):
                registry.set_gauge("stress_level", index * ITERS + i)

        _hammer(worker)
        value = registry.gauge("stress_level").value
        assert 0 <= value < THREADS * ITERS


class TestTracerSpliceStress:
    SPLICES = 200

    @staticmethod
    def _batch(thread: int, index: int) -> List[Dict[str, Any]]:
        """A two-span worker trace in ``span_records`` wire shape."""
        root_id = f"w{thread}-{index}-root"
        return [
            {
                "id": root_id,
                "parent": None,
                "name": f"worker-{thread}",
                "attrs": {},
                "start_us": 1,
                "duration_us": 2,
                "ops": {"enroll": 1},
                "bytes": {"out": 3},
            },
            {
                "id": f"w{thread}-{index}-child",
                "parent": root_id,
                "name": "chunk",
                "attrs": {},
                "start_us": 1,
                "duration_us": 1,
                "ops": {},
                "bytes": {},
            },
        ]

    def test_no_lost_or_duplicated_spans(self) -> None:
        tracer = Tracer("coordinator")

        def worker(index: int) -> None:
            for i in range(self.SPLICES):
                grafted = tracer.splice(
                    self._batch(index, i), parent=tracer.root
                )
                assert len(grafted) == 1

        _hammer(worker)
        spans = tracer.spans()
        # root + (grafted root + child) per splice — nothing lost, nothing
        # spliced twice
        assert len(spans) == 1 + 2 * THREADS * self.SPLICES
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids)), "duplicated span ids"

    def test_op_and_byte_folds_conserve(self) -> None:
        """Grafted roots fold ops/bytes into the parent exactly once each."""
        tracer = Tracer("coordinator")

        def worker(index: int) -> None:
            for i in range(self.SPLICES):
                tracer.splice(self._batch(index, i), parent=tracer.root)

        _hammer(worker)
        total = THREADS * self.SPLICES
        assert tracer.root.ops.get("enroll") == total
        assert tracer.root.bytes_io.get("out") == 3 * total

    def test_concurrent_id_allocation_is_unique(self) -> None:
        tracer = Tracer("t")
        seen: List[int] = []
        lock = threading.Lock()

        def worker(index: int) -> None:
            local = [tracer._next_id() for _ in range(ITERS)]
            with lock:
                seen.extend(local)

        _hammer(worker)
        assert len(seen) == len(set(seen)) == THREADS * ITERS


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-v"]))
