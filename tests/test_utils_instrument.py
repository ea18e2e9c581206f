"""Tests for operation-count instrumentation."""

import threading

from repro.obs.instrument import (
    OpCounter,
    count_op,
    counting,
    current_counter,
    Stopwatch,
)


class TestCounting:
    def test_no_counter_outside_block(self):
        count_op("orphan")  # must not raise
        assert current_counter() is None

    def test_counts_inside_block(self):
        with counting() as c:
            count_op("x")
            count_op("x", 2)
            count_op("y")
        assert c.get("x") == 3
        assert c.get("y") == 1
        assert c.get("missing") == 0

    def test_nested_blocks_fold_into_parent(self):
        with counting() as outer:
            count_op("a")
            with counting() as inner:
                count_op("a", 5)
            assert inner.get("a") == 5
        assert outer.get("a") == 6

    def test_counter_restored_after_block(self):
        with counting() as outer:
            with counting():
                pass
            assert current_counter() is outer
        assert current_counter() is None

    def test_thread_isolation(self):
        seen = {}

        def worker():
            seen["thread"] = current_counter()

        with counting():
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["thread"] is None

    def test_as_dict_and_merge(self):
        a = OpCounter()
        a.add("x", 2)
        b = OpCounter()
        b.add("x")
        b.add("y")
        a.merge(b)
        assert a.as_dict() == {"x": 3, "y": 1}


class TestStopwatch:
    def test_accumulates(self):
        sw = Stopwatch()
        with sw.timing():
            pass
        first = sw.elapsed
        with sw.timing():
            pass
        assert sw.elapsed >= first

    def test_stop_without_start_raises(self):
        import pytest

        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_elapsed_ms(self):
        sw = Stopwatch()
        with sw.timing():
            pass
        assert sw.elapsed_ms == sw.elapsed * 1e3
