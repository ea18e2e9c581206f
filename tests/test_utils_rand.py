"""Tests for repro.utils.rand."""

import hashlib
import hmac

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParameterError
from repro.utils.mac import HmacSha256
from repro.utils.rand import DeterministicStream, SystemRandomSource, draw_below


def _counter_mode(key, label, n):
    """The first ``n`` bytes of HMAC-SHA256(key, label || i_be64), i = 0, 1, ..."""
    out = b""
    counter = 0
    while len(out) < n:
        out += hmac.new(
            key, label + counter.to_bytes(8, "big"), hashlib.sha256
        ).digest()
        counter += 1
    return out[:n]


class TestDeterministicStream:
    def test_same_key_label_same_output(self):
        a = DeterministicStream(b"key", b"label").read(64)
        b = DeterministicStream(b"key", b"label").read(64)
        assert a == b

    def test_different_labels_diverge(self):
        a = DeterministicStream(b"key", b"l1").read(32)
        b = DeterministicStream(b"key", b"l2").read(32)
        assert a != b

    def test_different_keys_diverge(self):
        a = DeterministicStream(b"k1").read(32)
        b = DeterministicStream(b"k2").read(32)
        assert a != b

    def test_read_is_a_stream(self):
        s = DeterministicStream(b"key")
        combined = s.read(10) + s.read(22)
        assert combined == DeterministicStream(b"key").read(32)

    def test_getrandbits_range(self):
        s = DeterministicStream(b"key")
        for bits in (0, 1, 7, 64, 257):
            v = s.getrandbits(bits)
            assert 0 <= v < (1 << bits) if bits else v == 0

    def test_randrange_bounds(self):
        s = DeterministicStream(b"key")
        for _ in range(200):
            assert 10 <= s.randrange(10, 17) < 17

    def test_randrange_empty(self):
        with pytest.raises(ParameterError):
            DeterministicStream(b"key").randrange(5, 5)

    def test_permutation_is_permutation(self):
        perm = DeterministicStream(b"key").permutation(20)
        assert sorted(perm) == list(range(20))

    def test_permutation_deterministic(self):
        assert (
            DeterministicStream(b"key").permutation(10)
            == DeterministicStream(b"key").permutation(10)
        )

    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=1000))
    @settings(max_examples=30)
    def test_randrange_uniform_support(self, lo, span):
        s = DeterministicStream(b"prop")
        v = s.randrange(lo, lo + span)
        assert lo <= v < lo + span


class TestStreamBytes:
    SIZES = (0, 1, 7, 31, 32, 33, 100)

    @pytest.mark.parametrize("prepared", [False, True], ids=["bytes", "keyed"])
    def test_read_is_hmac_counter_mode(self, prepared):
        key, label = b"stream-key", b"stream|label"
        stream = DeterministicStream(
            HmacSha256(key) if prepared else key, label
        )
        out = b"".join(stream.read(n) for n in self.SIZES)
        assert out == _counter_mode(key, label, sum(self.SIZES))

    def test_rejection_state_carries_over(self):
        # a draw's leftover bytes feed the next read, as one stream
        stream = DeterministicStream(b"k", b"l")
        stream.randrange(0, 3)
        follow = stream.read(40)
        reference = DeterministicStream(b"k", b"l")
        reference.randrange(0, 3)
        assert follow == reference.read(40)

    def test_draw_below_returns_stream_state(self):
        prf = HmacSha256(b"k")
        value, counter, buffer = draw_below(prf, b"l", 0, b"", 1000)
        stream = DeterministicStream(b"k", b"l")
        assert stream.randrange(0, 1000) == value
        assert stream.read(len(buffer)) == buffer
        assert counter == 1

    def test_draw_below_needs_a_positive_span(self):
        with pytest.raises(ParameterError):
            draw_below(HmacSha256(b"k"), b"l", 0, b"", 0)

    def test_non_bytes_key_rejected(self):
        with pytest.raises(ParameterError):
            DeterministicStream("key")  # type: ignore[arg-type]


class TestSystemRandomSource:
    def test_seeded_is_reproducible(self):
        a = SystemRandomSource(seed=5)
        b = SystemRandomSource(seed=5)
        assert [a.randint(0, 100) for _ in range(10)] == [
            b.randint(0, 100) for _ in range(10)
        ]

    def test_seeded_flag(self):
        assert SystemRandomSource(seed=1).is_seeded
        assert not SystemRandomSource().is_seeded

    def test_randbytes_length(self):
        assert len(SystemRandomSource(seed=1).randbytes(33)) == 33

    def test_randbytes_zero(self):
        assert SystemRandomSource(seed=1).randbytes(0) == b""

    def test_choice_empty_rejected(self):
        with pytest.raises(ParameterError):
            SystemRandomSource(seed=1).choice([])

    def test_sample(self):
        out = SystemRandomSource(seed=1).sample(range(100), 10)
        assert len(set(out)) == 10
