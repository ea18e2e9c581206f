"""Fuzz-style robustness tests: hostile bytes never crash the parsers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.modes import AeadCiphertext, EtMCipher
from repro.errors import ProtocolError, ReproError
from repro.server.sharding import PlacementMap, ShardWal
from repro.server.sharding.snapshot import (
    load_snapshot,
    snapshot_path,
    write_snapshot,
)
from repro.server.sharding.wal import decode_op, encode_put, replay_wal
from repro.utils.serial import FieldReader, FieldWriter


def _replay(path):
    """The recovery read path: scan the log, then decode every record."""
    return [decode_op(record) for record in replay_wal(path).records]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def decoders(fuzz_dir):
    """Every on-disk decoder of the shard tier, as ``name -> fn(raw)``."""
    path = fuzz_dir / "hostile.bin"

    def from_file(load):
        def run(raw):
            path.write_bytes(raw)
            return load(path)

        return run

    return {
        "op": decode_op,
        "wal": from_file(_replay),
        "snapshot": from_file(load_snapshot),
        "placement": PlacementMap.decode,
    }


@pytest.fixture(scope="module")
def valid_encodings(enrolled, fuzz_dir):
    """One valid encoding per decoder, holding one stored profile."""
    _, _, uploads, _ = enrolled
    payload = next(iter(uploads.values()))
    wal_path = fuzz_dir / "valid.log"
    with ShardWal(wal_path) as wal:
        wal.append_record(encode_put(payload))
    write_snapshot(fuzz_dir, 1, {payload.user_id: payload})
    snap_path = snapshot_path(fuzz_dir, 1)
    return {
        "op": encode_put(payload),
        "wal": wal_path.read_bytes(),
        "snapshot": snap_path.read_bytes(),
        "placement": PlacementMap.build(2).encode(),
    }


class TestPersistenceFuzz:
    @given(st.binary(max_size=300))
    @settings(max_examples=80)
    def test_random_bytes_rejected_cleanly(self, decoders, raw):
        for decode in decoders.values():
            try:
                decode(raw)
            except ReproError:
                pass

    @given(
        pos=st.integers(min_value=0, max_value=200),
        xor=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=60)
    def test_single_byte_corruption_detected(
        self, decoders, valid_encodings, pos, xor
    ):
        if xor == 0:
            return  # no-op corruption
        for name, valid in valid_encodings.items():
            data = bytearray(valid)
            data[pos % len(data)] ^= xor
            try:
                decoders[name](bytes(data))
            except ReproError:
                pass


class TestAeadFuzz:
    @given(st.binary(min_size=48, max_size=200))
    @settings(max_examples=60)
    def test_random_ciphertexts_never_open(self, raw):
        cipher = EtMCipher(b"fuzz-key")
        sealed = AeadCiphertext.decode(raw)
        with pytest.raises(ReproError):
            cipher.open(sealed)

    @given(st.binary(max_size=47))
    @settings(max_examples=30)
    def test_short_ciphertexts_rejected(self, raw):
        with pytest.raises(ReproError):
            AeadCiphertext.decode(raw)


def _int_fields(values):
    writer = FieldWriter()
    for value in values:
        writer.write_int(value)
    return writer.getvalue()


#: Integer fields followed by junk, cut anywhere: whole fields, torn
#: headers and torn bodies all occur.
_framed_ints = st.builds(
    lambda values, junk, cut: (_int_fields(values) + junk)[:cut],
    st.lists(st.integers(min_value=0, max_value=1 << 80), max_size=8),
    st.binary(max_size=16),
    st.integers(min_value=0, max_value=160),
)


class TestFieldReaderFuzz:
    @given(st.binary(max_size=200))
    @settings(max_examples=80)
    def test_reader_never_overreads(self, raw):
        reader = FieldReader(raw)
        try:
            while not reader.at_end():
                reader.read_bytes()
        except ReproError:
            pass

    @given(
        st.one_of(st.binary(max_size=200), _framed_ints),
        st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=150)
    def test_read_ints_equals_read_int_loop(self, raw, count):
        def outcome(read):
            reader = FieldReader(raw)
            try:
                return read(reader), reader.at_end()
            except ProtocolError:
                return ProtocolError

        assert outcome(lambda r: r.read_ints(count)) == outcome(
            lambda r: tuple(r.read_int() for _ in range(count))
        )
