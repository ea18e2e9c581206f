"""Server-state persistence: a durable server restarts from its data_dir.

The untrusted server holds only ciphertext, so its state goes to disk
as-is: a restart must not force the user community to re-enroll, and
damaged state must fail loudly with a typed error instead of serving
wrong matches.  ``SMatchServer(data_dir=...)`` keeps a placement map and,
per shard, one snapshot plus a write-ahead log
(:mod:`repro.server.sharding`); these tests reopen a server on that
directory.
"""

import pytest

from repro.errors import PersistenceError
from repro.net.messages import QueryRequest, UploadMessage
from repro.server.service import SMatchServer
from repro.server.sharding import ShardedTier
from repro.server.sharding.state import DEFAULT_SNAPSHOT_EVERY
from repro.utils.serial import FieldReader, FieldWriter


def _answers(server, uids):
    return {
        uid: server.handle_message(
            QueryRequest(query_id=uid, timestamp=0, user_id=uid)
        ).encode()
        for uid in uids
    }


def _stored(server):
    return dict(server.tier.export_store().all_profiles())


@pytest.fixture
def durable_dir(enrolled, tmp_path):
    """A data_dir holding every upload: one snapshot, then a WAL tail."""
    _, _, uploads, _ = enrolled
    payloads = list(uploads.values())
    repeats = -(-DEFAULT_SNAPSHOT_EVERY // len(payloads))
    with ShardedTier(data_dir=tmp_path) as tier:
        tier.put_batch(payloads * repeats)  # one commit reaches the cadence
        tier.put_batch(payloads[:3])  # lives only in the WAL
    return tmp_path


def _snapshot_file(data_dir):
    (path,) = data_dir.glob("shard-*/snap-*.bin")
    return path


class TestRoundtrip:
    def test_bytes_roundtrip(self, enrolled, tmp_path):
        """No snapshot yet: the WAL alone restores every upload."""
        _, _, uploads, _ = enrolled
        with SMatchServer(data_dir=tmp_path) as server:
            for payload in uploads.values():
                server.handle_message(UploadMessage(payload=payload))
        assert not list(tmp_path.glob("shard-*/snap-*.bin"))
        with SMatchServer(data_dir=tmp_path) as restored:
            assert _stored(restored) == uploads

    def test_file_roundtrip(self, enrolled, durable_dir):
        """A snapshot plus the WAL tail restore every upload."""
        _, _, uploads, _ = enrolled
        assert _snapshot_file(durable_dir).stat().st_size > 0
        with SMatchServer(data_dir=durable_dir) as restored:
            assert _stored(restored) == uploads

    def test_empty_store(self, tmp_path):
        SMatchServer(data_dir=tmp_path).close()
        with SMatchServer(data_dir=tmp_path) as restored:
            assert len(restored.tier) == 0
            result = restored.handle_query(
                QueryRequest(query_id=1, timestamp=0, user_id=1)
            )
            assert result.entries == ()

    def test_restored_server_answers_queries(self, enrolled, durable_dir):
        _, _, uploads, _ = enrolled
        with SMatchServer(query_k=3) as live:
            for payload in uploads.values():
                live.handle_message(UploadMessage(payload=payload))
            expected = _answers(live, uploads)
        with SMatchServer(query_k=3, data_dir=durable_dir) as restored:
            assert _answers(restored, uploads) == expected


class TestCorruption:
    @pytest.mark.parametrize(
        "raw", [b"\x00\x00\x00\x04junk", b""], ids=["junk", "empty"]
    )
    def test_bad_magic(self, durable_dir, raw):
        # an empty map is what a torn write of placement.bin leaves
        (durable_dir / "placement.bin").write_bytes(raw)
        with pytest.raises(PersistenceError):
            SMatchServer(data_dir=durable_dir)

    def test_flipped_payload_bit_detected(self, durable_dir):
        path = _snapshot_file(durable_dir)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(PersistenceError):
            SMatchServer(data_dir=durable_dir)

    @pytest.mark.parametrize("version", [1, 99])
    def test_wrong_version(self, durable_dir, version):
        # the format version follows the magic field; rewrite it
        path = _snapshot_file(durable_dir)
        reader = FieldReader(path.read_bytes())
        magic = reader.read_bytes()
        reader.read_int()
        digest = reader.read_bytes()
        payload = reader.read_bytes()
        w = FieldWriter()
        w.write_bytes(magic)
        w.write_int(version)
        w.write_bytes(digest)
        w.write_bytes(payload)
        path.write_bytes(w.getvalue())
        with pytest.raises(PersistenceError):
            SMatchServer(data_dir=durable_dir)

    def test_truncated_file(self, durable_dir):
        path = _snapshot_file(durable_dir)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(PersistenceError):
            SMatchServer(data_dir=durable_dir)
