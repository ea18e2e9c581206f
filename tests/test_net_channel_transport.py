"""Tests for the in-memory transport, secure channel, and latency model."""

import pytest

from repro.errors import IntegrityError, ParameterError, ProtocolError, TransportError
from repro.net.channel import SecureChannel
from repro.net.latency import LatencyModel
from repro.net.messages import QueryRequest
from repro.net.transport import InMemoryNetwork


class TestTransport:
    def test_send_recv_fifo(self):
        net = InMemoryNetwork()
        a = net.endpoint("a")
        b = net.endpoint("b")
        a.send("b", b"one")
        a.send("b", b"two")
        assert b.recv() == ("a", b"one")
        assert b.recv() == ("a", b"two")

    def test_pending(self):
        net = InMemoryNetwork()
        a = net.endpoint("a")
        b = net.endpoint("b")
        assert b.pending() == 0
        a.send("b", b"x")
        assert b.pending() == 1

    def test_unknown_destination(self):
        net = InMemoryNetwork()
        a = net.endpoint("a")
        with pytest.raises(TransportError):
            a.send("ghost", b"x")

    def test_recv_empty(self):
        net = InMemoryNetwork()
        a = net.endpoint("a")
        with pytest.raises(TransportError):
            a.recv()

    def test_duplicate_endpoint(self):
        net = InMemoryNetwork()
        net.endpoint("a")
        with pytest.raises(TransportError):
            net.endpoint("a")

    def test_drained_queue_is_dropped(self):
        net = InMemoryNetwork()
        a = net.endpoint("a")
        b = net.endpoint("b")
        a.send("b", b"x")
        assert b.recv() == ("a", b"x")
        assert net._queues == {}
        assert b.pending() == 0
        with pytest.raises(TransportError):
            b.recv()
        with pytest.raises(TransportError):
            net.endpoint("b")
        with pytest.raises(TransportError):
            net.pending("ghost")

    def test_traffic_accounting(self):
        net = InMemoryNetwork()
        a = net.endpoint("a")
        net.endpoint("b")
        a.send("b", b"12345")
        assert net.bytes_sent == 5
        assert net.messages_sent == 1


class TestSecureChannel:
    def make_pair(self):
        net = InMemoryNetwork()
        a = net.endpoint("client")
        b = net.endpoint("server")
        return SecureChannel.pair(a, b, session_key=b"session-secret")

    def test_roundtrip(self):
        client, server = self.make_pair()
        msg = QueryRequest(query_id=1, timestamp=2, user_id=3)
        client.send(msg)
        assert server.recv() == msg

    def test_bidirectional(self):
        client, server = self.make_pair()
        client.send(QueryRequest(query_id=1, timestamp=0, user_id=1))
        server.recv()
        server.send(QueryRequest(query_id=2, timestamp=0, user_id=2))
        assert client.recv().query_id == 2

    def test_wrong_session_key_rejected(self):
        net = InMemoryNetwork()
        a = net.endpoint("client")
        b = net.endpoint("server")
        sender = SecureChannel(a, "server", b"key-1")
        receiver = SecureChannel(b, "client", b"key-2")
        sender.send(QueryRequest(query_id=1, timestamp=0, user_id=1))
        with pytest.raises(IntegrityError):
            receiver.recv()

    def test_replay_rejected(self):
        """Sequence numbers in the AAD make replays fail."""
        net = InMemoryNetwork()
        a = net.endpoint("client")
        b = net.endpoint("server")
        client, server = (
            SecureChannel(a, "server", b"k"),
            SecureChannel(b, "client", b"k"),
        )
        client.send(QueryRequest(query_id=1, timestamp=0, user_id=1))
        _, datagram = net._queues["server"][0]
        server.recv()
        # replay the same datagram
        a.send("server", datagram)
        with pytest.raises(IntegrityError):
            server.recv()

    def test_reflection_rejected(self):
        """A datagram bounced back to its own sender fails authentication."""
        net = InMemoryNetwork()
        a = net.endpoint("client")
        b = net.endpoint("server")
        client = SecureChannel(a, "server", b"k")
        client.send(QueryRequest(query_id=1, timestamp=0, user_id=1))
        _, datagram = b.recv()
        # the client receives under sequence 0, the number it sent under,
        # so only the direction label tells the reflected datagram apart
        b.send("client", datagram)
        with pytest.raises(IntegrityError):
            client.recv()

    def test_unexpected_peer_rejected(self):
        net = InMemoryNetwork()
        a = net.endpoint("client")
        b = net.endpoint("server")
        mallory = net.endpoint("mallory")
        server = SecureChannel(b, "client", b"k")
        mallory.send("server", b"junk")
        with pytest.raises(ProtocolError):
            server.recv()

    def test_byte_accounting(self):
        client, server = self.make_pair()
        sent = client.send(QueryRequest(query_id=1, timestamp=0, user_id=1))
        server.recv()
        assert client.bytes_sent == sent
        assert server.bytes_received == sent


class TestNetMetrics:
    """Recorded message sizes must match the net-layer metrics exactly."""

    @pytest.fixture(autouse=True)
    def _metrics(self):
        from repro.obs.metrics import disable_metrics, enable_metrics

        self.registry = enable_metrics()
        yield
        disable_metrics()

    def test_transport_metrics_match_accounting(self):
        net = InMemoryNetwork()
        a = net.endpoint("a")
        net.endpoint("b")
        a.send("b", b"x" * 100)
        a.send("b", b"y" * 300)
        snap = self.registry.snapshot()
        assert snap["counters"]["smatch_net_messages_total"] == net.messages_sent == 2
        hist = snap["histograms"]["smatch_net_message_bytes"]
        assert hist["count"] == net.messages_sent
        assert hist["sum"] == net.bytes_sent == 400
        # 100 <= 256 and 300 <= 1024: cumulative buckets reflect the sizes
        assert hist["buckets"]["256"] == 1
        assert hist["buckets"]["1024"] == 2

    def test_channel_metrics_match_accounting(self):
        net = InMemoryNetwork()
        a = net.endpoint("client")
        b = net.endpoint("server")
        client, server = SecureChannel.pair(a, b, session_key=b"k")
        sent = client.send(QueryRequest(query_id=1, timestamp=0, user_id=1))
        server.recv()
        snap = self.registry.snapshot()
        assert snap["counters"]["smatch_channel_messages_total"] == 1
        assert snap["histograms"]["smatch_channel_sent_bytes"]["sum"] == sent
        assert snap["histograms"]["smatch_channel_sent_bytes"]["count"] == 1
        assert (
            snap["histograms"]["smatch_channel_received_bytes"]["sum"]
            == server.bytes_received
            == sent
        )

    def test_span_byte_tallies_match_wire_bytes(self):
        from repro.obs.trace import tracing

        net = InMemoryNetwork()
        a = net.endpoint("client")
        b = net.endpoint("server")
        client, server = SecureChannel.pair(a, b, session_key=b"k")
        with tracing("net") as tracer:
            sent = client.send(QueryRequest(query_id=1, timestamp=0, user_id=1))
            server.recv()
        assert tracer.root.bytes_io["sent"] == sent == net.bytes_sent
        assert tracer.root.bytes_io["received"] == sent


class TestLatency:
    def test_transmission_time(self):
        model = LatencyModel(bandwidth_bps=1e6, rtt_s=0, per_message_overhead_bits=0)
        assert model.transmission_time_s(1_000_000) == pytest.approx(1.0)

    def test_overhead_per_message(self):
        model = LatencyModel(bandwidth_bps=1e6, rtt_s=0, per_message_overhead_bits=1000)
        one = model.transmission_time_s(0, messages=1)
        three = model.transmission_time_s(0, messages=3)
        assert three == pytest.approx(3 * one)

    def test_round_trip(self):
        model = LatencyModel(bandwidth_bps=1e6, rtt_s=0.01, per_message_overhead_bits=0)
        assert model.round_trip_time_s(5000, 5000) == pytest.approx(0.02)

    def test_validation(self):
        with pytest.raises(ParameterError):
            LatencyModel(bandwidth_bps=0)
        model = LatencyModel()
        with pytest.raises(ParameterError):
            model.transmission_time_s(-1)
        with pytest.raises(ParameterError):
            model.transmission_time_s(10, messages=0)

    def test_paper_link_default(self):
        assert LatencyModel().bandwidth_bps == 53e6

    def test_payload_plus_overhead_arithmetic(self):
        model = LatencyModel(
            bandwidth_bps=1e6, rtt_s=0, per_message_overhead_bits=1000
        )
        # (9000 payload + 2 * 1000 framing) bits over 1 Mbps
        assert model.transmission_time_s(9000, messages=2) == pytest.approx(0.011)

    def test_round_trip_includes_overhead_both_ways(self):
        model = LatencyModel(
            bandwidth_bps=1e6, rtt_s=0.01, per_message_overhead_bits=500
        )
        expected = 0.01 + (4000 + 500) / 1e6 + (6000 + 500) / 1e6
        assert model.round_trip_time_s(4000, 6000) == pytest.approx(expected)
