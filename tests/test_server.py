"""Socket-facing registry: UDP control ops, handshake relay, TCP stats."""

import gc
import json
import pathlib
import random
import socket
import threading
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import json_values, record_trust
from trustnet.channel import (
    AcceptAllPolicy,
    AgentIdentity,
    HandshakeInitiator,
    HandshakeResponder,
)
from trustnet.errors import OversizePayloadError, TrustNetError
from trustnet.overlay import (
    ERROR_UNKNOWN_DESTINATION,
    FRAME_ACCEPT,
    FRAME_CONFIRM,
    FRAME_ERROR,
    FRAME_REQUEST,
    MAX_PAYLOAD_SIZE,
    PORT_REGISTRY,
    PORT_TRUST_HANDSHAKE,
    PacketHeader,
    VirtualAddress,
    decode_packet,
    encode_packet,
)
from trustnet.registry import REGISTRY_ADDRESS, RegistryService
from trustnet.server import (
    NULL_ADDRESS,
    RegistryClient,
    RegistryServer,
    _send_parts,
    fetch_stats,
)
from trustnet.snapshot import StatsSnapshot


@pytest.fixture()
def server():
    with RegistryServer() as srv:
        yield srv


def handshake_datagram(src, dst, payload) -> bytes:
    header = PacketHeader(
        src=src,
        dst=dst,
        src_port=PORT_TRUST_HANDSHAKE,
        dst_port=PORT_TRUST_HANDSHAKE,
    )
    return encode_packet(header, payload)


def control_datagram(body: bytes, dst_port: int = PORT_REGISTRY) -> bytes:
    header = PacketHeader(
        src=NULL_ADDRESS,
        dst=REGISTRY_ADDRESS,
        src_port=PORT_REGISTRY,
        dst_port=dst_port,
    )
    return encode_packet(header, body)


# Bodies that each stopped the UDP thread, or registered a key no handshake
# can verify, before control bodies were read through typed field readers; the
# last two reach the body's object check and the key's hex check.
HOSTILE_BODIES = {  # name: (body, the start of the bad-request message)
    "non-string-key": (
        b'{"op":"register","public_key":123}', "public_key must be a string, got int"
    ),
    "non-list-tags": (
        b'{"op":"register","public_key":"' + b"11" * 32 + b'","tags":5}',
        "tags must be a list",
    ),
    "non-string-hostname": (
        b'{"op":"register","public_key":"' + b"22" * 32 + b'","hostname":5}',
        "hostname must be a string, got int",
    ),
    "non-string-resolve": (
        b'{"op":"resolve","hostname":5}', "hostname must be a string, got int"
    ),
    "non-string-address": (
        b'{"op":"heartbeat","address":5}', "address must be a string, got int"
    ),
    # The decoder's own words after the colon differ between Python versions.
    "nested-30000-deep": (
        b"[" * 30_000 + b"]" * 30_000, "control body is not valid JSON: "
    ),
    "one-byte-key": (
        b'{"op":"register","public_key":"ab"}', "public_key must be 32 bytes, got 1"
    ),
    "non-object-body": (b"[]", "control body must be a JSON object"),
    "non-hex-key": (
        b'{"op":"register","public_key":"' + b"zz" * 32 + b'"}',
        "public_key must be hex text",
    ),
}


class TestControlOps:
    def test_register_allocates_sequentially(self, server):
        rng = random.Random(0)
        with RegistryClient(server.endpoint) as a, RegistryClient(
            server.endpoint
        ) as b:
            key_a = AgentIdentity.generate(VirtualAddress(0, 0), rng).public_key
            key_b = AgentIdentity.generate(VirtualAddress(0, 0), rng).public_key
            addr_a = a.register(key_a)
            addr_b = b.register(key_b)
            assert addr_b.node_id == addr_a.node_id + 1
            # default base keeps clear of the registry's own address
            assert addr_a != REGISTRY_ADDRESS

    def test_duplicate_key_reported(self, server):
        rng = random.Random(1)
        key = AgentIdentity.generate(VirtualAddress(0, 0), rng).public_key
        with RegistryClient(server.endpoint) as a, RegistryClient(
            server.endpoint
        ) as b:
            a.register(key)
            reply = b._call({"op": "register", "public_key": key.hex(), "tags": []})
            assert reply["ok"] is False
            assert reply["error"] == "DuplicateKeyError"

    def test_refused_register_raises_a_trustnet_error(self, server):
        with RegistryClient(server.endpoint) as a, RegistryClient(server.endpoint) as b:
            a.register(bytes(32))
            with pytest.raises(TrustNetError, match="DuplicateKeyError"):
                b.register(bytes(32))

    def test_resolve_is_case_insensitive(self, server):
        rng = random.Random(2)
        with RegistryClient(server.endpoint) as client:
            key = AgentIdentity.generate(VirtualAddress(0, 0), rng).public_key
            address = client.register(key, hostname="Echo-Agent")
            reply = client.resolve("echo-agent")
            assert reply == {"ok": True, "address": address.to_text()}
            assert client.resolve("ECHO-AGENT")["ok"] is True
            assert client.resolve("missing")["ok"] is False

    def test_heartbeat_round_trip(self, server):
        rng = random.Random(3)
        with RegistryClient(server.endpoint) as client:
            key = AgentIdentity.generate(VirtualAddress(0, 0), rng).public_key
            client.register(key)
            assert client.heartbeat() == {"ok": True}

    def test_unknown_op_rejected(self, server):
        with RegistryClient(server.endpoint) as client:
            reply = client._call({"op": "teleport"})
            assert reply == {"ok": False, "error": "unknown-op"}

    def test_malformed_datagrams_are_dropped(self, server):
        rng = random.Random(4)
        # garbage must not wedge the server; a valid call still succeeds after
        noise = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        noise.sendto(b"\x00\x01garbage", server.endpoint)
        noise.close()
        with RegistryClient(server.endpoint) as client:
            key = AgentIdentity.generate(VirtualAddress(0, 0), rng).public_key
            assert client.register(key) is not None


    @pytest.mark.parametrize("body, message", HOSTILE_BODIES.values(), ids=HOSTILE_BODIES)
    def test_hostile_body_is_bad_request(self, server, body, message):
        rng = random.Random(8)
        with RegistryClient(server.endpoint) as client:
            client.send_datagram(control_datagram(body))
            _, payload = decode_packet(client.recv_datagram())
            reply = json.loads(payload)
            assert reply["ok"] is False
            assert reply["error"] == "bad-request"
            assert reply["message"].startswith(message)
            assert all(thread.is_alive() for thread in server._threads)
            assert server.registry.node_count == 0
            key = AgentIdentity.generate(VirtualAddress(0, 0), rng).public_key
            assert client.register(key) is not None

    @pytest.mark.parametrize(
        "op, field, error",
        [
            ("resolve", "hostname", "HostnameNotFoundError"),
            ("heartbeat", "address", "bad-request"),
        ],
    )
    def test_error_reply_fits_one_datagram(self, server, op, field, error):
        # 24 KB of UTF-8 that JSON would echo back as 72 KB of escapes
        body = json.dumps({"op": op, field: "\u00e9" * 12_000}, ensure_ascii=False)
        with RegistryClient(server.endpoint) as client:
            client.send_datagram(control_datagram(body.encode("utf-8")))
            _, payload = decode_packet(client.recv_datagram())
        reply = json.loads(payload)
        assert reply["ok"] is False
        assert reply["error"] == error
        assert reply["message"]
        assert not server.dropped

    def test_dropped_datagrams_are_counted(self, server):
        rng = random.Random(9)
        with RegistryClient(server.endpoint) as client:
            client.send_datagram(b"\x00\x01garbage")
            key = AgentIdentity.generate(VirtualAddress(0, 0), rng).public_key
            client.register(key)  # served after the garbage, by the same thread
        assert server.dropped == Counter({"TruncatedPacketError": 1})

    def test_send_failure_is_counted_not_fatal(self):
        server = RegistryServer()
        datagrams = [control_datagram(b'{"op":"teleport"}')]

        class FailingSocket:
            def recvfrom(self, size):
                if not datagrams:
                    server._stop.set()
                    raise socket.timeout()
                return datagrams.pop(), ("127.0.0.1", 9)

            def sendto(self, data, peer):
                raise OSError("network unreachable")

        server._udp = FailingSocket()
        server._udp_loop()
        assert server.dropped == Counter({"OSError": 1})


class _RecordingSocket:
    def __init__(self) -> None:
        self.sent: list[tuple[bytes, tuple[str, int]]] = []

    def sendto(self, data: bytes, peer: tuple[str, int]) -> None:
        self.sent.append((data, peer))


def test_oversize_control_body_raises_and_sends_nothing():
    client = RegistryClient(("127.0.0.1", 9))
    client._sock.close()
    client._sock = _RecordingSocket()
    with pytest.raises(OversizePayloadError):
        client.resolve("h" * MAX_PAYLOAD_SIZE)
    assert client._sock.sent == []


control_bodies = st.builds(
    lambda op, field, value: {"op": op, "public_key": "33" * 32, field: value},
    st.sampled_from(["register", "resolve", "heartbeat", "teleport"]),
    st.sampled_from(["op", "public_key", "tags", "hostname", "address"]),
    json_values,
).map(lambda doc: json.dumps(doc).encode("utf-8"))
datagrams = (
    st.binary(max_size=64)
    | st.builds(
        control_datagram,
        control_bodies | st.binary(max_size=64),
        st.sampled_from([PORT_REGISTRY, PORT_TRUST_HANDSHAKE]),
    )
)


@given(data=datagrams)
@settings(max_examples=400, deadline=None)
def test_handle_datagram_raises_only_trustnet_errors(data):
    server = RegistryServer()
    server._udp = _RecordingSocket()
    try:
        server._handle_datagram(data, ("127.0.0.1", 9))
    except TrustNetError:
        return
    for reply, _ in server._udp.sent:
        _, payload = decode_packet(reply)
        assert json.loads(payload)["ok"] in (True, False)


class TestHandshakeRelay:
    def test_full_handshake_records_trust(self, server):
        rng = random.Random(5)
        with RegistryClient(server.endpoint) as a, RegistryClient(
            server.endpoint
        ) as b:
            ia = AgentIdentity.generate(VirtualAddress(0, 0), rng)
            ib = AgentIdentity.generate(VirtualAddress(0, 0), rng)
            ia.address = a.register(ia.public_key)
            ib.address = b.register(ib.public_key)
            keys = {ia.address: ia.public_key, ib.address: ib.public_key}
            initiator = HandshakeInitiator(ia, ib.address, keys.__getitem__, rng)
            responder = HandshakeResponder(
                ib, AcceptAllPolicy(), keys.__getitem__, rng
            )

            a.send_datagram(
                handshake_datagram(ia.address, ib.address, initiator.request_payload())
            )
            header, payload = decode_packet(b.recv_datagram())
            assert payload[0] == FRAME_REQUEST
            reply = responder.on_request(header.src, payload[1:])
            b.send_datagram(handshake_datagram(ib.address, ia.address, reply))

            header, payload = decode_packet(a.recv_datagram())
            assert payload[0] == FRAME_ACCEPT
            confirm = initiator.on_accept(payload[1:])
            a.send_datagram(handshake_datagram(ia.address, ib.address, confirm))

            header, payload = decode_packet(b.recv_datagram())
            assert payload[0] == FRAME_CONFIRM
            record, session = responder.on_confirm(header.src, payload[1:])
            assert {record.a, record.b} == {ia.address, ib.address}

            snapshot = fetch_stats(server.endpoint)
            assert snapshot.trust_edges == [
                (
                    min(ia.address, ib.address).to_text(),
                    max(ia.address, ib.address).to_text(),
                )
            ]
            assert snapshot.summary_trust_links == 1

    def test_frame_arriving_during_a_call_is_kept(self, server):
        rng = random.Random(10)
        with RegistryClient(server.endpoint, timeout=1.0) as a, RegistryClient(
            server.endpoint, timeout=1.0
        ) as b:
            a.register(rng.randbytes(32))
            b.register(rng.randbytes(32))
            # The second frame's source port is the registry port, which the
            # sending peer picks: only its source address tells it from a reply.
            frames = [
                encode_packet(
                    PacketHeader(a.address, b.address, src_port, PORT_TRUST_HANDSHAKE),
                    bytes([frame_type]) + b"\xffbody",
                )
                for src_port, frame_type in (
                    (PORT_TRUST_HANDSHAKE, FRAME_REQUEST),
                    (PORT_REGISTRY, FRAME_CONFIRM),
                )
            ]
            for frame in frames:
                a.send_datagram(frame)
            # Both frames reach b before the heartbeat reply does.
            assert b.heartbeat() == {"ok": True}
            assert [b.recv_datagram(), b.recv_datagram()] == frames

    def test_unknown_destination_gets_error_frame(self, server):
        rng = random.Random(6)
        with RegistryClient(server.endpoint) as client:
            identity = AgentIdentity.generate(VirtualAddress(0, 0), rng)
            identity.address = client.register(identity.public_key)
            ghost = VirtualAddress(0, 9999)
            initiator = HandshakeInitiator(
                identity, ghost, lambda addr: identity.public_key, rng
            )
            client.send_datagram(
                handshake_datagram(
                    identity.address, ghost, initiator.request_payload()
                )
            )
            header, payload = decode_packet(client.recv_datagram())
            assert payload[0] == FRAME_ERROR
            assert payload[1] == ERROR_UNKNOWN_DESTINATION
            assert header.dst == identity.address


class _HeldLock:
    """The server's lock, recording whether some thread holds it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.held = False

    def __enter__(self) -> None:
        self._lock.acquire()
        self.held = True

    def __exit__(self, *exc_info) -> None:
        self.held = False
        self._lock.release()


class TestStatsEndpoint:
    def test_snapshot_is_serialised_outside_the_lock(self, server, monkeypatch):
        """Only RegistryService.snapshot() holds the lock that the UDP thread waits on."""
        lock = server._lock = _HeldLock()
        held_during = []

        def recording(name, method):
            def call(self):
                held_during.append((name, lock.held))
                return method(self)

            return call

        monkeypatch.setattr(
            RegistryService, "snapshot", recording("snapshot", RegistryService.snapshot)
        )
        monkeypatch.setattr(
            StatsSnapshot, "json_parts", recording("json_parts", StatsSnapshot.json_parts)
        )
        fetch_stats(server.endpoint)
        assert held_during == [("snapshot", True), ("json_parts", False)]

    def test_send_parts_resumes_partial_writes(self):
        """A socket that takes at most 7 bytes a call still gets every byte, in order."""

        class TrickleSocket:
            def __init__(self):
                self.received = bytearray()

            def sendmsg(self, buffers):
                taken = b"".join(bytes(buffer) for buffer in buffers)[:7]
                self.received += taken
                return len(taken)

        registry = RegistryService(clock=lambda: 0.0)
        a, b = (registry.register(bytes([n]) * 32, tags=("x",)) for n in (1, 2))
        record_trust(registry, a, b)
        parts = registry.snapshot().json_parts() + [b"", b"\n"]
        conn = TrickleSocket()
        _send_parts(conn, parts)
        assert bytes(conn.received) == b"".join(parts)

    def test_send_parts_passes_at_most_iov_max_buffers(self):
        """3,000 parts arrive whole: one sendmsg passes at most 1,024 buffers,
        where a longer list fails with EMSGSIZE on Linux."""
        parts = [bytes([n % 251]) * (1 + n % 5) for n in range(3000)]
        sender, receiver = socket.socketpair()
        with sender, receiver:
            _send_parts(sender, parts)
            sender.shutdown(socket.SHUT_WR)
            received = b"".join(iter(lambda: receiver.recv(65536), b""))
        assert received == b"".join(parts)

    def test_unchanged_reads_share_the_node_section(self, server):
        """Two reads with no write between them hand out the same block list."""
        rng = random.Random(3)
        with RegistryClient(server.endpoint) as client:
            client.register(AgentIdentity.generate(VirtualAddress(0, 0), rng).public_key)
        with server._lock:
            first, second = server.registry.snapshot(), server.registry.snapshot()
        assert first.entries[0] is second.entries[0] and len(first.entries[0]) == 1
        assert fetch_stats(server.endpoint).nodes == first.nodes

    def test_fresh_registry_serves_empty_snapshot(self, server):
        snapshot = fetch_stats(server.endpoint)
        assert snapshot.nodes == []
        assert snapshot.trust_edges == []
        assert snapshot.requests_served >= 1  # the stats call itself counts

    def test_unknown_path_is_refused(self, server):
        with socket.create_connection(server.endpoint, timeout=3.0) as conn:
            conn.sendall(b"GET /api/everything\n")
            body = conn.recv(65536)
        assert json.loads(body) == {"ok": False, "error": "unknown-path"}

    def test_undecodable_request_line_leaves_endpoint_up(self, server):
        with socket.create_connection(server.endpoint, timeout=3.0) as conn:
            conn.sendall(b"\xff\xfe GET /api/stats\n")
            while conn.recv(65536):
                pass
        assert fetch_stats(server.endpoint).nodes == []

    def test_snapshot_fields_match_contract(self, server):
        rng = random.Random(7)
        with RegistryClient(server.endpoint) as client:
            key = AgentIdentity.generate(VirtualAddress(0, 0), rng).public_key
            client.register(key, tags=["analytics"])
        with socket.create_connection(server.endpoint, timeout=3.0) as conn:
            conn.sendall(b"GET /api/stats\n")
            chunks = []
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        doc = json.loads(b"".join(chunks))
        assert set(doc) >= {
            "generated_at",
            "requests_served",
            "networks",
            "nodes",
            "trust_edges",
            "summary_trust_links",
        }
        assert doc["nodes"][0]["tags"] == ["analytics"]
        assert set(doc["nodes"][0]) == {"address", "tags", "online", "trust_links"}


class TestEventLogHandle:
    def test_one_handle_flushed_per_event_and_closed_by_stop(
        self, tmp_path, monkeypatch
    ):
        log_path = tmp_path / "events.jsonl"
        opened = []
        path_open = pathlib.Path.open

        def counting_open(path, mode="r", *args, **kwargs):
            if "a" in mode:
                opened.append(path)
            return path_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "open", counting_open)
        rng = random.Random(4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            server = RegistryServer(
                registry=RegistryService(clock=lambda: 50.0, event_log=log_path)
            )
            server.start()
            events = 0
            with RegistryClient(server.endpoint) as client:
                for n in range(6):
                    key = AgentIdentity.generate(VirtualAddress(0, 0), rng).public_key
                    client.register(key, tags=["t%d" % n], hostname="agent-%d" % n)
                    assert client.heartbeat() == {"ok": True}
                    events += 2
                    # flushed: every event is in the file while the handle is open
                    assert log_path.read_text().count("\n") == events
            a, b = server.registry.snapshot().nodes[0:2]
            record_trust(
                server.registry,
                VirtualAddress.from_text(a.address),
                VirtualAddress.from_text(b.address),
            )
            server.stop()
            before = server.registry.snapshot()
            del server
            gc.collect()
        assert opened == [log_path]
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

        def same_state(restored):
            after = restored.snapshot()
            return (after.nodes, after.trust_edges, after.summary_trust_links) == (
                before.nodes,
                before.trust_edges,
                before.summary_trust_links,
            )

        assert same_state(RegistryService.restore(log_path, clock=lambda: 50.0))
        whole = log_path.read_bytes()
        with path_open(log_path, "ab") as handle:
            handle.write(b'{"event":"heartbeat","addr')  # a torn last line
        assert same_state(RegistryService.restore(log_path, clock=lambda: 50.0))
        assert log_path.read_bytes() == whole
