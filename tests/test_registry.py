"""Registry service: allocation, trust conventions, liveness, relay, log."""

import dataclasses
import json
import random
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import record_trust, snapshot_document
import trustnet.registry
import trustnet.snapshot
from trustnet.analytics.report import consistency_audit
from trustnet.channel import (
    AcceptAllPolicy,
    AgentIdentity,
    HandshakeInitiator,
    HandshakeResponder,
)
from trustnet.errors import (
    ConfigInvalidError,
    DuplicateKeyError,
    HostnameNotFoundError,
    SchemaViolationError,
    UnknownNodeError,
)
from trustnet.overlay import (
    ERROR_UNKNOWN_DESTINATION,
    FRAME_ACCEPT,
    FRAME_CONFIRM,
    FRAME_DECLINE,
    FRAME_ERROR,
    FRAME_REQUEST,
    PORT_TRUST_HANDSHAKE,
    PacketHeader,
    VirtualAddress,
    decode_packet,
    encode_packet,
)
from trustnet.registry import (
    OFFLINE_AFTER,
    REGISTRY_ADDRESS,
    RegistryService,
    normalize_tags,
)
from trustnet.snapshot import NodeView, render_edge


class ManualClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_registry(**kwargs) -> tuple[RegistryService, ManualClock]:
    clock = ManualClock()
    return RegistryService(clock=clock, **kwargs), clock


def key(n: int) -> bytes:
    return bytes([n]) * 32


def rendered_json(snap) -> str:
    """snap's document rendered from its rows and pairs as plain lists, not
    from the blocks the registry joined."""
    plain = dataclasses.replace(snap, nodes=list(snap.nodes), trust_edges=list(snap.trust_edges))
    return plain.to_json()


def frame(
    src: VirtualAddress, dst: VirtualAddress, frame_type: int, body: bytes = b""
) -> bytes:
    payload = bytes([frame_type]) + body
    header = PacketHeader(
        src=src,
        dst=dst,
        src_port=PORT_TRUST_HANDSHAKE,
        dst_port=PORT_TRUST_HANDSHAKE,
    )
    return encode_packet(header, payload)


class TestAllocation:
    def test_first_registration_gets_base_node_id(self):
        registry, _ = make_registry()
        assert registry.register(key(1)) == VirtualAddress(0, 1)

    def test_allocation_is_sequential(self):
        registry, _ = make_registry()
        a = registry.register(key(1))
        b = registry.register(key(2))
        assert (a.node_id, b.node_id) == (1, 2)

    def test_custom_base(self):
        registry, _ = make_registry(base_node_id=0x02D8)
        assert registry.register(key(1)).node_id == 0x02D8

    def test_allocated_ids_form_gap_free_range(self):
        registry, _ = make_registry(base_node_id=5)
        for n in range(10):
            registry.register(key(n))
        snap = registry.snapshot()
        ids = sorted(
            VirtualAddress.from_text(node.address).node_id for node in snap.nodes
        )
        assert ids == list(range(5, 15))

    def test_duplicate_public_key_rejected(self):
        registry, _ = make_registry()
        registry.register(key(1))
        with pytest.raises(DuplicateKeyError):
            registry.register(key(1))

    def test_negative_base_rejected(self):
        with pytest.raises(ConfigInvalidError):
            RegistryService(base_node_id=-1)

    def test_base_beyond_the_node_id_range_rejected(self):
        with pytest.raises(ConfigInvalidError):
            RegistryService(base_node_id=2**32)
        last = RegistryService(base_node_id=0xFFFF_FFFF).register(key(1))
        assert last == VirtualAddress(0, 0xFFFF_FFFF)


class TestHostnames:
    def test_resolve_round_trip(self):
        registry, _ = make_registry()
        addr = registry.register(key(1), hostname="alice")
        assert registry.resolve("alice") == addr

    def test_resolve_is_case_insensitive(self):
        registry, _ = make_registry()
        addr = registry.register(key(1), hostname="Alice")
        assert registry.resolve("ALICE") == addr
        assert registry.resolve("alice") == addr

    def test_unknown_hostname(self):
        registry, _ = make_registry()
        with pytest.raises(HostnameNotFoundError):
            registry.resolve("missing")

    def test_duplicate_hostname_rejected(self):
        registry, _ = make_registry()
        registry.register(key(1), hostname="alice")
        with pytest.raises(DuplicateKeyError):
            registry.register(key(2), hostname="ALICE")


class TestTags:
    def test_tags_lowercased_and_deduplicated(self):
        registry, _ = make_registry()
        addr = registry.register(key(1), tags=("Coding", "coding", "CODING"))
        assert registry.node(addr).tags == ("coding",)

    def test_tag_cap_applies_after_dedup(self):
        assert normalize_tags(("A", "a", "b", "B", "c"), 3) == ("a", "b", "c")
        with pytest.raises(ConfigInvalidError):
            normalize_tags(("a", "b", "c", "d"), 3)

    def test_empty_tag_rejected(self):
        with pytest.raises(ConfigInvalidError):
            normalize_tags(("",), 3)


class TestTrustRecords:
    def test_non_self_edge_adds_one_to_each_endpoint(self):
        registry, _ = make_registry()
        a = registry.register(key(1))
        b = registry.register(key(2))
        assert record_trust(registry, a, b) is True
        assert registry.node(a).trust_links == 1
        assert registry.node(b).trust_links == 1

    def test_self_loop_adds_two(self):
        registry, _ = make_registry()
        a = registry.register(key(1))
        record_trust(registry, a, a)
        assert registry.node(a).trust_links == 2

    def test_repeated_record_keeps_edge_list_deduplicated(self):
        registry, _ = make_registry()
        a = registry.register(key(1))
        b = registry.register(key(2))
        record_trust(registry, a, b)
        assert record_trust(registry, b, a) is False
        snap = registry.snapshot()
        assert snap.trust_edges == [(a.to_text(), b.to_text())]
        assert registry.node(a).trust_links == 1

    def test_summary_counter_runs_ahead_on_duplicates(self):
        registry, _ = make_registry()
        a = registry.register(key(1))
        b = registry.register(key(2))
        record_trust(registry, a, b)
        record_trust(registry, a, b)
        record_trust(registry, b, a)
        snap = registry.snapshot()
        assert len(snap.trust_edges) == 1
        assert snap.summary_trust_links == 3

    def test_unknown_endpoint_rejected(self):
        registry, _ = make_registry()
        a = registry.register(key(1))
        with pytest.raises(UnknownNodeError):
            record_trust(registry, a, VirtualAddress(0, 99))

    def test_degree_identity_over_random_workload(self):
        registry, _ = make_registry()
        rng = random.Random(7)
        addresses = [registry.register(key(n)) for n in range(30)]
        for _ in range(200):
            record_trust(registry, rng.choice(addresses), rng.choice(addresses))
        snap = registry.snapshot()
        nonself = sum(1 for a, b in snap.trust_edges if a != b)
        loops = len(snap.trust_edges) - nonself
        assert sum(n.trust_links for n in snap.nodes) == 2 * nonself + 2 * loops


class TestLiveness:
    def test_fresh_node_is_online(self):
        registry, _ = make_registry()
        registry.register(key(1))
        assert registry.snapshot().nodes[0].online is True

    def test_online_through_three_intervals(self):
        registry, clock = make_registry()
        registry.register(key(1))
        clock.advance(OFFLINE_AFTER)
        assert registry.snapshot().nodes[0].online is True

    def test_offline_after_91_seconds(self):
        registry, clock = make_registry()
        registry.register(key(1))
        clock.advance(91.0)
        assert registry.snapshot().nodes[0].online is False

    def test_heartbeat_restores_liveness(self):
        registry, clock = make_registry()
        addr = registry.register(key(1))
        clock.advance(120.0)
        assert registry.snapshot().nodes[0].online is False
        registry.heartbeat(addr)
        assert registry.snapshot().nodes[0].online is True

    def test_heartbeat_unknown_node(self):
        registry, _ = make_registry()
        with pytest.raises(UnknownNodeError):
            registry.heartbeat(VirtualAddress(0, 5))


class TestSnapshot:
    def test_fresh_registry_snapshot_is_empty(self):
        registry, _ = make_registry()
        snap = registry.snapshot()
        assert snap.nodes == []
        assert snap.trust_edges == []
        assert snap.requests_served >= 0

    def test_requests_served_counts_every_call_including_snapshot(self):
        registry, _ = make_registry()
        for n in range(3):
            registry.register(key(n))
        snap = registry.snapshot()
        assert snap.requests_served == 4
        assert snap.requests_per_agent == pytest.approx(4 / 3)

    def test_nodes_sorted_by_address(self):
        registry, _ = make_registry()
        for n in range(5):
            registry.register(key(n))
        snap = registry.snapshot()
        addresses = [node.address for node in snap.nodes]
        assert addresses == sorted(addresses)

    def test_snapshot_round_trips_through_document_form(self):
        registry, _ = make_registry()
        a = registry.register(key(1), tags=("coding",), hostname="alice")
        b = registry.register(key(2))
        record_trust(registry, a, b)
        record_trust(registry, b, b)
        snap = registry.snapshot()
        from trustnet.snapshot import StatsSnapshot

        again = StatsSnapshot.from_json(snap.to_json())
        assert snapshot_document(again) == snapshot_document(snap)

    def test_network_listing(self):
        registry, _ = make_registry()
        snap = registry.snapshot()
        assert [(net.id, net.name) for net in snap.networks] == [(0, "backbone")]

    def test_snapshot_renders_no_address(self, monkeypatch):
        """Each record's text is rendered at registration, not per snapshot."""
        registry, _ = make_registry()
        addresses = [registry.register(key(n)) for n in range(200)]
        for i in range(150):
            record_trust(registry, addresses[i], addresses[i // 2])
        rendered = []
        to_text = VirtualAddress.to_text

        def counted(address):
            rendered.append(address)
            return to_text(address)

        monkeypatch.setattr(VirtualAddress, "to_text", counted)
        snap = registry.snapshot()
        assert rendered == []
        assert len(snap.nodes) == 200 and len(snap.trust_edges) == 150
        assert [node.address for node in snap.nodes] == [a.to_text() for a in addresses]
        assert snap.trust_edges[3] == (addresses[1].to_text(), addresses[3].to_text())

    def test_record_text_is_its_address_text(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        registry, _ = make_registry(base_node_id=0xFFFE, event_log=log_path)
        addresses = [registry.register(key(n)) for n in range(4)]
        record_trust(registry, addresses[3], addresses[0])
        registry.close()
        restored = RegistryService.restore(
            log_path, base_node_id=0xFFFE, clock=ManualClock()
        )
        for service in (registry, restored):
            for address in addresses:
                record = service.node(address)
                assert record.text == record.address.to_text() == address.to_text()

    def test_kept_snapshot_is_unchanged_by_later_calls(self):
        """The server serialises a snapshot after it releases the registry lock."""
        registry, clock = make_registry()
        a = registry.register(key(1), tags=("coding",), hostname="alice")
        b = registry.register(key(2))
        record_trust(registry, a, b)
        snap = registry.snapshot()
        body = snap.to_json()
        c = registry.register(key(3), tags=("web",))
        clock.advance(OFFLINE_AFTER + 1.0)
        registry.heartbeat(a)
        for frame_type, src, dst in (
            (FRAME_REQUEST, b, c),
            (FRAME_ACCEPT, c, b),
            (FRAME_CONFIRM, b, c),
        ):
            registry.relay_handshake(frame(src, dst, frame_type))
        record_trust(registry, a, a)
        record_trust(registry, a, b)
        assert registry.snapshot().to_json() != body
        assert snap.to_json() == body


class TestSnapshotRows:
    """A snapshot re-renders the entry of a node only when its row changed."""

    @pytest.fixture
    def rendered(self, monkeypatch):
        """Address texts of the rows rendered since the last clear()."""
        texts = []
        render = NodeView.render

        def counted(row):
            texts.append(row.address)
            return render(row)

        monkeypatch.setattr(NodeView, "render", counted)
        return texts

    def test_unchanged_registry_renders_no_entry(self, rendered):
        registry, _ = make_registry()
        for n in range(6):
            registry.register(key(n), tags=("coding",))
        registry.snapshot().to_json()
        assert len(rendered) == 6
        rendered.clear()
        snap = registry.snapshot()
        assert snap.to_json() == json.dumps(snapshot_document(snap), indent=2) + "\n"
        assert rendered == []

    def test_trust_pair_renders_its_two_rows(self, rendered):
        registry, _ = make_registry()
        addresses = [registry.register(key(n)) for n in range(6)]
        registry.snapshot().to_json()
        rendered.clear()
        record_trust(registry, addresses[4], addresses[1])
        snap = registry.snapshot()
        assert snap.to_json() == json.dumps(snapshot_document(snap), indent=2) + "\n"
        assert rendered == [addresses[1].to_text(), addresses[4].to_text()]

    def test_heartbeat_back_online_renders_one_row(self, rendered):
        registry, clock = make_registry()
        addresses = [registry.register(key(n)) for n in range(6)]
        clock.advance(OFFLINE_AFTER + 1.0)
        registry.snapshot().to_json()
        rendered.clear()
        registry.heartbeat(addresses[2])
        snap = registry.snapshot()
        assert snap.to_json() == json.dumps(snapshot_document(snap), indent=2) + "\n"
        assert rendered == [addresses[2].to_text()]
        assert [node.online for node in snap.nodes] == [n == 2 for n in range(6)]

    def test_a_read_renders_each_changed_row_once_and_joins_only_its_blocks(self, rendered):
        """A read after one new pair renders its two rows and joins their two
        blocks again; a node that gains k links between two reads is rendered
        once. The other blocks are the last read's objects."""
        registry, _ = make_registry()
        addresses = [registry.register(n.to_bytes(32, "big")) for n in range(3 * 1024 + 10)]
        first = registry.snapshot()
        rendered.clear()
        record_trust(registry, addresses[5], addresses[2 * 1024 + 7])
        second = registry.snapshot()
        assert rendered == [addresses[5].to_text(), addresses[2 * 1024 + 7].to_text()]
        kept = [new is old for new, old in zip(second.nodes.joined, first.nodes.joined)]
        assert kept == [False, True, False, True]
        assert [new is old for new, old in zip(second.nodes.blocks, first.nodes.blocks)] == kept
        hub = addresses[1500]
        rendered.clear()
        for other in addresses[:8]:
            record_trust(registry, hub, other)
        third = registry.snapshot()
        assert sorted(rendered) == sorted(a.to_text() for a in [hub, *addresses[:8]])
        kept = [new is old for new, old in zip(third.nodes.joined, second.nodes.joined)]
        assert kept == [False, False, True, True]
        assert [new is old for new, old in zip(third.nodes.blocks, second.nodes.blocks)] == kept
        assert b"".join(third.json_parts()) == rendered_json(third).encode()

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 2049])
    def test_blocks_match_the_render_path_at_block_boundaries(self, n):
        """n rows and n edges: changes in the first, a middle and the last
        block, and an edge tail that fills at exactly 1,024, write the bytes
        of the rendered path; full edge blocks are kept from read to read."""
        registry, clock = make_registry()
        tags = ("coding", "café", 'say "hi"')
        addresses = [registry.register(i.to_bytes(32, "big"), tags=tags[: i % 4]) for i in range(n)]

        def read():
            snap = registry.snapshot()
            assert b"".join(snap.json_parts()) == rendered_json(snap).encode()
            assert len(snap.nodes.joined) == -(-n // 1024)
            return snap

        for a, b in zip(addresses, addresses[1:]):
            record_trust(registry, a, b)
        before = read()
        assert record_trust(registry, addresses[0], addresses[-1])  # the n-th edge
        after = read()
        assert len(after.trust_edges) == n and len(after.trust_edges.joined) == -(-n // 1024)
        full = (n - 1) // 1024  # the edge blocks full before the n-th edge
        edges = after.trust_edges, before.trust_edges
        assert all(new is old for new, old in zip(edges[0].joined[:full], edges[1].joined))
        middle = addresses[n // 2]
        record_trust(registry, middle, middle)
        read()
        clock.advance(OFFLINE_AFTER + 1.0)
        registry.heartbeat(middle)
        assert [node.online for node in read().nodes].count(True) == 1

    def test_kept_entries_match_the_render_path(self):
        """At every read, the registry's kept entries write the bytes that the
        snapshot's rows and edges render, through liveness flips both ways."""
        registry, clock = make_registry()
        rng = random.Random(31)
        tags = ("coding", "café", 'say "hi"', "back\\slash", "tab\tstop", "日本", "x")
        addresses, previous, flips = [], {}, set()
        for _ in range(300):
            step = rng.random()
            if step < 0.25 or len(addresses) < 2:
                addresses.append(
                    registry.register(rng.randbytes(32), tags=rng.sample(tags, rng.randint(0, 3)))
                )
            elif step < 0.35:
                clock.advance(rng.choice([1.0, OFFLINE_AFTER + 1.0]))
            elif step < 0.6:
                registry.heartbeat(rng.choice(addresses))
            elif step < 0.9:
                a, b = rng.sample(addresses, 2)
                for src, dst, frame_type in (
                    (a, b, FRAME_REQUEST),
                    (b, a, FRAME_ACCEPT),
                    (a, b, FRAME_CONFIRM),
                ):
                    registry.relay_handshake(frame(src, dst, frame_type))
            else:
                a = rng.choice(addresses)
                record_trust(registry, a, a)
            snap = registry.snapshot()
            body = snap.to_json()
            assert body == json.dumps(snapshot_document(snap), indent=2) + "\n"
            assert body == rendered_json(snap)
            for node in snap.nodes:
                if previous.get(node.address, node.online) is not node.online:
                    flips.add(node.online)
                previous[node.address] = node.online
        assert flips == {True, False}
        assert snap.summary_trust_links > len(snap.trust_edges) > 50

    def test_kept_sections_and_skipped_scans_match_brute_force(self, monkeypatch):
        """At every read, the kept node and edge sections write the bytes of
        json.dumps, and each row's flag is what a full scan would set, while
        the clock jumps both ways; most reads skip the scan."""
        scans = []
        scan = RegistryService._scan_online
        monkeypatch.setattr(
            RegistryService, "_scan_online", lambda self, now: scans.append(now) or scan(self, now)
        )
        registry, clock = make_registry()
        rng = random.Random(47)
        tags = ("coding", "café", 'say "hi"', "back\\slash", "tab\tstop", "日本", "x")
        addresses, snap = [], registry.snapshot()
        kept = [(snap, b"".join(snap.json_parts()))]
        for _ in range(400):
            step = rng.random()
            if step < 0.2 or len(addresses) < 2:
                addresses.append(
                    registry.register(rng.randbytes(32), tags=rng.sample(tags, rng.randint(0, 3)))
                )
            elif step < 0.3:
                clock.advance(rng.choice([-OFFLINE_AFTER - 1.0, -1.0, 1.0, OFFLINE_AFTER + 1.0]))
            elif step < 0.55:  # mostly a row the last read found offline
                offline = [a for a, node in zip(addresses, snap.nodes) if not node.online]
                registry.heartbeat(rng.choice(offline or addresses))
            elif step < 0.85:
                record_trust(registry, *rng.sample(addresses, 2))
            else:
                a = rng.choice(addresses)
                record_trust(registry, a, a)
            snap = registry.snapshot()
            body = (json.dumps(snapshot_document(snap), indent=2) + "\n").encode()
            assert b"".join(snap.json_parts()) == body
            kept.append((snap, body))
            for address, node in zip(addresses, snap.nodes):
                last = registry.node(address).last_heartbeat
                assert node.online is (clock.now - last <= OFFLINE_AFTER)
        assert {node.online for node in snap.nodes} == {True, False}
        assert 0 < len(scans) < 400 / 2
        assert len(snap.trust_edges) > 50 and any(a == b for a, b in snap.trust_edges)
        # No later write changed a snapshot taken before it.
        for snap, body in kept:
            assert b"".join(snap.json_parts()) == body == rendered_json(snap).encode()

    def test_a_kept_snapshot_never_changes(self):
        """Writes after a read copy each block the read shares before they
        change it: rows and pairs appended until both last blocks fill and new
        ones open, a row changed in the first, a middle and the last node
        block, and a self-loop leave the kept snapshot's rows, pairs and bytes
        as read."""
        registry, _ = make_registry()
        addresses = [registry.register(n.to_bytes(32, "big")) for n in range(2 * 1024 + 1000)]
        for a, b in zip(addresses, addresses[1:1001]):
            record_trust(registry, a, b)
        kept = registry.snapshot()
        rows, pairs = list(kept.nodes), list(kept.trust_edges)
        body = b"".join(kept.json_parts())
        assert body == rendered_json(kept).encode()
        assert [len(block) for block in kept.nodes.blocks] == [1024, 1024, 1000]
        assert [len(block) for block in kept.trust_edges.blocks] == [1000]
        for n in range(len(addresses), 3 * 1024 + 1):  # fills the last node block, opens one
            addresses.append(registry.register(n.to_bytes(32, "big")))
        stored = sum(  # one pair in each node block the kept snapshot holds
            record_trust(registry, addresses[i], addresses[i + 2]) for i in (7, 1500, 2100)
        )
        for n in range(1024):  # fills the last pair block, opens one
            if stored == 1025 - 1000:
                break
            stored += record_trust(registry, addresses[-1 - n], addresses[n + 1100])
        assert record_trust(registry, addresses[1500], addresses[1500])
        later = registry.snapshot()
        assert [len(block) for block in later.nodes.blocks] == [1024, 1024, 1024, 1]
        assert [len(block) for block in later.trust_edges.blocks] == [1024, 2]
        assert kept.nodes == rows and rows == kept.nodes and kept.trust_edges == pairs
        assert b"".join(kept.json_parts()) == body == rendered_json(kept).encode()
        assert b"".join(later.json_parts()) == rendered_json(later).encode()

    def test_each_edge_renders_once(self, monkeypatch):
        """N stored edges over K reads cost N edge renders, not N per read."""
        rendered = []

        def counted(a, b):
            rendered.append((a, b))
            return render_edge(a, b)

        for module in (trustnet.registry, trustnet.snapshot):
            monkeypatch.setattr(module, "render_edge", counted)
        registry, _ = make_registry()
        addresses = [registry.register(key(n)) for n in range(30)]
        rng = random.Random(5)
        for _ in range(8):
            for _ in range(20):
                record_trust(registry, rng.choice(addresses), rng.choice(addresses))
            snap = registry.snapshot()
            assert snap.to_json() == json.dumps(snapshot_document(snap), indent=2) + "\n"
        assert rendered == snap.trust_edges and len(rendered) > 100

    def test_rows_stay_consistent_under_threads(self):
        """Writers and readers share rows the way the server's two threads do."""
        registry, clock = make_registry()
        addresses = [registry.register(key(n)) for n in range(40)]
        lock, stop, failures, kept = threading.Lock(), threading.Event(), [], []

        def write(seed):
            rng = random.Random(seed)
            while not stop.is_set():
                with lock:
                    clock.advance(rng.choice([1.0, OFFLINE_AFTER]))
                    registry.heartbeat(rng.choice(addresses))
                    record_trust(registry, rng.choice(addresses), rng.choice(addresses))

        def read():
            while not stop.is_set():
                with lock:
                    snap = registry.snapshot()
                body = snap.to_json()
                links = sum(node.trust_links for node in snap.nodes)
                if links != 2 * len(snap.trust_edges):
                    failures.append(f"{links} links for {len(snap.trust_edges)} edges")
                if body != json.dumps(snapshot_document(snap), indent=2) + "\n":
                    failures.append("a body disagrees with its rows")
                kept.append((snap, body))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(n,)) for n in range(2)]
            threads += [threading.Thread(target=read) for _ in range(2)]
            for thread in threads:
                thread.start()
            time.sleep(1.0)
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == [] and len(kept) > 10
        assert all(snap.to_json() == body for snap, body in kept)


def relay_loop(registry, deliveries, inboxes):
    """Deliver relay output into per-address inboxes."""
    for dst, datagram in deliveries:
        inboxes.setdefault(dst, []).append(datagram)


class TestRelay:
    def setup_pair(self, registry):
        a = registry.register(key(1))
        b = registry.register(key(2))
        return a, b

    def test_forwarded_frame_is_byte_identical(self):
        registry, _ = make_registry()
        a, b = self.setup_pair(registry)
        datagram = frame(a, b, FRAME_REQUEST, b"\x01" * 128)
        deliveries = registry.relay_handshake(datagram)
        assert deliveries == [(b, datagram)]

    def test_full_handshake_records_exactly_one_edge(self):
        registry, _ = make_registry()
        a, b = self.setup_pair(registry)
        registry.relay_handshake(frame(a, b, FRAME_REQUEST))
        registry.relay_handshake(frame(b, a, FRAME_ACCEPT))
        registry.relay_handshake(frame(a, b, FRAME_CONFIRM))
        snap = registry.snapshot()
        assert snap.trust_edges == [(a.to_text(), b.to_text())]
        assert snap.summary_trust_links == 1

    def test_recorded_pair_leaves_no_relay_state(self):
        registry, _ = make_registry()
        a, b = self.setup_pair(registry)
        registry.relay_handshake(frame(a, b, FRAME_REQUEST))
        registry.relay_handshake(frame(b, a, FRAME_ACCEPT))
        registry.relay_handshake(frame(a, b, FRAME_CONFIRM))
        assert len(registry.snapshot().trust_edges) == 1
        assert registry._relay_phase == {}

    def test_retransmitted_confirm_does_not_rerecord(self):
        registry, _ = make_registry()
        a, b = self.setup_pair(registry)
        registry.relay_handshake(frame(a, b, FRAME_REQUEST))
        registry.relay_handshake(frame(b, a, FRAME_ACCEPT))
        registry.relay_handshake(frame(a, b, FRAME_CONFIRM))
        registry.relay_handshake(frame(a, b, FRAME_CONFIRM))
        snap = registry.snapshot()
        assert len(snap.trust_edges) == 1
        assert snap.summary_trust_links == 1

    def test_confirm_without_accept_records_nothing(self):
        registry, _ = make_registry()
        a, b = self.setup_pair(registry)
        registry.relay_handshake(frame(a, b, FRAME_REQUEST))
        deliveries = registry.relay_handshake(frame(a, b, FRAME_CONFIRM))
        assert deliveries[0][0] == b
        assert registry.snapshot().trust_edges == []

    def test_decline_clears_handshake_state(self):
        registry, _ = make_registry()
        a, b = self.setup_pair(registry)
        registry.relay_handshake(frame(a, b, FRAME_REQUEST))
        registry.relay_handshake(frame(b, a, FRAME_DECLINE))
        registry.relay_handshake(frame(b, a, FRAME_ACCEPT))
        registry.relay_handshake(frame(a, b, FRAME_CONFIRM))
        assert registry.snapshot().trust_edges == []

    def test_second_handshake_same_pair_bumps_summary_only(self):
        registry, _ = make_registry()
        a, b = self.setup_pair(registry)
        for _ in range(2):
            registry.relay_handshake(frame(a, b, FRAME_REQUEST))
            registry.relay_handshake(frame(b, a, FRAME_ACCEPT))
            registry.relay_handshake(frame(a, b, FRAME_CONFIRM))
        snap = registry.snapshot()
        assert len(snap.trust_edges) == 1
        assert snap.summary_trust_links == 2

    def test_unknown_destination_returns_error_frame(self):
        registry, _ = make_registry()
        a = registry.register(key(1))
        ghost = VirtualAddress(0, 999)
        deliveries = registry.relay_handshake(frame(a, ghost, FRAME_REQUEST))
        assert len(deliveries) == 1
        dst, datagram = deliveries[0]
        assert dst == a
        header, payload = decode_packet(datagram)
        assert header.src == REGISTRY_ADDRESS
        assert header.dst == a
        assert payload == bytes([FRAME_ERROR, ERROR_UNKNOWN_DESTINATION])

    def test_unregistered_source_is_dropped(self):
        registry, _ = make_registry()
        a = registry.register(key(1))
        ghost = VirtualAddress(0, 999)
        assert registry.relay_handshake(frame(ghost, a, FRAME_REQUEST)) == []

    def test_frames_not_addressed_to_port_444_are_ignored(self):
        registry, _ = make_registry()
        a, b = self.setup_pair(registry)
        header = PacketHeader(src=a, dst=b, src_port=443, dst_port=443)
        assert registry.relay_handshake(encode_packet(header, b"\x04data")) == []

    def test_real_handshake_through_relay(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        registry, _ = make_registry(event_log=log_path)
        rng = random.Random(11)
        seed_a = AgentIdentity.generate(VirtualAddress(0, 0), rng=rng)
        seed_b = AgentIdentity.generate(VirtualAddress(0, 0), rng=rng)
        addr_a = registry.register(seed_a.public_key)
        addr_b = registry.register(seed_b.public_key)
        ident_a = AgentIdentity(addr_a, seed_a.signing_key)
        ident_b = AgentIdentity(addr_b, seed_b.signing_key)
        initiator = HandshakeInitiator(
            ident_a, addr_b, key_lookup=registry.public_key_of, rng=rng
        )
        responder = HandshakeResponder(
            ident_b, AcceptAllPolicy(), key_lookup=registry.public_key_of, rng=rng
        )

        request = initiator.request_payload()
        [(_, wire_request)] = registry.relay_handshake(
            frame(addr_a, addr_b, request[0], request[1:])
        )
        _, delivered = decode_packet(wire_request)
        assert delivered == request  # byte-identical forwarding
        accept = responder.on_request(addr_a, delivered[1:])
        [(_, wire_accept)] = registry.relay_handshake(
            frame(addr_b, addr_a, accept[0], accept[1:])
        )
        _, delivered = decode_packet(wire_accept)
        confirm = initiator.on_accept(delivered[1:])
        [(_, wire_confirm)] = registry.relay_handshake(
            frame(addr_a, addr_b, confirm[0], confirm[1:])
        )
        _, delivered = decode_packet(wire_confirm)
        record, responder_session = responder.on_confirm(addr_a, delivered[1:])

        snap = registry.snapshot()
        assert snap.trust_edges == [(addr_a.to_text(), addr_b.to_text())]
        assert record.a == min(addr_a, addr_b)

        # relay opacity: no handshake payload bytes are persisted
        registry.close()
        logged = log_path.read_text()
        for blob in (request[1:], accept[1:], confirm[1:]):
            assert blob.hex() not in logged
            assert repr(blob) not in logged

        # the sessions work end to end
        header = PacketHeader(src=addr_a, dst=addr_b, src_port=443, dst_port=443)
        sealed = initiator.session.seal(header, b"hello across the relay")
        assert responder_session.open(header, sealed) == b"hello across the relay"


class TestEventLog:
    def test_restore_rebuilds_state(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        registry, clock = make_registry(event_log=log_path)
        a = registry.register(key(1), tags=("coding",), hostname="alice")
        b = registry.register(key(2))
        record_trust(registry, a, b)
        record_trust(registry, b, b)
        record_trust(registry, a, b)  # duplicate bumps only the summary
        clock.advance(10.0)
        registry.heartbeat(a)
        registry.close()

        restored = RegistryService.restore(
            log_path, clock=ManualClock(clock.now)
        )
        assert restored.node_count == 2
        assert len(restored.snapshot().trust_edges) == 2
        assert restored.node(a).tags == ("coding",)
        assert restored.node(a).trust_links == 1
        assert restored.node(b).trust_links == 3
        assert restored.resolve("alice") == a
        assert restored.node(a).last_heartbeat == 10.0
        snap = restored.snapshot()
        assert snap.summary_trust_links == 3
        assert [tuple(edge) for edge in snap.trust_edges] == [
            (a.to_text(), b.to_text()),
            (b.to_text(), b.to_text()),
        ]

    def test_restored_registry_continues_allocation(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        registry, _ = make_registry(event_log=log_path)
        registry.register(key(1))
        registry.register(key(2))
        registry.close()
        restored = RegistryService.restore(log_path, clock=ManualClock())
        assert restored.register(key(3)).node_id == 3
        restored.close()

    def test_restore_from_missing_file_is_empty(self, tmp_path):
        restored = RegistryService.restore(tmp_path / "absent.jsonl")
        assert restored.node_count == 0

    def test_torn_tail_is_dropped_and_cut(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        registry, clock = make_registry(event_log=log_path)
        a = registry.register(key(1), tags=("coding",), hostname="alice")
        b = registry.register(key(2))
        record_trust(registry, a, b)
        record_trust(registry, a, b)
        clock.advance(10.0)
        registry.heartbeat(a)
        registry.close()
        with log_path.open("a") as handle:
            handle.write('{"event":"trust","a":"0:00')  # write cut short

        restored = RegistryService.restore(log_path, clock=clock)
        restored.register(key(3), hostname="carol")
        restored.close()
        before = restored.snapshot()
        again = RegistryService.restore(log_path, clock=clock).snapshot()
        # requests_served is not in the event log, so it is not compared
        assert again.nodes == before.nodes
        assert again.trust_edges == before.trust_edges
        assert again.summary_trust_links == before.summary_trust_links == 2
        assert len(before.nodes) == 3
        lines = log_path.read_text().splitlines()
        assert [json.loads(line)["event"] for line in lines] == [
            "register", "register", "trust", "trust", "heartbeat", "register"
        ]

    def test_parsed_tail_without_newline_is_kept(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        registry, clock = make_registry(event_log=log_path)
        registry.register(key(1))
        registry.register(key(2))
        registry.close()
        log_path.write_text(log_path.read_text().rstrip("\n"))

        restored = RegistryService.restore(log_path, clock=clock)
        assert restored.node_count == 2
        restored.register(key(3))
        restored.close()
        assert RegistryService.restore(log_path, clock=clock).node_count == 3

    @pytest.mark.parametrize(
        "line",
        [
            '{"event":"register"}',
            '{"event":"register","address":"0:0000.0000.0001","public_key":"'
            + "01" * 32
            + '","tags":5,"hostname":null,"t":0}',
            '{"event":"register","address":"0:0000.0000.0001","public_key":"ab",'
            '"tags":[],"hostname":null,"t":0}',
            '{"event":"heartbeat","address":"0:0000.0000.0001","t":"x"}',
            '{"event":"trust","a":"zz","b":"0:0000.0000.0001"}',
            '{"event":"teleport"}',
            '{"event":5}',
            "[1]",
            "{not json",
            '{"event":"heartbeat","address":"0:0000.0000.0001","t":1' + "0" * 400 + "}",
            '{"event":"heartbeat","address":"0:0000.0000.0001","t":NaN}',
            '{"event":"register","address":"0:0000.0000.0002","public_key":"'
            + "01" * 32
            + '","tags":[],"hostname":null,"t":0}',
            '{"event":"register","address":"0:0000.0000.0002","public_key":"'
            + "02" * 32
            + '","tags":["a","b","c","d"],"hostname":null,"t":0}',
            '{"event":"heartbeat","address":"0:0000.0000.0009","t":0}',
            '{"event":"trust","a":"0:0000.0000.0001","b":"0:0000.0000.0009"}',
        ],
        ids=[
            "missing-fields",
            "non-list-tags",
            "one-byte-key",
            "non-number-time",
            "bad-address",
            "unknown-kind",
            "non-string-kind",
            "non-object",
            "not-json",
            "over-range-time",
            "nan-time",
            "duplicate-key",
            "over-cap-tags",
            "unknown-heartbeat",
            "unknown-trust",
        ],
    )
    def test_malformed_line_is_schema_error(self, tmp_path, line):
        log_path = tmp_path / "events.jsonl"
        registry, _ = make_registry(event_log=log_path)
        registry.register(key(1))
        registry.close()
        with log_path.open("a") as handle:
            handle.write(line + "\n")
        with pytest.raises(SchemaViolationError):
            RegistryService.restore(log_path)

    def test_replayed_hostname_binds_as_the_live_call_would(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        log_path.write_text(
            '{"event":"register","address":"0:0000.0000.0001","public_key":"'
            + "01" * 32
            + '","tags":["Coding"],"hostname":"Alpha","t":0}\n'
        )
        restored = RegistryService.restore(log_path)
        assert restored.resolve("alpha") == VirtualAddress(0, 1)
        assert restored.node(VirtualAddress(0, 1)).tags == ("coding",)

    def test_log_is_line_oriented_json(self, tmp_path):
        import json

        log_path = tmp_path / "events.jsonl"
        registry, _ = make_registry(event_log=log_path)
        a = registry.register(key(1))
        record_trust(registry, a, a)
        registry.heartbeat(a)
        registry.close()
        lines = log_path.read_text().splitlines()
        kinds = [json.loads(line)["event"] for line in lines]
        assert kinds == ["register", "trust", "heartbeat"]


# One live control-path call: a registration (key index, tags, hostname), a
# heartbeat of the i-th possible address, a relayed REQUEST/ACCEPT/CONFIRM
# triple between two possible addresses, or a clock step that can cross
# OFFLINE_AFTER.
_LIVE_CALLS = st.one_of(
    st.tuples(
        st.just("register"),
        st.integers(1, 6),
        st.lists(st.sampled_from(["Coding", "coding", "Search", "a", "B", "c"]), max_size=5),
        st.none() | st.sampled_from(["Alpha", "alpha", "BETA", "gamma"]),
    ),
    st.tuples(st.just("heartbeat"), st.integers(0, 6)),
    st.tuples(st.just("handshake"), st.integers(0, 6), st.integers(0, 6)),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 30.0, OFFLINE_AFTER + 1.0])),
)


class TestReplayRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_LIVE_CALLS, min_size=8, max_size=40))
    def test_restore_rebuilds_what_the_live_calls_built(self, calls):
        with tempfile.TemporaryDirectory() as scratch:
            log_path = Path(scratch) / "events.jsonl"
            live, clock = make_registry(event_log=log_path)
            bound = {}
            for call in calls:
                if call[0] == "register":
                    _, n, tags, hostname = call
                    try:
                        address = live.register(key(n), tags=tags, hostname=hostname)
                    except (DuplicateKeyError, ConfigInvalidError):
                        continue
                    if hostname is not None:
                        bound[hostname] = address
                elif call[0] == "heartbeat":
                    try:
                        live.heartbeat(VirtualAddress(0, 1 + call[1]))
                    except UnknownNodeError:
                        pass
                elif call[0] == "handshake":
                    a, b = VirtualAddress(0, 1 + call[1]), VirtualAddress(0, 1 + call[2])
                    live.relay_handshake(frame(a, b, FRAME_REQUEST))
                    live.relay_handshake(frame(b, a, FRAME_ACCEPT))
                    live.relay_handshake(frame(a, b, FRAME_CONFIRM))
                else:
                    clock.advance(call[1])
            live.close()
            restored = RegistryService.restore(log_path, clock=clock)
        before, after = live.snapshot(), restored.snapshot()
        # requests_served (and requests_per_agent) is not in the event log:
        # refused calls, resolves and relayed frames count but write no line.
        assert after.nodes == before.nodes
        assert after.trust_edges == before.trust_edges
        assert after.summary_trust_links == before.summary_trust_links
        assert after.generated_at == before.generated_at
        for node_id in range(1, live.node_count + 1):
            address = VirtualAddress(0, node_id)
            assert restored.node(address) == live.node(address)
        for hostname, address in bound.items():
            assert restored.resolve(hostname) == address
            assert restored.resolve(hostname.swapcase()) == address


# _LIVE_CALLS, plus a direct record_trust of two possible addresses (the same
# one twice for a self-loop, any pair repeated) and a lapse: a clock step past
# OFFLINE_AFTER, then a heartbeat, with no snapshot between the two.
_ROW_CALLS = _LIVE_CALLS | st.one_of(
    st.tuples(st.just("trust"), st.integers(0, 6), st.integers(0, 6)),
    st.tuples(st.just("lapse"), st.integers(0, 6)),
)


class TestRowsNeverGoStale:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_ROW_CALLS, min_size=8, max_size=40))
    def test_every_row_matches_a_model_of_the_calls(self, calls):
        """After each call the rows equal a model of heartbeats and trust pairs."""
        registry, clock = make_registry()
        tags, last, links, pairs = [], [], [], set()

        def known(n):
            return 0 <= n < len(last)

        def trust(a, b):  # node indices; a self-loop counts twice toward its node
            if known(a) and known(b) and frozenset((a, b)) not in pairs:
                pairs.add(frozenset((a, b)))
                links[a] += 1
                links[b] += 1

        kept = []  # every snapshot taken so far, with its body
        for call in calls:
            if call[0] == "register":
                _, n, raw_tags, hostname = call
                try:
                    address = registry.register(key(n), tags=raw_tags, hostname=hostname)
                except (DuplicateKeyError, ConfigInvalidError):
                    continue
                assert address == VirtualAddress(0, 1 + len(last))
                tags.append(tuple(dict.fromkeys(tag.lower() for tag in raw_tags)))
                last.append(clock.now)
                links.append(0)
            elif call[0] in ("heartbeat", "lapse"):
                if call[0] == "lapse":
                    clock.advance(OFFLINE_AFTER + 1.0)
                try:
                    registry.heartbeat(VirtualAddress(0, 1 + call[1]))
                except UnknownNodeError:
                    assert not known(call[1])
                else:
                    last[call[1]] = clock.now
            elif call[0] == "handshake":
                a, b = VirtualAddress(0, 1 + call[1]), VirtualAddress(0, 1 + call[2])
                registry.relay_handshake(frame(a, b, FRAME_REQUEST))
                registry.relay_handshake(frame(b, a, FRAME_ACCEPT))
                registry.relay_handshake(frame(a, b, FRAME_CONFIRM))
                trust(call[1], call[2])
            elif call[0] == "trust":
                try:
                    record_trust(
                        registry, VirtualAddress(0, 1 + call[1]), VirtualAddress(0, 1 + call[2])
                    )
                except UnknownNodeError:
                    assert not (known(call[1]) and known(call[2]))
                trust(call[1], call[2])
            else:
                clock.advance(call[1])
            snap = registry.snapshot()
            assert [
                (node.address, node.tags, node.online, node.trust_links) for node in snap.nodes
            ] == [
                (VirtualAddress(0, 1 + n).to_text(), tags[n], clock.now - last[n] <= OFFLINE_AFTER,
                 links[n])
                for n in range(len(last))
            ]
            body = snap.to_json()
            assert body == json.dumps(snapshot_document(snap), indent=2) + "\n"
            kept.append((snap, body))
        for snap, body in kept:
            assert snap.to_json() == body


class TestInvariants:
    """consistency_audit checks the degree identity on registry snapshots."""

    def test_check_invariants_passes_on_consistent_state(self):
        registry, _ = make_registry()
        a = registry.register(key(1))
        b = registry.register(key(2))
        record_trust(registry, a, b)
        record_trust(registry, a, a)
        assert consistency_audit(registry.snapshot()) == []

    def test_check_invariants_detects_corruption(self):
        registry, _ = make_registry()
        a = registry.register(key(1))
        record_trust(registry, a, a)
        i = a.node_id - registry.base_node_id
        row = registry._nodes.blocks[0][i]
        registry._nodes.set(i, row._replace(trust_links=5))  # rows are immutable
        findings = consistency_audit(registry.snapshot())
        assert [finding.check for finding in findings] == ["trust-links-identity"]
