"""Coordination registry: identity, addressing, trust records, liveness.

A single authoritative state machine. Agents register a public key (plus
optional hostname and capability tags) and receive the next sequential
address on the registry's network. Trust records are unordered pairs stored
idempotently; self-trust is allowed and counts twice toward a node's
trust_links, so the sum of trust_links over all nodes is always
2 * non_self_edges + 2 * self_loops.

Liveness: a node is online while the last heartbeat is at most
MISSED_HEARTBEATS * HEARTBEAT_INTERVAL seconds old.

The node table is columnar: one list per field (public key, last heartbeat,
snapshot row, rendered entry), indexed by node_id - base_node_id, so an
address is its own index. A write renders nothing. Registration, a
trust_links change and an online flip a snapshot finds mark the row; a new
trust pair is kept as one int, i << 32 | j of its two indices. snapshot()
renders each marked row and each new pair once, as ASCII bytes. It keeps each
document section as a list of blocks of 1,024 entries (snapshot._CHUNK) and
hands the lists, with its row and edge lists, to every snapshot it builds
(incremental view maintenance at block granularity): a node block is joined
again only when one of its rows was marked, and as edges are only appended,
a full edge block never changes and new edges are joined into the last,
short block. Two heartbeat bounds tell whether any row's online flag can
flip; only then does snapshot() scan the rows. So a read of an unchanged
registry does no per-row work, and a read after a few writes renders their
rows and joins their blocks.

Handshake frames addressed to port 444 are relayed between agents without
reading anything beyond the overlay header and the leading frame type byte;
when the relay forwards the first CONFIRM of a handshake that it saw pass
through REQUEST and ACCEPT, it records the trust pair.

An optional append-only JSON-lines event log restores state after a restart.
Each mutation has one method that checks, stores and logs it (_register,
_heartbeat, _record_trust_pair); restore() replays every line through it, so
a line the live call would refuse stops the replay. OP_FIELDS reads the
fields of each control op, for the server and the event log alike, and a
line is written from _EVENT_FIELDS, the table that reads it back.
"""

from __future__ import annotations

import math
import os
import time
from itertools import starmap
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, TextIO, Union

from .errors import (
    ConfigInvalidError,
    DuplicateKeyError,
    HostnameNotFoundError,
    MalformedAddressError,
    SchemaViolationError,
    TrustNetError,
    UnknownNodeError,
)
from .overlay import (
    ERROR_UNKNOWN_DESTINATION,
    FRAME_ACCEPT,
    FRAME_CONFIRM,
    FRAME_DECLINE,
    FRAME_ERROR,
    FRAME_REQUEST,
    KEY_SIZE,
    PORT_TRUST_HANDSHAKE,
    PacketHeader,
    VirtualAddress,
    decode_packet,
    encode_packet,
)
from .snapshot import (
    _CHUNK,
    BACKBONE,
    NodeView,
    StatsSnapshot,
    compact_json,
    join_entries,
    read_fields,
    read_json,
    read_number,
    read_optional_string,
    read_string,
    read_strings,
    render_edge,
)

HEARTBEAT_INTERVAL = 30.0
MISSED_HEARTBEATS = 3
OFFLINE_AFTER = HEARTBEAT_INTERVAL * MISSED_HEARTBEATS

# The registry's one network and its own well-known address on it.
NETWORK_ID = BACKBONE.id
REGISTRY_ADDRESS = VirtualAddress(NETWORK_ID, 1)
# Most capability tags one agent may register.
TAG_LIMIT = 3

# relay-observed handshake phases
_SAW_REQUEST = 1
_SAW_ACCEPT = 2


class NodeState(NamedTuple):
    """A copy of one node's registry state, as RegistryService.node reads it."""

    address: VirtualAddress
    public_key: bytes
    tags: tuple[str, ...]
    last_heartbeat: float
    trust_links: int
    text: str


def normalize_tags(tags, limit: int) -> tuple[str, ...]:
    """Lowercase, deduplicate preserving order, enforce the cap."""
    seen: list[str] = []
    for tag in tags:
        lowered = str(tag).strip().lower()
        if not lowered:
            raise ConfigInvalidError("empty tag")
        if lowered not in seen:
            seen.append(lowered)
    if len(seen) > limit:
        raise ConfigInvalidError(f"{len(seen)} tags exceed the cap of {limit}")
    return tuple(seen)


# Readers for the fields of control bodies and event-log lines, in the
# reader(value, name) form of snapshot.read_fields.


def read_public_key(value: Any, name: str) -> bytes:
    """Hex text of exactly KEY_SIZE bytes, the only key a handshake can verify."""
    try:
        key = bytes.fromhex(read_string(value, name))
    except ValueError:
        raise SchemaViolationError(f"{name} must be hex text") from None
    if len(key) != KEY_SIZE:
        raise SchemaViolationError(f"{name} must be {KEY_SIZE} bytes, got {len(key)}")
    return key


def read_address(value: Any, name: str) -> VirtualAddress:
    try:
        return VirtualAddress.from_text(read_string(value, name))
    except MalformedAddressError as exc:
        raise SchemaViolationError(f"{name}: {exc}") from None


# Control op -> reader per field of its body.
OP_FIELDS = {
    "register": {
        "public_key": read_public_key, "tags": read_strings, "hostname": read_optional_string
    },
    "resolve": {"hostname": read_string},
    "heartbeat": {"address": read_address},
}

# Event kind -> reader per field: an op's fields plus the address and time
# the registry chose. _log_event writes them in this order, and replay passes
# them in it to the apply method, after a register event's address.
_EVENT_FIELDS = {
    "register": {"address": read_address, **OP_FIELDS["register"], "t": read_number},
    "trust": {"a": read_address, "b": read_address},
    "heartbeat": {**OP_FIELDS["heartbeat"], "t": read_number},
}


class RegistryService:
    """In-process registry state machine with a single serialized writer."""

    def __init__(
        self,
        *,
        base_node_id: int = 1,
        clock: Optional[Callable[[], float]] = None,
        event_log: Union[str, Path, None] = None,
    ) -> None:
        if base_node_id < 0:
            raise ConfigInvalidError("base_node_id may not be negative")
        if base_node_id > 0xFFFF_FFFF:
            raise ConfigInvalidError("base_node_id must fit the 32-bit node id range")
        self.base_node_id = base_node_id
        self._clock = clock if clock is not None else time.time
        # The node table of the module docstring: entry i is node
        # base_node_id + i. A row's online flag is as of the last snapshot.
        self._keys: list[bytes] = []
        self._heartbeats: list[float] = []
        self._rows: list[NodeView] = []
        self._entries: list[bytes] = []  # each row's render as of the last snapshot
        self._tags: dict[str, str] = {}  # one str per distinct tag text
        self._by_key: dict[bytes, VirtualAddress] = {}
        self._hostnames: dict[str, VirtualAddress] = {}
        self._edges: set[int] = set()  # each stored pair as i << 32 | j, i <= j
        # What the next snapshot() renders: the rows changed and the pairs
        # stored since the last one.
        self._marked: set[int] = set()
        self._new_edges: list[int] = []
        # What the last snapshot() handed out: the rows and the node blocks,
        # and the edge texts and the edge blocks; _edge_tail holds the
        # rendered entries of the last edge block while it is short.
        self._nodes_view: list[NodeView] = []
        self._node_blocks: list[bytes] = []
        self._edges_view: list[tuple[str, str]] = []
        self._edge_blocks: list[bytes] = []
        self._edge_tail: list[bytes] = []
        # _online_min <= the last heartbeat of every online row and
        # _offline_max >= that of every offline row (online as of the last scan).
        self._online_min = math.inf
        self._offline_max = -math.inf
        self._summary_trust_links = 0
        self.requests_served = 0
        self._relay_phase: dict[tuple[VirtualAddress, VirtualAddress], int] = {}
        self._event_log_path = Path(event_log) if event_log is not None else None
        self._event_log: Optional[TextIO] = None

    # --- event log ---

    def _log_event(self, kind: str, *values) -> None:
        """Append one line to the event log, flushed but not fsynced.

        The line names values by the fields of _EVENT_FIELDS[kind]; a miscount
        raises. Each mutation reaches the OS before its call returns. The
        first event opens the handle and close() closes it.
        """
        if self._event_log_path is None:
            return
        event = {"event": kind, **dict(zip(_EVENT_FIELDS[kind], values, strict=True))}
        if self._event_log is None:
            self._event_log = self._event_log_path.open("a", encoding="utf-8")
        self._event_log.write(compact_json(event) + "\n")
        self._event_log.flush()

    def close(self) -> None:
        """Close the event log handle; a later event opens it again."""
        if self._event_log is not None:
            self._event_log.close()
            self._event_log = None

    @classmethod
    def restore(
        cls, event_log: Union[str, Path], **kwargs
    ) -> "RegistryService":
        """Rebuild registry state by replaying an append-only event log.

        Every line is read through the event's field readers and applied by
        the method the live call uses, with the same checks. A line that
        fails either step raises SchemaViolationError naming the line. A last
        line that lacks its newline and does not parse is a torn write: it is
        dropped and cut from the file, so the next event is not appended onto
        the fragment.
        """
        path = Path(event_log)
        service = cls(event_log=None, **kwargs)
        if path.exists():
            size, tail = 0, b""  # size: the bytes of the lines ended by a newline
            with path.open("rb") as handle:
                for number, line in enumerate(handle, 1):
                    if not line.endswith(b"\n"):
                        tail = line
                        break
                    size += len(line)
                    if line.strip():
                        where = f"{path} line {number}"
                        service._apply_event(read_json(line[:-1], where), where)
            if tail.strip():
                where = f"{path} line {number}"
                try:
                    event = read_json(tail, where)
                except SchemaViolationError:
                    os.truncate(path, size)
                else:
                    service._apply_event(event, where)
                    with path.open("ab") as handle:
                        handle.write(b"\n")
        service._event_log_path = path
        return service

    def _apply_event(self, event: Any, where: str) -> None:
        """Apply one event-log line; any refusal names the line (where)."""
        try:
            if not isinstance(event, dict):
                raise SchemaViolationError("an event must be a JSON object")
            kind = read_string(event.get("event"), "event")
            if kind not in _EVENT_FIELDS:
                raise SchemaViolationError(f"unknown event kind {kind!r}")
            values = read_fields(event, _EVENT_FIELDS[kind], {}).values()
            if kind == "register":
                logged, *values = values
                address = self._register(*values)
                if address != logged:
                    raise SchemaViolationError(
                        f"replay allocated {address} but the log says {logged}"
                    )
            elif kind == "trust":
                self._record_trust_pair(*values)
            else:
                self._heartbeat(*values)
        except TrustNetError as exc:
            raise SchemaViolationError(f"{where}: {exc}") from exc

    # --- core API; every public call counts toward requests_served ---

    def register(
        self,
        public_key: bytes,
        tags=(),
        hostname: Optional[str] = None,
    ) -> VirtualAddress:
        """Allocate the next sequential address for a new public key."""
        self.requests_served += 1
        return self._register(public_key, tags, hostname, self._clock())

    def _register(
        self, public_key: bytes, tags, hostname: Optional[str], at_time: float
    ) -> VirtualAddress:
        if public_key in self._by_key:
            raise DuplicateKeyError("public key is already registered")
        normalized = tuple(self._tags.setdefault(t, t) for t in normalize_tags(tags, TAG_LIMIT))
        host = hostname.lower() if hostname is not None else None
        if host is not None and host in self._hostnames:
            raise DuplicateKeyError(f"hostname {host!r} is already bound")
        i = len(self._rows)
        address = VirtualAddress(NETWORK_ID, self.base_node_id + i)
        text = address.to_text()
        self._keys.append(public_key)
        self._heartbeats.append(at_time)
        self._rows.append(NodeView(text, normalized, True, 0))
        self._entries.append(b"")
        self._marked.add(i)
        self._online_min = min(self._online_min, at_time)
        self._by_key[public_key] = address
        if host is not None:
            self._hostnames[host] = address
        self._log_event("register", text, public_key.hex(), normalized, host, at_time)
        return address

    def resolve(self, hostname: str) -> VirtualAddress:
        """Case-insensitive hostname lookup."""
        self.requests_served += 1
        address = self._hostnames.get(hostname.lower())
        if address is None:
            raise HostnameNotFoundError(f"hostname {hostname!r} is not bound")
        return address

    def __contains__(self, address: VirtualAddress) -> bool:
        """Whether address is registered; does not count toward requests_served."""
        network_id, node_id = address
        return network_id == NETWORK_ID and 0 <= node_id - self.base_node_id < len(self._rows)

    def _index(self, address: VirtualAddress) -> int:
        """The node table index of address; UnknownNodeError if it is not registered."""
        if address not in self:
            raise UnknownNodeError(f"{address} is not registered")
        return address[1] - self.base_node_id

    def node(self, address: VirtualAddress) -> NodeState:
        i = self._index(address)
        row = self._rows[i]
        return NodeState(
            address, self._keys[i], row.tags, self._heartbeats[i], row.trust_links, row.address
        )

    def public_key_of(self, address: VirtualAddress) -> bytes:
        """Directory lookup used by handshake verification."""
        self.requests_served += 1
        return self._keys[self._index(address)]

    def _record_trust_pair(self, a: VirtualAddress, b: VirtualAddress) -> bool:
        """Store an unordered trust pair; returns False when already present."""
        i, j = sorted((self._index(a), self._index(b)))
        # The summary counter is monotonic over recording attempts, so it can
        # run ahead of the deduplicated edge list when the same pair is
        # recorded twice (e.g. both endpoints initiated a handshake).
        self._summary_trust_links += 1
        rows = self._rows
        self._log_event("trust", rows[i].address, rows[j].address)
        pair = i << 32 | j
        if pair in self._edges:
            return False
        self._edges.add(pair)
        self._new_edges.append(pair)
        # each end gains a link; a self-loop's one node gains both
        for k in {i, j}:
            address, tags, online, links = rows[k]
            self._set_row(k, NodeView(address, tags, online, links + 1 + (i == j)))
        return True

    def _set_row(self, i: int, row: NodeView) -> None:
        """Replace node i's row and mark it for the next snapshot() to render."""
        self._rows[i] = row
        self._marked.add(i)

    def heartbeat(self, address: VirtualAddress) -> None:
        self.requests_served += 1
        self._heartbeat(address, self._clock())

    def _heartbeat(self, address: VirtualAddress, now: float) -> None:
        i = self._index(address)
        self._heartbeats[i] = now
        if self._rows[i].online:
            self._online_min = min(self._online_min, now)
        else:
            self._offline_max = max(self._offline_max, now)
        self._log_event("heartbeat", self._rows[i].address, now)

    def snapshot(self) -> StatsSnapshot:
        """Consistent full view; the call itself counts as a request.

        Snapshots read while no row changed and no edge was stored share
        their nodes and trust_edges lists, so a caller must not change them.
        """
        self.requests_served += 1
        now = self._clock()
        # The bounds tell whether a flag can flip. IEEE subtraction is
        # monotone in the subtrahend, so the test is exact for any clock,
        # one that runs backwards included.
        if now - self._online_min > OFFLINE_AFTER or now - self._offline_max <= OFFLINE_AFTER:
            self._scan_online(now)
        # A change makes new lists and blocks, and never alters one a
        # snapshot holds, so the snapshot may be serialised after the lock
        # is released. Each view is copied after its blocks are joined, so
        # the copies and a join's buffer table are not allocated at once.
        if self._new_edges:
            self._render_edges()
        if self._marked:
            self._render_rows()
        nodes = self._nodes_view
        per_agent = self.requests_served / len(nodes) if nodes else 0.0
        snapshot = StatsSnapshot(
            generated_at=now,
            requests_served=self.requests_served,
            networks=[BACKBONE],
            nodes=nodes,
            trust_edges=self._edges_view,
            summary_trust_links=self._summary_trust_links,
            requests_per_agent=per_agent,
        )
        snapshot.entries = self._node_blocks, self._edge_blocks
        return snapshot

    def _render_rows(self) -> None:
        """Render each marked row once and join again each block that holds one."""
        rows, entries, marked = self._rows, self._entries, self._marked
        for i in sorted(marked):
            entries[i] = rows[i].render()
        # The last list is let go first, so a block no snapshot holds is
        # freed as its replacement is joined.
        blocks = self._node_blocks = self._node_blocks.copy()
        blocks += [b""] * (-(-len(rows) // _CHUNK) - len(blocks))
        for k in {i // _CHUNK for i in marked}:
            blocks[k] = join_entries(entries[k * _CHUNK : (k + 1) * _CHUNK])
        marked.clear()
        self._nodes_view = rows.copy()

    def _render_edges(self) -> None:
        """Render each new pair once: the full edge blocks are kept, and the
        new entries are joined with the short last block's."""
        rows, tail = self._rows, self._edge_tail
        new = [(rows[p >> 32].address, rows[p & 0xFFFF_FFFF].address) for p in self._new_edges]
        self._new_edges = []
        blocks = self._edge_blocks[: len(self._edges_view) // _CHUNK]
        tail += starmap(render_edge, new)
        blocks += [join_entries(tail[k : k + _CHUNK]) for k in range(0, len(tail), _CHUNK)]
        del tail[: len(tail) - len(tail) % _CHUNK]
        self._edge_blocks = blocks
        self._edges_view = self._edges_view + new

    def _scan_online(self, now: float) -> None:
        """Flip each row whose online flag changed and set both bounds exactly.

        The table is in allocation order, which is address order.
        """
        online_min, offline_max = math.inf, -math.inf
        for i, (last, row) in enumerate(zip(self._heartbeats, self._rows)):
            online = now - last <= OFFLINE_AFTER
            if online is not row.online:
                self._set_row(i, NodeView(row.address, row.tags, online, row.trust_links))
            if online:
                if last < online_min:
                    online_min = last
            elif last > offline_max:
                offline_max = last
        self._online_min, self._offline_max = online_min, offline_max

    # --- handshake relay ---

    def relay_handshake(
        self, datagram: bytes
    ) -> list[tuple[VirtualAddress, bytes]]:
        """Forward a port-444 frame; returns (next_hop, datagram) deliveries.

        The frame body stays opaque: only the overlay header and the leading
        type byte are read. An unknown destination produces an ERROR frame
        back to the sender. Forwarding the first CONFIRM of a handshake whose
        REQUEST and ACCEPT both passed through records the trust pair and
        drops its phase: the phase table holds open handshakes only.
        """
        self.requests_served += 1
        header, payload = decode_packet(datagram)
        if header.dst_port != PORT_TRUST_HANDSHAKE or not payload:
            return []
        if header.src not in self:
            return []
        if header.dst not in self:
            error_header = PacketHeader(
                src=REGISTRY_ADDRESS,
                dst=header.src,
                src_port=PORT_TRUST_HANDSHAKE,
                dst_port=PORT_TRUST_HANDSHAKE,
            )
            error_payload = bytes([FRAME_ERROR, ERROR_UNKNOWN_DESTINATION])
            return [(header.src, encode_packet(error_header, error_payload))]

        frame_type = payload[0]
        if frame_type == FRAME_REQUEST:
            self._relay_phase[(header.src, header.dst)] = _SAW_REQUEST
        elif frame_type == FRAME_ACCEPT:
            key = (header.dst, header.src)
            if self._relay_phase.get(key) == _SAW_REQUEST:
                self._relay_phase[key] = _SAW_ACCEPT
        elif frame_type == FRAME_CONFIRM:
            key = (header.src, header.dst)
            if self._relay_phase.get(key) == _SAW_ACCEPT:
                self._record_trust_pair(header.src, header.dst)
                del self._relay_phase[key]
        elif frame_type == FRAME_DECLINE:
            self._relay_phase.pop((header.dst, header.src), None)
        return [(header.dst, datagram)]

    # --- introspection ---

    @property
    def node_count(self) -> int:
        return len(self._rows)

