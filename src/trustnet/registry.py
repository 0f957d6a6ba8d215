"""Coordination registry: identity, addressing, trust records, liveness.

A single authoritative state machine. Agents register a public key (plus
optional hostname and capability tags) and receive the next sequential
address on the registry's network. Trust records are unordered pairs stored
idempotently; self-trust is allowed and counts twice toward a node's
trust_links, so the sum of trust_links over all nodes is always
2 * non_self_edges + 2 * self_loops.

Liveness: a node is online while the last heartbeat is at most
MISSED_HEARTBEATS * HEARTBEAT_INTERVAL seconds old.

The node table is columnar, indexed by node_id - base_node_id so an address
is its own index: public keys, last heartbeats, and the snapshot rows in a
_Table. The trust pairs are a second _Table, of address-text pairs in the
order stored, beside a set of each pair as i << 32 | j. A _Table hands its
blocks of 1,024 items, each joined, to every snapshot, and copies a block
before its first write after a read: a persistent vector with one level of
wide leaves. A write renders nothing; a read renders the changed items, joins
their blocks again, and scans the online flags only when two heartbeat bounds
say one can flip. So a read of an unchanged registry does no per-row work.

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
from itertools import chain
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
    BlockList,
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


class _Table:
    """Items in blocks of _CHUNK, each with its items' rendered entries and
    their join_entries bytes. view() hands out the blocks themselves; a write
    copies a block (_CHUNK references) before its first change after a view,
    so no block a view holds ever changes. The items of an append_only table
    are never set, so its full blocks keep no entries once joined."""

    def __init__(self, render: Callable[[Any], bytes], append_only: bool = False) -> None:
        self.blocks: list[list] = []
        self._entries: list[list[bytes]] = []  # the items' renders as of the last view
        self._joined: list[bytes] = []
        self._changed: dict[int, set[int]] = {}  # block -> offsets set since the last view
        self._render, self._append_only = render, append_only
        self._view: Optional[BlockList] = BlockList((), ())

    def _written(self, k: int) -> set[int]:
        """Block k's offsets set since the last view; a block that view holds is copied first."""
        if k not in self._changed:
            self.blocks[k] = self.blocks[k].copy()
            self._changed[k] = set()
        return self._changed[k]

    def set(self, i: int, item: Any) -> None:
        k, r = divmod(i, _CHUNK)
        self._written(k).add(r)
        self.blocks[k][r] = item

    def append(self, item: Any) -> None:
        if not self.blocks or len(self.blocks[-1]) == _CHUNK:
            self.blocks.append([])
            self._entries.append([])
            self._joined.append(b"")
        self._written(len(self.blocks) - 1)
        self.blocks[-1].append(item)

    def view(self) -> BlockList:
        """The items now, rendering and joining only what changed since the
        last view; the same object until a write."""
        if self._changed:
            self._view, render = None, self._render  # frees blocks no snapshot holds
            for k, written in sorted(self._changed.items()):
                items, entries = self.blocks[k], self._entries[k]
                done = len(entries)  # the items past it were appended since
                for r in sorted(r for r in written if r < done):
                    entries[r] = render(items[r])
                entries += map(render, items[done:])
                self._joined[k] = join_entries(entries)
                if self._append_only and len(items) == _CHUNK:
                    entries.clear()
            self._changed.clear()
            self._view = BlockList(tuple(self.blocks), tuple(self._joined))
        return self._view


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
        self._nodes = _Table(NodeView.render)
        self._tags: dict[str, str] = {}  # one str per distinct tag text
        self._by_key: dict[bytes, VirtualAddress] = {}
        self._hostnames: dict[str, VirtualAddress] = {}
        self._edges: set[int] = set()  # each stored pair as i << 32 | j, i <= j
        # each stored pair as its two address texts, in the order stored
        self._pairs = _Table(lambda pair: render_edge(*pair), append_only=True)
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
        address = VirtualAddress(NETWORK_ID, self.base_node_id + len(self._keys))
        text = address.to_text()
        self._keys.append(public_key)
        self._heartbeats.append(at_time)
        self._nodes.append(NodeView(text, normalized, True, 0))
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
        return network_id == NETWORK_ID and 0 <= node_id - self.base_node_id < len(self._keys)

    def _index(self, address: VirtualAddress) -> int:
        """The node table index of address; UnknownNodeError if it is not registered."""
        if address not in self:
            raise UnknownNodeError(f"{address} is not registered")
        return address[1] - self.base_node_id

    def node(self, address: VirtualAddress) -> NodeState:
        i = self._index(address)
        row = self._nodes.blocks[i // _CHUNK][i % _CHUNK]
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
        nodes, blocks = self._nodes, self._nodes.blocks
        row_i, row_j = blocks[i // _CHUNK][i % _CHUNK], blocks[j // _CHUNK][j % _CHUNK]
        self._log_event("trust", row_i.address, row_j.address)
        pair = i << 32 | j
        if pair in self._edges:
            return False
        self._edges.add(pair)
        self._pairs.append((row_i.address, row_j.address))
        # each end gains a link; a self-loop's one node gains both
        for k, (address, tags, online, links) in {i: row_i, j: row_j}.items():
            nodes.set(k, NodeView(address, tags, online, links + 1 + (i == j)))
        return True

    def heartbeat(self, address: VirtualAddress) -> None:
        self.requests_served += 1
        self._heartbeat(address, self._clock())

    def _heartbeat(self, address: VirtualAddress, now: float) -> None:
        i = self._index(address)
        self._heartbeats[i] = now
        row = self._nodes.blocks[i // _CHUNK][i % _CHUNK]
        if row.online:
            self._online_min = min(self._online_min, now)
        else:
            self._offline_max = max(self._offline_max, now)
        self._log_event("heartbeat", row.address, now)

    def snapshot(self) -> StatsSnapshot:
        """Consistent full view; the call itself counts as a request. Its
        nodes and trust_edges are the tables' views (_Table.view)."""
        self.requests_served += 1
        now = self._clock()
        # The bounds tell whether a flag can flip. IEEE subtraction is
        # monotone in the subtrahend, so the test is exact for any clock,
        # one that runs backwards included.
        if now - self._online_min > OFFLINE_AFTER or now - self._offline_max <= OFFLINE_AFTER:
            self._scan_online(now)
        served, count = self.requests_served, len(self._keys)
        nodes, edges, links = self._nodes.view(), self._pairs.view(), self._summary_trust_links
        per_agent = served / count if count else 0.0
        return StatsSnapshot(now, served, [BACKBONE], nodes, edges, links, per_agent)

    def _scan_online(self, now: float) -> None:
        """Flip each row whose online flag changed and set both bounds exactly."""
        online_min, offline_max = math.inf, -math.inf
        nodes = self._nodes
        for i, (last, row) in enumerate(zip(self._heartbeats, chain.from_iterable(nodes.blocks))):
            online = now - last <= OFFLINE_AFTER
            if online is not row.online:
                nodes.set(i, NodeView(row.address, row.tags, online, row.trust_links))
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
        return len(self._keys)

