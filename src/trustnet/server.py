"""Network front end for the registry: UDP packet service plus stats endpoint.

Control operations (register, resolve, heartbeat) arrive as overlay packets
addressed to the registry's well-known address with destination port 1; the
body is one JSON object per packet and the reply mirrors it. One op table,
RegistryServer._OPS, names each op's handler, the readers of its fields and
the defaults of the optional ones; the readers are registry.OP_FIELDS, which
also read the event log. Every body is read into typed arguments before the
registry is touched, and a body that fails to read is answered with error
"bad-request". Port-444 frames are relayed between learned agent endpoints
without reading their bodies. A datagram that still fails (a codec error, an
unsendable reply, a socket error) is dropped and counted by exception class
in RegistryServer.dropped; no datagram stops the UDP thread.

Per datagram, the UDP thread decodes the header once, and learns the
sender's endpoint when its source address is registered (a membership test,
no exception for an unknown sender). A control reply is written by
snapshot.compact_json and sent under a new PacketHeader, from the registry's
address and port 1 back to the request's source address and port. A port-444
frame goes to RegistryService.relay_handshake, which decodes it again and
returns the datagrams to forward.

The stats endpoint is a line-oriented TCP listener on the same port number:
the request line names the path `/api/stats` and the response is the full
snapshot as one JSON document. The line is read as bytes, at most 65,535 of
them, and never decoded.

All registry mutations funnel through one lock, preserving the serialized
single-writer contract while the UDP and TCP threads run concurrently. The
stats thread holds the lock only for RegistryService.snapshot(), which hands
out the registry's kept node and edge sections as lists of blocks of 1,024
entries. Under the lock it scans the rows only when a heartbeat bound says
an online flag may flip, renders the rows changed and the edges stored since
the last read, joins again only the node blocks that hold such a row and the
last, short edge block, and copies the row and edge lists once one of them
changed. After the release, StatsSnapshot.json_parts wraps the blocks in a
few small parts and _send_parts writes the parts to the socket as they are,
at most 1,024 buffers per sendmsg, so an unchanged read copies none of the
document, and no block outlives the read unless the registry keeps it.
"""

from __future__ import annotations

import json
import socket
import threading
from collections import Counter, deque
from typing import Optional

from .errors import SchemaViolationError, TrustNetError
from .overlay import (
    PORT_REGISTRY,
    PORT_TRUST_HANDSHAKE,
    PacketHeader,
    VirtualAddress,
    decode_packet,
    encode_packet,
)
from .registry import OP_FIELDS, REGISTRY_ADDRESS, RegistryService
from .snapshot import StatsSnapshot, compact_json, read_fields, read_json

NULL_ADDRESS = VirtualAddress(0, 0)
STATS_PATH = "/api/stats"
_RECV_SIZE = 65_535
_POLL_INTERVAL = 0.2
# Most buffers one sendmsg may pass: UIO_MAXIOV on Linux, where a longer
# list fails with EMSGSIZE.
_IOV_MAX = 1024
# Characters of an error message an error reply echoes; at most 12 JSON bytes
# each, so the reply fits one datagram whatever the body held.
_MESSAGE_LIMIT = 500


class RegistryServer:
    """Serves one RegistryService over real sockets; start()/stop() lifecycle.

    The default node-id base is 2 so allocated addresses never collide with
    the registry's own well-known address (network 0, node 1).
    """

    def __init__(
        self,
        registry: Optional[RegistryService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if registry is None:
            registry = RegistryService(base_node_id=2)
        self.registry = registry
        self.host = host
        self._requested_port = port
        self.endpoints: dict[VirtualAddress, tuple[str, int]] = {}
        self.dropped: Counter[str] = Counter()  # exception class name -> datagrams
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._udp: Optional[socket.socket] = None
        self._tcp: Optional[socket.socket] = None
        self._threads: list[threading.Thread] = []

    # -- lifecycle --

    def start(self) -> None:
        self._udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._udp.bind((self.host, self._requested_port))
        self._udp.settimeout(_POLL_INTERVAL)
        port = self._udp.getsockname()[1]
        self._tcp = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._tcp.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._tcp.bind((self.host, port))
        self._tcp.listen(8)
        self._tcp.settimeout(_POLL_INTERVAL)
        self._threads = [
            threading.Thread(target=self._udp_loop, daemon=True),
            threading.Thread(target=self._tcp_loop, daemon=True),
        ]
        for thread in self._threads:
            thread.start()

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=2.0)
        for sock in (self._udp, self._tcp):
            if sock is not None:
                sock.close()
        self._threads = []
        self.registry.close()

    def __enter__(self) -> "RegistryServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def port(self) -> int:
        assert self._udp is not None, "server is not started"
        return self._udp.getsockname()[1]

    @property
    def endpoint(self) -> tuple[str, int]:
        return (self.host, self.port)

    # -- UDP packet service --

    def _udp_loop(self) -> None:
        while not self._stop.is_set():
            try:
                data, peer = self._udp.recvfrom(_RECV_SIZE)
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                self._handle_datagram(data, peer)
            except (TrustNetError, OSError) as exc:
                self.dropped[type(exc).__name__] += 1

    def _handle_datagram(self, data: bytes, peer: tuple[str, int]) -> None:
        header, payload = decode_packet(data)
        with self._lock:
            if header.src in self.registry:
                self.endpoints[header.src] = peer
        if header.dst_port == PORT_REGISTRY:
            # _MESSAGE_LIMIT keeps every reply far below MAX_PAYLOAD_SIZE.
            reply = self._control_op(payload, peer)
            to_sender = PacketHeader(REGISTRY_ADDRESS, header.src, PORT_REGISTRY, header.src_port)
            self._udp.sendto(encode_packet(to_sender, reply), peer)
        elif header.dst_port == PORT_TRUST_HANDSHAKE:
            with self._lock:
                deliveries = self.registry.relay_handshake(data)
            for next_hop, datagram in deliveries:
                endpoint = peer if next_hop == header.src else self.endpoints.get(
                    next_hop
                )
                if endpoint is not None:
                    self._udp.sendto(datagram, endpoint)

    def _control_op(self, payload: bytes, peer: tuple[str, int]) -> bytes:
        try:
            doc = read_json(payload, "control body")
            if not isinstance(doc, dict):
                raise SchemaViolationError("control body must be a JSON object")
            op = doc.get("op")
            handler, readers, defaults = self._OPS.get(
                op if isinstance(op, str) else None, self._UNKNOWN_OP
            )
            args = read_fields(doc, readers, defaults)
        except SchemaViolationError as exc:
            reply = {"ok": False, "error": "bad-request", "message": str(exc)}
        else:
            with self._lock:
                try:
                    reply = handler(self, peer, **args)
                except TrustNetError as exc:
                    reply = {"ok": False, "error": type(exc).__name__, "message": str(exc)}
        if "message" in reply:
            reply["message"] = reply["message"][:_MESSAGE_LIMIT]
        return compact_json(reply).encode("utf-8")

    # Op handlers run under the lock with the arguments their readers returned.

    def _register(self, peer, public_key, tags, hostname) -> dict:
        address = self.registry.register(public_key, tags=tags, hostname=hostname)
        self.endpoints[address] = peer
        return {"ok": True, "address": address.to_text()}

    def _resolve(self, peer, hostname) -> dict:
        return {"ok": True, "address": self.registry.resolve(hostname).to_text()}

    def _heartbeat(self, peer, address) -> dict:
        self.registry.heartbeat(address)
        self.endpoints[address] = peer
        return {"ok": True}

    # op -> (handler, reader per field, defaults of the optional fields)
    _OPS = {
        "register": (_register, OP_FIELDS["register"], {"tags": (), "hostname": None}),
        "resolve": (_resolve, OP_FIELDS["resolve"], {}),
        "heartbeat": (_heartbeat, OP_FIELDS["heartbeat"], {}),
    }
    _UNKNOWN_OP = (lambda self, peer: {"ok": False, "error": "unknown-op"}, {}, {})

    # -- TCP stats endpoint --

    def _tcp_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._tcp.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with conn:
                conn.settimeout(2.0)
                try:
                    line = conn.makefile("rb").readline(_RECV_SIZE)
                except OSError:
                    continue
                try:
                    _send_parts(conn, self._response(line))
                except OSError:
                    continue

    def _response(self, line: bytes) -> list[bytes]:
        """The parts of the answer to a request line; none is kept once it is sent."""
        # The line stays bytes: nothing is decoded, so nothing fails.
        if STATS_PATH.encode() not in line.split():
            return [json.dumps({"ok": False, "error": "unknown-path"}).encode(), b"\n"]
        with self._lock:
            snapshot = self.registry.snapshot()
        return snapshot.json_parts() + [b"\n"]


def _send_parts(conn: socket.socket, parts: list[bytes]) -> None:
    """Send the concatenation of parts without joining them.

    One sendmsg takes at most _IOV_MAX buffers, and a socket with a timeout
    may take part of a write, so each sendmsg resumes where the last one
    stopped.
    """
    views = [memoryview(part) for part in parts if part]
    first = 0  # the index of the first view not wholly sent
    while first < len(views):
        sent = conn.sendmsg(views[first : first + _IOV_MAX])
        while first < len(views) and sent >= len(views[first]):
            sent -= len(views[first])
            first += 1
        if sent:
            views[first] = views[first][sent:]


# --- client helpers ---


class RegistryClient:
    """UDP client for the control protocol; keeps one socket per identity.

    The socket is the client's network identity: the server learns this
    endpoint at registration and relays handshake frames back to it, so use
    recv_datagram() to receive them. A frame that arrives while a control
    call waits for its reply is kept, and recv_datagram() returns the kept
    frames first, in arrival order.
    """

    def __init__(self, server: tuple[str, int], timeout: float = 3.0) -> None:
        self.server = server
        self.address: Optional[VirtualAddress] = None
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.settimeout(timeout)
        self._kept: deque[bytes] = deque()

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "RegistryClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _call(self, doc: dict) -> dict:
        body = compact_json(doc).encode("utf-8")
        header = PacketHeader(
            src=self.address if self.address is not None else NULL_ADDRESS,
            dst=REGISTRY_ADDRESS,
            src_port=PORT_REGISTRY,
            dst_port=PORT_REGISTRY,
        )
        self._sock.sendto(encode_packet(header, body), self.server)
        while True:
            data, _ = self._sock.recvfrom(_RECV_SIZE)
            header, payload = decode_packet(data)
            # Only a reply comes from the registry's address and port: the relay
            # forwards frames of registered agents, and its ERROR frames use port 444.
            if header.src == REGISTRY_ADDRESS and header.src_port == PORT_REGISTRY:
                return json.loads(payload.decode("utf-8"))
            self._kept.append(data)

    def register(self, public_key: bytes, tags=(), hostname=None) -> VirtualAddress:
        doc = {"op": "register", "public_key": public_key.hex(), "tags": list(tags)}
        if hostname is not None:
            doc["hostname"] = hostname
        reply = self._call(doc)
        if not reply.get("ok"):
            raise TrustNetError(f"register failed: {reply}")
        self.address = VirtualAddress.from_text(reply["address"])
        return self.address

    def resolve(self, hostname: str) -> dict:
        return self._call({"op": "resolve", "hostname": hostname})

    def heartbeat(self) -> dict:
        assert self.address is not None, "register first"
        return self._call({"op": "heartbeat", "address": self.address.to_text()})

    def send_datagram(self, datagram: bytes) -> None:
        self._sock.sendto(datagram, self.server)

    def recv_datagram(self) -> bytes:
        if self._kept:
            return self._kept.popleft()
        data, _ = self._sock.recvfrom(_RECV_SIZE)
        return data


def fetch_stats(server: tuple[str, int], timeout: float = 3.0) -> StatsSnapshot:
    """Request /api/stats over TCP and parse the snapshot document."""
    with socket.create_connection(server, timeout=timeout) as conn:
        conn.sendall(f"GET {STATS_PATH}\n".encode("utf-8"))
        chunks = []
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return StatsSnapshot.from_json(b"".join(chunks))
