"""The `registry-udp` workload: the real daemon under loopback load.

One generator process with one thread, one UDP socket and at most one TCP
connection open at a time drives `trustnet serve-registry`. All datagrams
are built during set-up. Phases, in order:

  r1k     open loop at 1,000 ops/s, one /api/stats read per second
  r5k     open loop at 5,000 ops/s, one /api/stats read per second
  closed  closed loop: 60,000 requests, 32 kept outstanding

The mix is 70% heartbeat, 26% handshake frames and 4% register, the
registry call mix of sim-lossy-800 at seed 11 (13,496 heartbeats, 5,046
relayed frames, 800 registers). Frames come in REQUEST/ACCEPT/CONFIRM
triples over fresh pairs of preloaded agents, with the real payload sizes.
A request's header src_port carries a sequence tag: control replies echo it
as dst_port, and relayed frames come back byte-identical. Open-loop round
trips are timed from each request's due time; waits use select(2), whose
timeout has microsecond resolution.

Like any UDP client, the generator sends a request again when no answer
came within RETRY_S, up to ATTEMPTS times in all. A request fails only when
every attempt goes unanswered or the answer is not ok. Requests whose first
attempt went unanswered are the daemon's datagram loss; they are counted on
their own (`unanswered.<phase>`) and left out of the round-trip percentiles.
"""

from __future__ import annotations

import json
import random
import select
import socket
import struct
import subprocess
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import HostSpeed
from common import (
    BenchError, child_env, cli_argv, median, percentile, stop_process,
)

PRELOAD = 5_000
OPEN_RATES = (("r1k", 1_000), ("r5k", 5_000))
OUTSTANDING = 32
STATS_PERIOD_S = 1.0
RETRY_S = 0.5  # several times the longest stall seen during a stats read
ATTEMPTS = 5
SETUP_REPEATS = 5
CLOSED_OPS = 60_000
RESOLVE_SAMPLES = 25
IDLE_STATS_READS = 7
MIX = (("heartbeat", 0.70), ("relay", 0.26), ("register", 0.04))
FRAME_SIZES = ((1, 129), (2, 129), (3, 65))  # REQUEST, ACCEPT, CONFIRM
REGISTRY_WIRE = bytes.fromhex("000000000001")  # overlay address 0:0000.0000.0001
PORT_REGISTRY = 1
PORT_HANDSHAKE = 444
# magic(2) version(1) flags(1) src(6) dst(6) src_port(2) dst_port(2)
_HEADER = struct.Struct("!2sBB6s6sHH")
_PORTS = struct.Struct("!HH")


def _now() -> float:
    return time.perf_counter()


@dataclass
class Op:
    kind: str  # heartbeat | register | relay | resolve
    datagram: bytes
    tag: int
    triple: int = -1  # relay frames: index of their triple
    due: float = 0.0
    sent: float = 0.0
    attempts: int = 0
    done: bool = False


@dataclass
class Outcome:
    """What came back, across every phase of one run."""

    rtts: dict = field(default_factory=dict)  # phase -> kind -> [seconds]
    lateness: dict = field(default_factory=dict)  # phase -> [seconds]
    busy: dict = field(default_factory=dict)  # phase -> CPU share
    cpu_per_op: dict = field(default_factory=dict)  # phase -> generator CPU seconds
    unanswered: dict = field(default_factory=dict)  # phase -> first attempts lost
    retransmits: dict = field(default_factory=dict)  # phase -> count
    given_up: dict = field(default_factory=dict)  # phase -> requests failed unanswered
    sent: dict = field(default_factory=dict)  # phase -> count
    kinds: dict = field(default_factory=dict)  # kind -> requests sent in the timed phases
    completions: dict = field(default_factory=dict)  # phase -> [completion times]
    stats_ms: dict = field(default_factory=dict)  # phase -> [ms]
    not_ok: list = field(default_factory=list)
    not_identical: int = 0
    register_replies: list = field(default_factory=list)
    relayed: dict = field(default_factory=dict)  # triple -> frame types, in arrival order
    resolve_replies: list = field(default_factory=list)


class Traffic:
    """Every datagram of a run, built from the seed before timing starts."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.seq = 0
        self.new_agents = 0
        self.triples = 0
        self.used_pairs: set[tuple[int, int]] = set()
        self.addresses: list[bytes] = []  # wire form of preloaded agents
        self.texts: list[str] = []
        self.hostnames = [f"agent-{seed}-{i}.bench" for i in range(PRELOAD)]
        self.keys = [self.rng.randbytes(32) for _ in range(PRELOAD)]
        vocabulary = ("search", "code", "data", "ops", "chat")
        self.tags = [self.rng.sample(vocabulary, self.rng.randint(0, 3)) for _ in range(PRELOAD)]
        self._pending_frames: list[Op] = []

    def _tag(self) -> int:
        tag = self.seq & 0xFFFF
        self.seq += 1
        return tag

    @staticmethod
    def _header(src: bytes, dst: bytes, src_port: int, dst_port: int) -> bytes:
        return _HEADER.pack(b"PV", 1, 0, src, dst, src_port, dst_port)

    def control(self, kind: str, doc: dict, src: bytes = bytes(6)) -> Op:
        tag = self._tag()
        body = json.dumps(doc, separators=(",", ":")).encode()
        return Op(kind, self._header(src, REGISTRY_WIRE, tag, PORT_REGISTRY) + body, tag)

    def preload_ops(self) -> list[Op]:
        return [
            self.control("register", {"op": "register", "public_key": key.hex(),
                                      "tags": tags, "hostname": host})
            for key, tags, host in zip(self.keys, self.tags, self.hostnames)
        ]

    def learn(self, ops: list[Op], replies: list[tuple[Op, bytes]]) -> None:
        """Record the preloaded agents' addresses from the register replies."""
        by_op = {id(op): json.loads(payload)["address"] for op, payload in replies}
        self.texts = [by_op[id(op)] for op in ops]
        self._heartbeats = [
            json.dumps({"op": "heartbeat", "address": text}, separators=(",", ":")).encode()
            for text in self.texts
        ]
        for text in self.texts:
            network, hi, lo = text.split(":")[1].split(".")
            node = (int(hi, 16) << 16) | int(lo, 16)
            self.addresses.append(struct.pack("!HI", int(network, 16), node))

    def _heartbeat(self) -> Op:
        i = self.rng.randrange(PRELOAD)
        tag = self._tag()
        header = self._header(self.addresses[i], REGISTRY_WIRE, tag, PORT_REGISTRY)
        return Op("heartbeat", header + self._heartbeats[i], tag)

    def _register(self) -> Op:
        k = self.new_agents
        self.new_agents += 1
        key = self.rng.randbytes(32).hex()
        return self.control("register", {"op": "register", "public_key": key,
                                         "tags": [], "hostname": f"late-{k}.bench"})

    def _frame(self) -> Op:
        if not self._pending_frames:
            while True:
                a, b = self.rng.randrange(PRELOAD), self.rng.randrange(PRELOAD)
                pair = (min(a, b), max(a, b))
                if a != b and pair not in self.used_pairs:
                    break
            self.used_pairs.add(pair)
            triple = self.triples
            self.triples += 1
            ends = ((a, b), (b, a), (a, b))
            for (frame_type, size), (src, dst) in zip(FRAME_SIZES, ends):
                tag = self._tag()
                payload = bytes([frame_type]) + self.rng.randbytes(size - 1)
                datagram = self._header(self.addresses[src], self.addresses[dst],
                                        tag, PORT_HANDSHAKE) + payload
                self._pending_frames.append(Op("relay", datagram, tag, triple))
        return self._pending_frames.pop(0)

    def stream(self, count: int) -> list[Op]:
        ops = []
        kinds = [k for k, _ in MIX]
        weights = [w for _, w in MIX]
        for _ in range(count):
            kind = self.rng.choices(kinds, weights)[0]
            if kind == "heartbeat":
                ops.append(self._heartbeat())
            elif kind == "register":
                ops.append(self._register())
            else:
                ops.append(self._frame())
        return ops

    def resolves(self) -> list[tuple[Op, str]]:
        picks = self.rng.sample(range(PRELOAD), RESOLVE_SAMPLES)
        return [(self.control("resolve", {"op": "resolve", "hostname": self.hostnames[i].upper()}),
                 self.texts[i]) for i in picks]


# --- daemon ---


def spawn_daemon(work: Path, spans: Path | None = None):
    """Start `trustnet serve-registry` on an ephemeral port; (process, port)."""
    work.mkdir(parents=True, exist_ok=True)
    proc = subprocess.Popen(
        cli_argv(["serve-registry", "--bind", "127.0.0.1:0"], spans=spans),
        cwd=work, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    deadline = _now() + 60.0
    seen = b""
    while _now() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.5)
        if not ready:
            continue
        line = proc.stdout.readline()
        if not line:
            break
        seen += line
        if line.startswith(b"registry listening on "):
            port = int(line.rsplit(b":", 1)[1])
            return proc, port
    stop_process(proc)
    raise BenchError(f"serve-registry did not start: {seen[-400:]!r}")


def _udp_socket(port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 << 20)
    sock.bind(("127.0.0.1", 0))
    sock.connect(("127.0.0.1", port))
    sock.setblocking(False)
    return sock


# --- the generator ---


class Generator:
    def __init__(self, sock: socket.socket, port: int, outcome: Outcome) -> None:
        self.sock = sock
        self.port = port
        self.out = outcome
        self.outstanding: dict[int, Op] = {}
        self.late: dict[int, Op] = {}  # given up, in case an answer still comes
        self.retry_queue: deque[tuple[float, Op]] = deque()  # (sent, op), in send order
        self.relay_ops: dict[bytes, Op] = {}  # relayed frames come back byte-identical
        self.phase = ""
        # stats reader state: one TCP connection at a time
        self.tcp: socket.socket | None = None
        self.tcp_started = 0.0
        self.tcp_sent = False

    def _send(self, op: Op, now: float) -> None:
        op.sent = now
        op.attempts += 1
        self.sock.send(op.datagram)
        self.outstanding[op.tag] = op
        self.retry_queue.append((now, op))
        self.late.pop(op.tag, None)
        if op.kind == "relay":
            self.relay_ops[op.datagram] = op

    def _receive(self) -> None:
        """Drain every waiting datagram and match it to its request by tag."""
        while True:
            try:
                data = self.sock.recv(65535)
            except BlockingIOError:
                return
            now = _now()
            src_port, dst_port = _PORTS.unpack_from(data, 16)
            from_registry = data[4:10] == REGISTRY_WIRE
            if not from_registry:
                # every relayed copy counts, a duplicate too: the daemon saw it
                frame = self.relay_ops.get(data)
                if frame is None:
                    self.out.not_identical += 1
                    continue
                self.out.relayed.setdefault(frame.triple, []).append(data[20])
            tag = dst_port if from_registry else src_port
            op = self.outstanding.pop(tag, None)
            on_time = op is not None
            if op is None:
                op = self.late.pop(tag, None)
                if op is None:
                    continue
            op.done = True
            if from_registry:
                self._settle(op, data[20:])
            if on_time:
                self.out.completions.setdefault(self.phase, []).append(now)
                if op.attempts == 1:
                    start = op.due or op.sent
                    self.out.rtts.setdefault(self.phase, {}).setdefault(op.kind, []).append(
                        now - start)

    def _settle(self, op: Op, payload: bytes) -> None:
        if not payload.startswith(b'{"ok":true'):
            self.out.not_ok.append(payload[:200].decode("utf-8", "replace"))
        elif op.kind == "register":
            self.out.register_replies.append((op, payload))
        elif op.kind == "resolve":
            self.out.resolve_replies.append((op, payload))

    def _retry(self, now: float) -> None:
        """Send again, in the order first sent, each request unanswered for RETRY_S."""
        queue = self.retry_queue
        drained = False
        while queue:
            sent, op = queue[0]
            if op.done or sent != op.sent:  # answered, or already sent again
                queue.popleft()
                continue
            if now - sent <= RETRY_S:
                return
            if not drained:  # an answer may be waiting in the socket
                self._receive()
                drained = True
                continue
            queue.popleft()
            if op.attempts == 1:
                self.out.unanswered[self.phase] = self.out.unanswered.get(self.phase, 0) + 1
            if op.attempts < ATTEMPTS:
                self.out.retransmits[self.phase] = self.out.retransmits.get(self.phase, 0) + 1
                self._send(op, now)
            else:
                self._give_up(op)

    def _give_up(self, op: Op) -> None:
        if self.outstanding.get(op.tag) is op:
            del self.outstanding[op.tag]
        self.late[op.tag] = op
        self.out.given_up[self.phase] = self.out.given_up.get(self.phase, 0) + 1

    # -- /api/stats reader --

    def _stats_start(self, now: float) -> None:
        self.tcp = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.tcp.setblocking(False)
        self.tcp.connect_ex(("127.0.0.1", self.port))
        self.tcp_started = now
        self.tcp_sent = False

    def _stats_step(self, writable: bool, readable: bool) -> None:
        if not self.tcp_sent and writable:
            self.tcp.send(b"GET /api/stats\n")
            self.tcp_sent = True
        if readable and not self.tcp.recv(1 << 20):  # the body is read and dropped
            took = _now() - self.tcp_started
            self.tcp.close()
            self.tcp = None
            self.out.stats_ms.setdefault(self.phase, []).append(took * 1000.0)

    def _wait(self, timeout: float) -> bool:
        """select(2) on the UDP socket and the stats connection."""
        rlist = [self.sock]
        wlist = []
        if self.tcp is not None:
            rlist.append(self.tcp)
            if not self.tcp_sent:
                wlist.append(self.tcp)
        readable, writable, _ = select.select(rlist, wlist, [], max(0.0, timeout))
        if self.tcp is not None and (self.tcp in readable or self.tcp in writable):
            self._stats_step(self.tcp in writable, self.tcp in readable)
        return self.sock in readable

    def _drain(self, until: float) -> None:
        """Wait for outstanding replies (and any stats read) up to `until`,
        sending again what goes unanswered."""
        while (self.outstanding or self.tcp is not None) and _now() < until:
            if self._wait(min(0.01, until - _now())):
                self._receive()
            self._retry(_now())
        for op in list(self.outstanding.values()):
            self._give_up(op)

    # -- phases --

    def open_loop(self, phase: str, ops: list[Op], rate: float) -> None:
        """Send each op at its due time, with one /api/stats read per period."""
        self.phase = phase
        cpu0, wall0 = time.process_time(), _now()
        start = wall0 + 0.01
        for i, op in enumerate(ops):
            op.due = start + i / rate
        lateness = self.out.lateness.setdefault(phase, [])
        next_stats = start + STATS_PERIOD_S / 2
        i, n = 0, len(ops)
        while i < n:
            now = _now()
            while i < n and ops[i].due <= now:
                op = ops[i]
                self._send(op, now)
                lateness.append(now - op.due)
                i += 1
                now = _now()
            if now >= next_stats and self.tcp is None:
                self._stats_start(now)
                next_stats += STATS_PERIOD_S
            self._retry(now)
            if i < n and self._wait(ops[i].due - _now()):
                self._receive()
        end = ops[-1].due
        self._drain(end + RETRY_S * (ATTEMPTS + 1))
        cpu = time.process_time() - cpu0
        self.out.sent[phase] = n
        self.out.busy[phase] = cpu / (_now() - wall0)
        self.out.cpu_per_op[phase] = cpu / n

    def closed_loop(self, phase: str, ops: list[Op]) -> None:
        """Send every op, keeping OUTSTANDING in flight (the next goes on a reply).

        Also used, untimed, for the preload and the resolve checks.
        """
        self.phase = phase
        cpu0, wall0 = time.process_time(), _now()
        i, n = 0, len(ops)
        while i < n or self.outstanding:
            now = _now()
            while len(self.outstanding) < OUTSTANDING and i < n:
                self._send(ops[i], now)
                i += 1
            self._retry(now)
            if self._wait(0.05):
                self._receive()
        self.out.sent[phase] = n
        self.out.busy[phase] = (time.process_time() - cpu0) / (_now() - wall0)

def fetch_stats(port: int) -> tuple[float, bytes]:
    """One blocking /api/stats round trip: (seconds, body)."""
    start = _now()
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        conn.sendall(b"GET /api/stats\n")
        chunks = []
        while True:
            chunk = conn.recv(1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    return _now() - start, b"".join(chunks)


def idle_readout(port: int) -> tuple[list[float], list[float]]:
    """/api/stats reads on the idle, freshly preloaded daemon.

    Each read sits between two calibrations (calibrate.py). Returns the raw
    seconds and the times relative to the calibrations around them.
    """
    speed = HostSpeed()
    raw, relative = [], []
    for _ in range(IDLE_STATS_READS):
        took, _ = fetch_stats(port)
        raw.append(took)
        relative.append(took / speed.after_call())
    return raw, relative


def start_loaded(work: Path, seed: int, spans: Path | None = None):
    """Spawn the daemon and preload it; (process, port, socket, traffic, generator, seconds)."""
    began = _now()
    proc, port = spawn_daemon(work, spans)
    sock = None
    try:
        traffic = Traffic(seed)
        sock = _udp_socket(port)
        outcome = Outcome()
        gen = Generator(sock, port, outcome)
        ops = traffic.preload_ops()
        gen.closed_loop("preload", ops)
        if gen.late or outcome.not_ok or len(outcome.register_replies) != PRELOAD:
            raise BenchError(f"preload failed: {len(outcome.register_replies)} of {PRELOAD} "
                             f"registered, {outcome.not_ok[:3]}")
        took = _now() - began
        traffic.learn(ops, outcome.register_replies)
        outcome.register_replies = []
    except BaseException:
        if sock is not None:
            sock.close()
        stop_process(proc)
        raise
    return proc, port, sock, traffic, gen, took


def drive(gen: Generator, traffic: Traffic, seconds: float, closed_ops: int) -> None:
    """Build every phase's datagrams, then run the phases.

    The open-loop phases share `seconds` (30% at 1k, the rest at 5k ops/s);
    the closed loop then sends a fixed count, so the work done, and with
    it the daemon's memory, does not depend on how fast it ran.
    """
    (name_1k, rate_1k), (name_5k, rate_5k) = OPEN_RATES
    ops_1k = traffic.stream(int(rate_1k * seconds * 0.3))
    ops_5k = traffic.stream(int(rate_5k * seconds * 0.7))
    closed = traffic.stream(closed_ops)
    for op in ops_1k + ops_5k + closed:
        gen.out.kinds[op.kind] = gen.out.kinds.get(op.kind, 0) + 1
    gen.open_loop(name_1k, ops_1k, rate_1k)
    gen.open_loop(name_5k, ops_5k, rate_5k)
    gen.closed_loop("closed", closed)


def summarize(out: Outcome) -> dict:
    figures: dict = {}
    for name, _ in OPEN_RATES:
        # over answered requests; the unanswered are reported on their own
        samples = [x for values in out.rtts.get(name, {}).values() for x in values]
        figures[f"rtt_p50_us.{name}"] = percentile(samples, 50) * 1e6
        figures[f"rtt_p99_us.{name}"] = percentile(samples, 99) * 1e6
        figures[f"samples.{name}"] = len(samples)
        figures[f"loadgen.late_p50_us.{name}"] = percentile(out.lateness[name], 50) * 1e6
        figures[f"loadgen.late_p99_us.{name}"] = percentile(out.lateness[name], 99) * 1e6
        figures[f"stats_reads.{name}"] = len(out.stats_ms.get(name, []))
    for phase in ("r1k", "r5k", "closed"):
        figures[f"loadgen.busy_share.{phase}"] = out.busy[phase]
        figures[f"unanswered.{phase}"] = out.unanswered.get(phase, 0)
        figures[f"retransmits.{phase}"] = out.retransmits.get(phase, 0)
        figures[f"sent.{phase}"] = out.sent[phase]
    figures["stats_p50_ms"] = median(out.stats_ms["r5k"])
    figures["stats_p50_ms.r1k"] = median(out.stats_ms["r1k"])
    for kind in ("heartbeat", "register", "relay"):
        figures[f"server.rtt_p50_us.{kind}"] = percentile(out.rtts["r5k"][kind], 50) * 1e6
    times = sorted(out.completions["closed"])
    figures["capacity_ops_per_s"] = (len(times) - 1) / (times[-1] - times[0])
    figures["rtt_p50_us.closed"] = percentile(
        [x for v in out.rtts.get("closed", {}).values() for x in v], 50) * 1e6
    total = sum(out.sent[p] for p in ("r1k", "r5k", "closed"))
    for kind in ("heartbeat", "relay", "register"):
        figures[f"mix.udp.{kind}"] = out.kinds.get(kind, 0) / total
    figures["unanswered"] = sum(out.unanswered.get(p, 0) for p in ("r1k", "r5k", "closed"))
    figures["retransmits"] = sum(out.retransmits.values())
    figures["requests"] = total
    return figures


def final_checks(gen: Generator, traffic: Traffic, stats: dict, tally) -> None:
    """Replies, relayed bytes, sampled resolves, and the final stats counts."""
    out = gen.out
    tally.check("every reply has ok:true", not out.not_ok, f"{len(out.not_ok)}: {out.not_ok[:3]}")
    tally.check("every relayed frame comes back byte-identical", out.not_identical == 0,
                f"{out.not_identical} differ")
    probes = traffic.resolves()
    gen.closed_loop("resolve", [op for op, _ in probes])
    got = {op.tag: json.loads(payload).get("address") for op, payload in out.resolve_replies}
    wrong = [(op.tag, want, got.get(op.tag)) for op, want in probes if got.get(op.tag) != want]
    tally.check("sampled preloaded hostnames resolve to their addresses", not wrong, f"{wrong[:3]}")
    acked = len(out.register_replies)
    nodes = len(stats["nodes"])
    tally.check("stats node count = preload + acknowledged registers", nodes == PRELOAD + acked,
                f"{nodes} != {PRELOAD} + {acked}")
    full = sum(1 for frames in out.relayed.values() if relayed_in_order(frames))
    edges = len(stats["trust_edges"])
    tally.check("stats edge count = fully relayed triples", edges == full, f"{edges} != {full}")


def relayed_in_order(frames: list[int]) -> bool:
    """Whether a CONFIRM came back after an ACCEPT that came back after a REQUEST.

    `frames` are the types of one triple's relayed copies in arrival order,
    the order the daemon forwarded them. A request sent again after the ACCEPT
    went through starts the handshake over, as it does in the registry.
    """
    stage = 0  # 1 after REQUEST, 2 after ACCEPT
    for frame_type in frames:
        if frame_type == 1:
            stage = 1
        elif frame_type == 2 and stage == 1:
            stage = 2
        elif frame_type == 3 and stage == 2:
            return True
    return False


def run(work: Path, seed: int, seconds: float, tally, spans: Path | None = None,
        setups_wanted: int = SETUP_REPEATS, closed_ops: int = CLOSED_OPS) -> dict:
    """Set up `setups_wanted` times (keeping the last daemon), then run the phases.

    With `spans`, the kept daemon runs traced and writes its spans there.
    """
    setups = []
    for k in range(setups_wanted):
        last = k == setups_wanted - 1
        proc, port, sock, traffic, gen, took = start_loaded(
            work / f"daemon-{k}", seed, spans if last else None)
        setups.append(took)
        if not last:
            sock.close()
            stop_process(proc)
    try:
        idle_raw, idle_rel = idle_readout(port)
        drive(gen, traffic, seconds, closed_ops)
        _, body = fetch_stats(port)
        final_checks(gen, traffic, json.loads(body), tally)
    finally:
        sock.close()
        usage = stop_process(proc)
    tally.check("serve-registry exits 0 on SIGINT", proc.returncode == 0, f"exit {proc.returncode}")
    figures = summarize(gen.out)
    # Host speed in the same window: the generator's own CPU time per request,
    # fixed work on its side, slows down with the host (see README.md).
    per_op = gen.out.cpu_per_op["r5k"]
    figures["loadgen.cpu_per_op_us.r5k"] = per_op * 1e6
    figures["rtt_p50_rel.r5k"] = figures["rtt_p50_us.r5k"] / 1e6 / per_op
    figures["stats_idle_ms"] = median(idle_raw) * 1e3
    figures["stats_idle_rel"] = median(idle_rel)
    figures["setup_s"] = median(setups)
    figures["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    figures["given_up"] = sum(gen.out.given_up.values())
    figures["failed_requests"] = figures["given_up"] + len(gen.out.not_ok)
    return figures
