"""Deterministic discrete-event simulator for agent populations.

A scenario runs a virtual-time event loop: agents arrive on a configurable
schedule, register with an in-process registry (tags drawn from the shared
tag model), optionally establish self-trust, then initiate real three-frame
handshakes with peers selected by the configured mechanism mix. Handshake
and data frames ride a lossy transport with latency draws and a fixed
timeout/retry discipline; registrations, heartbeats, and key lookups are
reliable control-plane calls. The registry's snapshot at the end of the run
is the simulator's output, alongside a ground-truth event log that records
what actually happened (arrivals, registrations, handshake starts and
completions, heartbeats, drops). The log keeps each event as the line it
writes: rendered by compact_json when it happens, and joined, every 1,024
lines, into one ASCII block (EventLog). Reading the log decodes the lines
back to dicts in order.

Determinism: one root seed is split hierarchically (scenario stream for the
arrival schedule, one independent stream per agent for its decisions and key
material, one stream for transport loss/latency), so a given SimConfig always
produces a byte-identical snapshot and event log.

The harness selects handshake targets once, at arrival time, with the newest
agent as initiator. Every unordered pair is therefore attempted at most once,
so a stored trust record always corresponds to exactly one completed
handshake, and at loss rate zero the snapshot's edge set equals the
ground-truth edge set exactly.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, Union

from .channel import (
    AcceptAllPolicy,
    HandshakeInitiator,
    HandshakeResponder,
    AgentIdentity,
    SecureSession,
    sha256,
)
from .errors import BeaconUnavailableError, ConfigInvalidError
from .growth import (
    AT_LEAST_1,
    NON_NEGATIVE,
    POSITIVE,
    SEED,
    UNIT,
    UNTAGGED_PROBABILITY,
    AttachmentGraph,
    ConfigDocument,
    MechanismMix,
    default_tag_model,
    pick_target,
    ruled,
)
from .overlay import (
    FRAME_ACCEPT,
    FRAME_CONFIRM,
    FRAME_DATA,
    FRAME_DECLINE,
    FRAME_ERROR,
    FRAME_REQUEST,
    PORT_SECURE_CHANNEL,
    PORT_TRUST_HANDSHAKE,
    PacketHeader,
    VirtualAddress,
    decode_packet,
    encode_packet,
)
from .registry import HEARTBEAT_INTERVAL, RegistryService
from .snapshot import _CHUNK, StatsSnapshot, compact_json

HANDSHAKE_TIMEOUT = 3.0
HANDSHAKE_RETRIES = 2
PING_DELAY = 1.0

# Distribution kind -> the fields its JSON form names, in order after "kind".
DISTRIBUTION_KEYS = {"fixed": ("value",), "uniform": ("low", "high"), "exponential": ("mean",)}
NAT_KINDS = ("cone", "symmetric")


# --- sampling distributions ---


@dataclass(frozen=True)
class Distribution(ConfigDocument):
    """Scalar sampler for inter-arrival times, latencies, and link counts.

    Times are virtual seconds and latencies virtual milliseconds; the unit is
    set by where the distribution is used, not by the distribution itself.
    Its JSON form names exactly the keys of its kind.
    """

    what = "distribution"

    kind: str
    value: float = ruled(NON_NEGATIVE, 0.0)
    low: float = ruled(NON_NEGATIVE, 0.0)
    high: float = 0.0
    mean: float = ruled(NON_NEGATIVE, 0.0)

    @classmethod
    def fixed(cls, value: float) -> "Distribution":
        return cls(kind="fixed", value=float(value))

    @classmethod
    def uniform(cls, low: float, high: float) -> "Distribution":
        return cls(kind="uniform", low=float(low), high=float(high))

    @classmethod
    def exponential(cls, mean: float) -> "Distribution":
        return cls(kind="exponential", mean=float(mean))

    def check(self) -> None:
        if self.kind not in DISTRIBUTION_KEYS:
            raise ConfigInvalidError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "uniform" and self.low > self.high:
            raise ConfigInvalidError("uniform bounds need low <= high")

    def sample(self, rng: random.Random) -> float:
        if self.kind == "fixed":
            return self.value
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high)
        if self.mean == 0:
            return 0.0
        return rng.expovariate(1.0 / self.mean)

    def sample_count(self, rng: random.Random) -> int:
        """Draw a non-negative integer (nearest-integer rounding)."""
        return max(0, int(self.sample(rng) + 0.5))

    def to_dict(self) -> dict:
        return {"kind": self.kind, **{k: getattr(self, k) for k in DISTRIBUTION_KEYS[self.kind]}}

    @classmethod
    def from_dict(cls, doc) -> "Distribution":
        dist = super().from_dict(doc)
        keys = dist.to_dict().keys()
        if doc.keys() != keys:
            raise ConfigInvalidError(f"{dist.kind} keys must be {sorted(keys)}")
        return dist


# --- virtual-time event loop ---


class EventLoop:
    """Priority queue over virtual time; ties break by scheduling order."""

    def __init__(self) -> None:
        self.now = 0.0
        self._seq = 0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        heapq.heappush(self._queue, (self.now + delay, self._seq, action))
        self._seq += 1

    def run_until(self, end: float) -> None:
        while self._queue and self._queue[0][0] <= end:
            when, _, action = heapq.heappop(self._queue)
            self.now = when
            action()
        self.now = end


# --- lossy transport and NAT traversal ---


def transport_deliver(
    datagram: bytes,
    loss_rate: float,
    latency: Distribution,
    rng: random.Random,
) -> Optional[tuple[float, bytes]]:
    """One lossy hop: None when dropped, else (delay_seconds, datagram).

    The loss draw happens first, then the latency draw (virtual
    milliseconds, returned as seconds). Because each hop draws its own
    latency, deliveries may overtake each other: ordering is not guaranteed.
    """
    UNIT.apply("loss_rate", loss_rate)
    if rng.random() < loss_rate:
        return None
    return latency.sample(rng) / 1000.0, datagram


class Beacon:
    """Rendezvous relay for symmetric-NAT paths; keeps a raw byte trace.

    The beacon forwards datagrams untouched and records exactly the bytes it
    saw, which is what makes the trace useful for opacity checks: sealed
    payloads pass through, plaintext never does.
    """

    def __init__(self) -> None:
        self.trace: list[bytes] = []

    def relay(self, datagram: bytes) -> bytes:
        self.trace.append(bytes(datagram))
        return datagram


def relay_via_beacon(
    datagram: bytes,
    src_nat: str,
    dst_nat: str,
    beacon: Optional[Beacon] = None,
) -> tuple[str, bytes]:
    """Pick the data path for a NAT pair: direct unless either side is symmetric.

    Returns ("direct", datagram) or ("relayed", datagram); the payload bytes
    are identical either way. A relayed path without a registered beacon
    raises BeaconUnavailableError.
    """
    for nat in (src_nat, dst_nat):
        if nat not in NAT_KINDS:
            raise ConfigInvalidError(f"unknown NAT kind {nat!r}")
    if src_nat != "symmetric" and dst_nat != "symmetric":
        return "direct", datagram
    if beacon is None:
        raise BeaconUnavailableError("relayed path requires a registered beacon")
    return "relayed", beacon.relay(datagram)


# --- behavior policy and scenario configuration ---


@dataclass(frozen=True)
class BehaviorPolicy(ConfigDocument):
    """Behavioral knobs shared by every simulated agent.

    `window` bounds the propinquity pool to the most recent arrivals;
    `untagged_probability` is the chance that an agent registers without
    tags (otherwise it draws 1-3 from the default vocabulary); responders
    accept every handshake request.
    """

    what = "behavior"

    self_trust_probability: float = ruled(UNIT, 0.0)
    peer_selection: MechanismMix = field(default_factory=MechanismMix)
    target_links: Distribution = field(
        default_factory=lambda: Distribution.fixed(2.0)
    )
    untagged_probability: float = ruled(UNIT, UNTAGGED_PROBABILITY)
    heartbeat_interval: float = ruled(POSITIVE, HEARTBEAT_INTERVAL)
    window: int = ruled(AT_LEAST_1, 10)


@dataclass(frozen=True)
class SimConfig(ConfigDocument):
    """Full parameterization of one scenario run."""

    what = "scenario"

    agent_count: int = ruled(AT_LEAST_1)
    arrival_schedule: Distribution = field(
        default_factory=lambda: Distribution.fixed(10.0)
    )
    loss_rate: float = ruled(UNIT, 0.0)
    latency: Distribution = field(
        default_factory=lambda: Distribution.uniform(20.0, 80.0)
    )
    behavior: BehaviorPolicy = field(default_factory=BehaviorPolicy)
    seed: int = ruled(SEED, 0)
    duration: float = ruled(POSITIVE, 3600.0)
    symmetric_nat_fraction: float = ruled(UNIT, 0.0)
    ping_marker: str = ""


def _split_rng(seed: int, label: str) -> random.Random:
    """Independent deterministic substream derived from the root seed.

    The stream is seeded with SHA-256 of `"{seed}|{label}"`, read as a
    big-endian integer. The digest goes through `channel.sha256`, which
    gives hashlib's bytes without loading hashlib's second OpenSSL.
    """
    digest = sha256(f"{seed}|{label}".encode())
    return random.Random(int.from_bytes(digest, "big"))


# --- scenario result ---


class EventLog:
    """The ground-truth event log, kept as the bytes it writes.

    append renders each event at once by compact_json, whose lines are ASCII
    and hold no newline, onto the tail; every _CHUNK lines the tail becomes
    one block. Iterating decodes the lines back to dicts, in order.
    """

    def __init__(self) -> None:
        self.blocks: list[bytes] = []
        self.tail = bytearray()  # the lines after the last block, each ended by a newline
        self.pending = 0  # the number of lines in the tail

    def append(self, event: dict) -> None:
        self.tail += compact_json(event).encode("ascii")
        self.tail += b"\n"
        self.pending += 1
        if self.pending == _CHUNK:
            self.blocks.append(bytes(self.tail))
            self.tail.clear()
            self.pending = 0

    def __iter__(self) -> Iterator[dict]:
        for block in (*self.blocks, self.tail):
            yield from map(json.loads, block.splitlines())

    def write(self, path: Union[str, Path]) -> None:
        """Write each line ended by a newline; an empty log writes one newline."""
        with Path(path).open("wb") as handle:
            handle.writelines(self.blocks)
            handle.write(self.tail if self.blocks or self.pending else b"\n")


@dataclass
class ScenarioResult:
    """Snapshot plus ground truth for one completed scenario.

    events is the scenario's EventLog: the log as the rendered blocks that
    write_events writes, decoded to dicts when iterated.
    """

    config: SimConfig
    snapshot: StatsSnapshot
    events: EventLog
    registry: RegistryService
    beacon: Beacon
    pings: list[tuple[str, str, bytes]]

    @property
    def ground_truth_edges(self) -> set[tuple[str, str]]:
        """Unordered trusted pairs from completed handshakes."""
        edges = set()
        for event in self.events:
            if event["event"] == "handshake-complete":
                pair = (event["initiator"], event["responder"])
                edges.add((min(pair), max(pair)))
        return edges

    def write_events(self, path: Union[str, Path]) -> None:
        """Write each event as its compact_json line, ended by a newline."""
        self.events.write(path)


# --- agents ---


@dataclass
class _Attempt:
    initiator: HandshakeInitiator
    target: VirtualAddress
    request_datagram: bytes
    retries_left: int = HANDSHAKE_RETRIES


class _SimAgent:
    """One simulated agent: identity, NAT class, and protocol state."""

    def __init__(self, scenario: "_Scenario", index: int) -> None:
        self.scenario = scenario
        self.index = index
        self.rng = _split_rng(scenario.config.seed, f"agent-{index}")
        self.identity: Optional[AgentIdentity] = None
        self.text = ""  # address.to_text(), formatted once, at arrival
        self.nat = "cone"
        self.responder: Optional[HandshakeResponder] = None
        self.attempts: dict[VirtualAddress, _Attempt] = {}
        self.sessions: dict[VirtualAddress, SecureSession] = {}

    @property
    def address(self) -> VirtualAddress:
        assert self.identity is not None
        return self.identity.address

    # -- lifecycle --

    def arrive(self) -> None:
        sc = self.scenario
        config = sc.config
        behavior = config.behavior
        self.identity = AgentIdentity.generate(VirtualAddress(0, 0), self.rng)
        self.nat = (
            "symmetric"
            if self.rng.random() < config.symmetric_nat_fraction
            else "cone"
        )
        tags = sc.tag_model.draw(self.rng)
        self.identity.address = sc.registry.register(
            self.identity.public_key, tags=tags
        )
        self.text = self.address.to_text()
        self.responder = HandshakeResponder(
            self.identity, AcceptAllPolicy(), sc.registry.public_key_of, self.rng
        )
        sc.log("arrival", index=self.index, address=self.text, nat=self.nat)
        sc.log("register", address=self.text, tags=list(tags))
        sc.graph.add_node(self.address)
        sc.by_address[self.address] = self
        sc.loop.schedule(behavior.heartbeat_interval, self.heartbeat)
        if self.rng.random() < behavior.self_trust_probability:
            self.start_handshake(self.address)
        count = behavior.target_links.sample_count(self.rng)
        for target in sc.select_targets(self, count):
            self.start_handshake(target)
        sc.graph.attachable.append(self.address)

    def heartbeat(self) -> None:
        sc = self.scenario
        sc.registry.heartbeat(self.address)
        sc.log("heartbeat", address=self.text)
        sc.loop.schedule(sc.config.behavior.heartbeat_interval, self.heartbeat)

    # -- handshake initiator role --

    def start_handshake(self, target: VirtualAddress) -> None:
        sc = self.scenario
        initiator = HandshakeInitiator(
            self.identity, target, sc.registry.public_key_of, self.rng
        )
        payload = initiator.request_payload()
        attempt = _Attempt(
            initiator=initiator,
            target=target,
            request_datagram=_handshake_datagram(self.address, target, payload),
        )
        self.attempts[target] = attempt
        sc.log("handshake-start", initiator=self.text, responder=sc.by_address[target].text)
        self._send_request(attempt)

    def _send_request(self, attempt: _Attempt) -> None:
        sc = self.scenario
        sc.send_via_relay(attempt.request_datagram)
        sc.loop.schedule(HANDSHAKE_TIMEOUT, lambda: self._on_timeout(attempt))

    def _on_timeout(self, attempt: _Attempt) -> None:
        if self.attempts.get(attempt.target) is not attempt:
            return  # answered, or given up, already
        if attempt.retries_left > 0:
            attempt.retries_left -= 1
            self._send_request(attempt)
        else:
            del self.attempts[attempt.target]

    # -- frame dispatch --

    def on_handshake_datagram(self, datagram: bytes) -> None:
        header, payload = decode_packet(datagram)
        if not payload:
            return
        frame_type = payload[0]
        body = payload[1:]
        if frame_type == FRAME_REQUEST:
            reply = self.responder.on_request(header.src, body)
            self.scenario.send_via_relay(
                _handshake_datagram(self.address, header.src, reply)
            )
        elif frame_type == FRAME_ACCEPT:
            self._on_accept(header.src, body)
        elif frame_type == FRAME_CONFIRM:
            record, session = self.responder.on_confirm(header.src, body)
            self.sessions.setdefault(header.src, session)
        elif frame_type in (FRAME_DECLINE, FRAME_ERROR):
            self.attempts.pop(header.src, None)

    def _on_accept(self, responder: VirtualAddress, body: bytes) -> None:
        attempt = self.attempts.pop(responder, None)  # a late ACCEPT finds none
        if attempt is None:
            return
        confirm = attempt.initiator.on_accept(body)
        self.sessions[responder] = attempt.initiator.session
        sc = self.scenario
        sc.send_via_relay(_handshake_datagram(self.address, responder, confirm))
        sc.log(
            "handshake-complete", initiator=self.text, responder=sc.by_address[responder].text
        )
        sc.note_edge(self.address, responder)
        # Delay the first sealed message so the CONFIRM (two relay legs)
        # settles the responder's session before the ping (one leg) lands.
        sc.loop.schedule(PING_DELAY, lambda: self.send_ping(responder))

    # -- sealed data plane --

    def send_ping(self, peer: VirtualAddress) -> None:
        sc = self.scenario
        session = self.sessions[peer]
        plaintext = sc.config.ping_marker.encode() or b"ping"
        header = PacketHeader(
            src=self.address,
            dst=peer,
            src_port=PORT_SECURE_CHANNEL,
            dst_port=PORT_SECURE_CHANNEL,
        )
        sealed = session.seal(header, plaintext)
        datagram = encode_packet(header, bytes([FRAME_DATA]) + sealed)
        peer_agent = sc.by_address[peer]
        _, routed = relay_via_beacon(datagram, self.nat, peer_agent.nat, sc.beacon)
        sc.send(routed, "data", peer_agent.on_data_datagram)

    def on_data_datagram(self, datagram: bytes) -> None:
        header, payload = decode_packet(datagram)
        session = self.sessions.get(header.src)
        if session is None or not payload or payload[0] != FRAME_DATA:
            return
        plaintext = session.open(header, payload[1:])
        sc = self.scenario
        sc.pings.append((sc.by_address[header.src].text, self.text, plaintext))


def _handshake_datagram(
    src: VirtualAddress, dst: VirtualAddress, payload: bytes
) -> bytes:
    header = PacketHeader(
        src=src,
        dst=dst,
        src_port=PORT_TRUST_HANDSHAKE,
        dst_port=PORT_TRUST_HANDSHAKE,
    )
    return encode_packet(header, payload)


# --- scenario orchestration ---


class _Scenario:
    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.loop = EventLoop()
        self.registry = RegistryService(clock=lambda: self.loop.now)
        self.beacon = Beacon()
        self.events = EventLog()
        self.pings: list[tuple[str, str, bytes]] = []
        self.by_address: dict[VirtualAddress, _SimAgent] = {}
        self.graph = AttachmentGraph()  # completed non-self handshakes
        self.tag_model = default_tag_model(config.behavior.untagged_probability)
        self.scenario_rng = _split_rng(config.seed, "scenario")
        self.transport_rng = _split_rng(config.seed, "transport")

    # -- ground truth --

    def log(self, kind: str, **fields) -> None:
        self.events.append({"t": self.loop.now, "event": kind, **fields})

    def note_edge(self, a: VirtualAddress, b: VirtualAddress) -> None:
        # Each pair completes at most once, so connect never double-counts.
        if a != b:
            self.graph.connect(a, b)

    # -- arrivals --

    def schedule_arrivals(self) -> None:
        at = 0.0
        for index in range(self.config.agent_count):
            agent = _SimAgent(self, index)
            self.loop.schedule(at, agent.arrive)
            at += self.config.arrival_schedule.sample(self.scenario_rng)

    # -- peer selection (harness-side, at arrival time) --

    def select_targets(self, agent: _SimAgent, count: int) -> list[VirtualAddress]:
        """Choose distinct older agents for the newcomer to initiate with.

        Each unordered pair is attempted at most once across the scenario
        because only the newest agent ever initiates and its choices are
        deduplicated here. Targets come from the growth model's sampler over
        earlier arrivals. Triadic never yields one: no handshake of the
        newcomer has completed yet, so it has no two-hop neighbors.
        """
        behavior = self.config.behavior
        earlier = self.graph.attachable
        recent = earlier[-behavior.window :]
        chosen: list[VirtualAddress] = []
        taken: set[VirtualAddress] = set()
        for _ in range(count):
            mechanism = behavior.peer_selection.draw(agent.rng)
            target = pick_target(
                mechanism, agent.rng, agent.address, self.graph, recent, earlier, taken
            )
            if target is not None:
                taken.add(target)
                chosen.append(target)
        return chosen

    # -- transport legs --

    def send(
        self, datagram: bytes, stage: str, deliver: Callable[[bytes], None]
    ) -> None:
        """One lossy hop: log a drop with its stage, or deliver after the latency."""
        delivery = transport_deliver(
            datagram, self.config.loss_rate, self.config.latency, self.transport_rng
        )
        if delivery is None:
            header, payload = decode_packet(datagram)
            self.log(
                "drop",
                stage=stage,
                src=header.src.to_text(),
                dst=header.dst.to_text(),
                frame=payload[0] if payload else 0,
            )
            return
        delay, data = delivery
        self.loop.schedule(delay, lambda: deliver(data))

    def send_via_relay(self, datagram: bytes) -> None:
        """Agent -> registry leg; each relay output rides a second leg."""
        self.send(datagram, "to-relay", self._relay_ingress)

    def _relay_ingress(self, datagram: bytes) -> None:
        # The relay names only registered addresses, and an agent joins
        # by_address in the event that registers it.
        for next_hop, out in self.registry.relay_handshake(datagram):
            receiver = self.by_address[next_hop]
            self.send(out, "from-relay", receiver.on_handshake_datagram)


def run_scenario(config: SimConfig) -> ScenarioResult:
    """Run one deterministic scenario and snapshot the registry at the end."""
    config.validate()
    scenario = _Scenario(config)
    scenario.schedule_arrivals()
    scenario.loop.run_until(config.duration)
    snapshot = scenario.registry.snapshot()
    return ScenarioResult(
        config=config,
        snapshot=snapshot,
        events=scenario.events,
        registry=scenario.registry,
        beacon=scenario.beacon,
        pings=scenario.pings,
    )
