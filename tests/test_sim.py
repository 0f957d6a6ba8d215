"""Discrete-event simulator: determinism, conservation, transport, NAT paths."""

import copy
import json
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import event_lines, json_values
from trustnet.analytics.report import consistency_audit
from trustnet.errors import BeaconUnavailableError, ConfigInvalidError
from trustnet.growth import (
    AT_LEAST_1, NON_NEGATIVE, POSITIVE, SEED, UNIT, GrowthConfig, MechanismMix,
)
from trustnet.sim import (
    HANDSHAKE_RETRIES,
    HANDSHAKE_TIMEOUT,
    Beacon,
    BehaviorPolicy,
    Distribution,
    EventLoop,
    SimConfig,
    _Scenario,
    relay_via_beacon,
    run_scenario,
    transport_deliver,
)


def scenario(**overrides) -> SimConfig:
    base = dict(
        agent_count=50,
        arrival_schedule=Distribution.fixed(10.0),
        loss_rate=0.0,
        latency=Distribution.uniform(20.0, 80.0),
        behavior=BehaviorPolicy(self_trust_probability=0.0),
        seed=11,
        duration=900.0,
    )
    base.update(overrides)
    return SimConfig(**base)


def edge_set(snapshot) -> set[tuple[str, str]]:
    return {(min(a, b), max(a, b)) for a, b in snapshot.trust_edges}


class TestDistribution:
    def test_fixed_is_constant(self):
        rng = random.Random(0)
        dist = Distribution.fixed(4.5)
        assert [dist.sample(rng) for _ in range(5)] == [4.5] * 5

    def test_uniform_bounds(self):
        rng = random.Random(1)
        dist = Distribution.uniform(10.0, 20.0)
        draws = [dist.sample(rng) for _ in range(2000)]
        assert all(10.0 <= d <= 20.0 for d in draws)
        assert 14.5 < sum(draws) / len(draws) < 15.5

    def test_exponential_mean(self):
        rng = random.Random(2)
        dist = Distribution.exponential(6.0)
        draws = [dist.sample(rng) for _ in range(20000)]
        assert abs(sum(draws) / len(draws) - 6.0) < 0.15

    def test_exponential_zero_mean_degenerates(self):
        rng = random.Random(3)
        assert Distribution.exponential(0.0).sample(rng) == 0.0

    def test_sample_count_rounds_to_nearest(self):
        rng = random.Random(4)
        assert Distribution.fixed(2.4).sample_count(rng) == 2
        assert Distribution.fixed(2.6).sample_count(rng) == 3
        assert Distribution.fixed(0.0).sample_count(rng) == 0

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "gaussian", "mean": 1.0},
            {"kind": "fixed", "value": -1.0},
            {"kind": "uniform", "low": 5.0, "high": 2.0},
            {"kind": "uniform", "low": -1.0, "high": 2.0},
            {"kind": "exponential", "mean": -0.5},
            {"kind": "fixed", "value": 1.0, "mean": 2.0},
            {"value": 1.0},
            "not an object",
            {"kind": 5},
            {"kind": "fixed", "value": "1"},
            {"kind": "fixed"},
        ],
    )
    def test_invalid_documents_rejected(self, doc):
        with pytest.raises(ConfigInvalidError):
            Distribution.from_dict(doc)

    @pytest.mark.parametrize(
        "dist",
        [
            Distribution.fixed(3.0),
            Distribution.uniform(1.0, 9.0),
            Distribution.exponential(42.0),
        ],
    )
    def test_dict_round_trip(self, dist):
        assert Distribution.from_dict(dist.to_dict()) == dist


class TestEventLoop:
    def test_runs_in_time_order_with_stable_ties(self):
        loop = EventLoop()
        seen = []
        loop.schedule(5.0, lambda: seen.append("late"))
        loop.schedule(1.0, lambda: seen.append("first"))
        loop.schedule(1.0, lambda: seen.append("second"))
        loop.run_until(10.0)
        assert seen == ["first", "second", "late"]
        assert loop.now == 10.0

    def test_events_beyond_horizon_stay_queued(self):
        loop = EventLoop()
        seen = []
        loop.schedule(2.0, lambda: seen.append("in"))
        loop.schedule(20.0, lambda: seen.append("out"))
        loop.run_until(10.0)
        assert seen == ["in"]

    def test_actions_can_schedule_followups(self):
        loop = EventLoop()
        ticks = []

        def tick():
            ticks.append(loop.now)
            loop.schedule(3.0, tick)

        loop.schedule(3.0, tick)
        loop.run_until(10.0)
        assert ticks == [3.0, 6.0, 9.0]


class TestTransportDeliver:
    def test_zero_loss_always_delivers(self):
        rng = random.Random(0)
        lat = Distribution.fixed(50.0)
        for _ in range(200):
            assert transport_deliver(b"d", 0.0, lat, rng) is not None

    def test_full_loss_always_drops(self):
        rng = random.Random(0)
        lat = Distribution.fixed(50.0)
        for _ in range(200):
            assert transport_deliver(b"d", 1.0, lat, rng) is None

    def test_latency_milliseconds_become_seconds(self):
        rng = random.Random(0)
        delay, datagram = transport_deliver(b"d", 0.0, Distribution.fixed(50.0), rng)
        assert delay == pytest.approx(0.05)
        assert datagram == b"d"

    def test_observed_loss_matches_rate(self):
        rng = random.Random(7)
        lat = Distribution.fixed(1.0)
        n = 100_000
        dropped = sum(
            1 for _ in range(n) if transport_deliver(b"d", 0.3, lat, rng) is None
        )
        assert abs(dropped / n - 0.3) < 0.01

    def test_invalid_loss_rate_rejected(self):
        with pytest.raises(ConfigInvalidError):
            transport_deliver(b"d", 1.5, Distribution.fixed(1.0), random.Random(0))


class TestBeaconRouting:
    def test_cone_to_cone_goes_direct(self):
        beacon = Beacon()
        decision, out = relay_via_beacon(b"payload", "cone", "cone", beacon)
        assert decision == "direct"
        assert out == b"payload"
        assert beacon.trace == []

    @pytest.mark.parametrize(
        "src,dst",
        [("symmetric", "cone"), ("cone", "symmetric"), ("symmetric", "symmetric")],
    )
    def test_symmetric_side_forces_relay(self, src, dst):
        beacon = Beacon()
        decision, out = relay_via_beacon(b"payload", src, dst, beacon)
        assert decision == "relayed"
        assert out == b"payload"
        assert beacon.trace == [b"payload"]

    def test_relay_without_beacon_fails(self):
        with pytest.raises(BeaconUnavailableError):
            relay_via_beacon(b"payload", "symmetric", "cone")

    def test_unknown_nat_kind_rejected(self):
        with pytest.raises(ConfigInvalidError):
            relay_via_beacon(b"payload", "carrier-grade", "cone", Beacon())


class TestBehaviorPolicy:
    def test_defaults_validate(self):
        BehaviorPolicy().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"self_trust_probability": -0.1},
            {"self_trust_probability": 1.1},
            {"heartbeat_interval": 0.0},
            {"window": 0},
            {"target_links": Distribution(kind="gaussian")},
            {"window": 2.5},
            {"untagged_probability": "x"},
            {"heartbeat_interval": float("inf")},
            {"target_links": 2.0},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ConfigInvalidError):
            BehaviorPolicy(**overrides).validate()

    @pytest.mark.parametrize(
        "doc",
        [
            {"target_links": {"kind": "gaussian"}},
            {"window": 2.5},
            {"window": 2.0},
            {"untagged_probability": "x"},
            {"peer_selection": {"triadic": None}},
        ],
    )
    def test_invalid_documents_rejected(self, doc):
        with pytest.raises(ConfigInvalidError):
            BehaviorPolicy.from_dict(doc)

    def test_dict_round_trip(self):
        policy = BehaviorPolicy(
            self_trust_probability=0.64,
            peer_selection=MechanismMix(0.5, 0.2, 0.2, 0.1),
            target_links=Distribution.exponential(2.0),
            heartbeat_interval=15.0,
            window=4,
        )
        restored = BehaviorPolicy.from_dict(policy.to_dict())
        assert restored.to_dict() == policy.to_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigInvalidError):
            BehaviorPolicy.from_dict({"charisma": 11})


class TestSimConfig:
    def test_valid_config_passes(self):
        scenario().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"agent_count": 0},
            {"agent_count": True},
            {"agent_count": 2.5},
            {"loss_rate": -0.1},
            {"loss_rate": 1.5},
            {"duration": 0.0},
            {"seed": -1},
            {"seed": 2**64},
            {"seed": False},
            {"symmetric_nat_fraction": 1.5},
            {"ping_marker": 42},
            {"loss_rate": "x"},
            {"duration": float("inf")},
            {"behavior": BehaviorPolicy(window=0)},
            {"latency": Distribution(kind="gaussian")},
            {"arrival_schedule": Distribution.fixed(-1.0)},
            {"behavior": {"window": 2}},
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigInvalidError):
            scenario(**overrides).validate()

    @pytest.mark.parametrize(
        "doc",
        [
            {"agent_count": 5, "loss_rate": "x"},
            {"agent_count": 5, "duration": float("inf")},
            {"agent_count": 5.0},
            {"agent_count": 5, "latency": {"kind": "fixed", "value": "1"}},
        ],
    )
    def test_invalid_documents_rejected(self, doc):
        with pytest.raises(ConfigInvalidError):
            SimConfig.from_dict(doc)

    def test_dict_round_trip(self):
        config = scenario(
            loss_rate=0.05,
            symmetric_nat_fraction=0.25,
            ping_marker="beacons-never-see-this",
        )
        restored = SimConfig.from_dict(config.to_dict())
        assert restored.to_dict() == config.to_dict()

    def test_missing_agent_count_rejected(self):
        with pytest.raises(ConfigInvalidError):
            SimConfig.from_dict({"seed": 1})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigInvalidError):
            SimConfig.from_dict({"agent_count": 3, "weather": "sunny"})

    def test_file_round_trip(self, tmp_path):
        config = scenario(seed=99)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config.to_dict()))
        assert SimConfig.read(path) == config


# A valid config of each class, and each field that declares a rule with a
# value just outside its bound. A rule dropped from a field, or a field given
# a rule and no case here, fails test_every_ruled_field_has_a_case.
VALID_CONFIGS = {
    MechanismMix: MechanismMix(),
    GrowthConfig: GrowthConfig(n=50),
    Distribution: Distribution.fixed(1.0),
    BehaviorPolicy: BehaviorPolicy(),
    SimConfig: scenario(),
}
RULE_CASES = [
    (MechanismMix, "propinquity", -1e-9),
    (MechanismMix, "preferential", -1e-9),
    (MechanismMix, "triadic", -1e-9),
    (MechanismMix, "uniform", -1e-9),
    (GrowthConfig, "self_loop_probability", 1.000001),
    (GrowthConfig, "isolate_probability", -1e-9),
    (GrowthConfig, "stub_mean", 0.999),
    (GrowthConfig, "window", 0),
    (GrowthConfig, "untagged_probability", 1.000001),
    (GrowthConfig, "seed", -1),
    (GrowthConfig, "seed", 2**64),
    (GrowthConfig, "session_mean", -1e-9),
    (GrowthConfig, "connector_fraction", 1.000001),
    (GrowthConfig, "connector_stub_mean", -1e-9),
    (Distribution, "value", -1e-9),
    (Distribution, "low", -1e-9),
    (Distribution, "mean", -1e-9),
    (BehaviorPolicy, "self_trust_probability", -1e-9),
    (BehaviorPolicy, "untagged_probability", -1e-9),
    (BehaviorPolicy, "heartbeat_interval", 0.0),
    (BehaviorPolicy, "window", 0),
    (SimConfig, "agent_count", 0),
    (SimConfig, "loss_rate", 1.000001),
    (SimConfig, "seed", -1),
    (SimConfig, "seed", 2**64),
    (SimConfig, "duration", 0.0),
    (SimConfig, "symmetric_nat_fraction", -1e-9),
]


def test_every_ruled_field_has_a_case():
    declared = {
        (cls, f.name) for cls in VALID_CONFIGS for f in fields(cls) if "rule" in f.metadata
    }
    assert declared == {(cls, name) for cls, name, _ in RULE_CASES}


@pytest.mark.parametrize(
    "cls, name, value", RULE_CASES, ids=[f"{c.__name__}.{n}={v}" for c, n, v in RULE_CASES]
)
def test_value_outside_a_rule_is_rejected_by_name(cls, name, value):
    VALID_CONFIGS[cls].validate()
    with pytest.raises(ConfigInvalidError) as raised:
        replace(VALID_CONFIGS[cls], **{name: value}).validate()
    assert str(raised.value).startswith(f"{name} ")


@pytest.mark.parametrize(
    "rule, inside, outside",
    [
        (UNIT, [0, 0.5, 1], [-1e-9, 1.000001]),
        (NON_NEGATIVE, [0, 1e9], [-1e-9]),
        (POSITIVE, [1e-9, 1], [0, -1]),
        (AT_LEAST_1, [1, 1.5], [0.999, 0]),
        (SEED, [0, 2**64 - 1], [-1, 2**64]),
    ],
    ids=["UNIT", "NON_NEGATIVE", "POSITIVE", "AT_LEAST_1", "SEED"],
)
def test_rule_bounds(rule, inside, outside):
    assert all(rule.accepts(v) for v in inside)
    assert not any(rule.accepts(v) for v in outside)


def key_paths(doc: dict, prefix=()) -> list[tuple[str, ...]]:
    """Every key of a document, nested objects' keys included."""
    paths = []
    for key, value in doc.items():
        paths.append(prefix + (key,))
        if isinstance(value, dict):
            paths.extend(key_paths(value, prefix + (key,)))
    return paths


GROWTH_DOC = GrowthConfig(n=50).to_dict()
SCENARIO_DOC = scenario(loss_rate=0.05, ping_marker="x").to_dict()


@pytest.mark.parametrize(
    "cls, base", [(GrowthConfig, GROWTH_DOC), (SimConfig, SCENARIO_DOC)]
)
@given(data=st.data())
@settings(max_examples=300)
def test_config_readers_raise_only_config_errors(cls, base, data):
    """One key, at any depth, replaced by any JSON value: a valid config or
    ConfigInvalidError, never another exception."""
    path = data.draw(st.sampled_from(key_paths(base)))
    doc = copy.deepcopy(base)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(json_values)
    try:
        config = cls.from_dict(doc)
    except ConfigInvalidError:
        return
    config.validate()


@pytest.mark.parametrize("loss_rate", [0.5, 1.0])
def test_every_handshake_attempt_is_forgotten_once_it_ends(loss_rate):
    """Answered or given up after its last retry, no attempt stays behind."""
    config = scenario(agent_count=8, loss_rate=loss_rate,
                      behavior=BehaviorPolicy(self_trust_probability=0.5))
    sim = _Scenario(config)
    sim.schedule_arrivals()
    last_try_ends = (config.agent_count - 1) * 10.0 + (HANDSHAKE_RETRIES + 1) * HANDSHAKE_TIMEOUT
    sim.loop.run_until(last_try_ends + 1.0)
    assert any(e["event"] == "handshake-start" for e in sim.events)
    assert [agent.attempts for agent in sim.by_address.values()] == [{}] * config.agent_count


class TestScenarioExamples:
    def test_fifty_agents_no_loss(self):
        result = run_scenario(scenario())
        snapshot = result.snapshot
        assert len(snapshot.nodes) == 50
        assert sum(1 for a, b in snapshot.trust_edges if a == b) == 0
        starts = [e for e in result.events if e["event"] == "handshake-start"]
        completes = [
            e for e in result.events if e["event"] == "handshake-complete"
        ]
        assert len(starts) == len(completes)
        # each attempted handshake is recorded exactly once
        pairs = [
            (min(e["initiator"], e["responder"]), max(e["initiator"], e["responder"]))
            for e in starts
        ]
        assert len(pairs) == len(set(pairs))
        assert edge_set(snapshot) == set(pairs)
        assert snapshot.summary_trust_links == len(snapshot.trust_edges)
        assert not any(e["event"] == "drop" for e in result.events)

    def test_hundred_agents_full_self_trust(self):
        config = scenario(
            agent_count=100,
            arrival_schedule=Distribution.fixed(5.0),
            behavior=BehaviorPolicy(
                self_trust_probability=1.0,
                target_links=Distribution.fixed(0.0),
            ),
            duration=800.0,
        )
        result = run_scenario(config)
        loops = [(a, b) for a, b in result.snapshot.trust_edges if a == b]
        assert len(result.snapshot.nodes) == 100
        assert len(result.snapshot.trust_edges) == 100
        assert len(loops) == 100

    def test_zero_loss_conserves_ground_truth(self):
        result = run_scenario(scenario(seed=23))
        assert edge_set(result.snapshot) == result.ground_truth_edges

    def test_identical_config_is_byte_identical(self):
        config = scenario(loss_rate=0.08, seed=42)
        first = run_scenario(config)
        second = run_scenario(config)
        assert first.snapshot.to_json() == second.snapshot.to_json()
        assert event_lines(first) == event_lines(second)

    def test_different_seeds_differ(self):
        first = run_scenario(scenario(seed=1))
        second = run_scenario(scenario(seed=2))
        assert first.snapshot.to_json() != second.snapshot.to_json()

    def test_lossy_run_stays_internally_consistent(self):
        config = scenario(
            loss_rate=0.05,
            behavior=BehaviorPolicy(self_trust_probability=0.64),
            seed=0,
            duration=1200.0,
        )
        result = run_scenario(config)
        assert consistency_audit(result.snapshot) == []
        # stored records never exceed what actually completed
        assert edge_set(result.snapshot) <= result.ground_truth_edges

    def test_agents_beyond_duration_never_arrive(self):
        config = scenario(
            agent_count=10,
            arrival_schedule=Distribution.fixed(100.0),
            duration=250.0,
        )
        result = run_scenario(config)
        assert len(result.snapshot.nodes) == 3

    def test_heartbeats_keep_agents_online(self):
        config = scenario(agent_count=4, duration=400.0)
        result = run_scenario(config)
        beats = [e for e in result.events if e["event"] == "heartbeat"]
        assert len(beats) > 4
        assert all(node.online for node in result.snapshot.nodes)

    def test_added_agent_does_not_perturb_earlier_draws(self):
        tagged = BehaviorPolicy(self_trust_probability=0.5)
        small = run_scenario(scenario(agent_count=5, behavior=tagged))
        large = run_scenario(scenario(agent_count=6, behavior=tagged))
        small_tags = [tuple(node.tags) for node in small.snapshot.nodes]
        large_tags = [tuple(node.tags) for node in large.snapshot.nodes]
        assert large_tags[:5] == small_tags

    def test_event_log_is_one_json_object_per_line(self, tmp_path):
        result = run_scenario(scenario(agent_count=5, duration=120.0))
        path = tmp_path / "events.log"
        result.write_events(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        kinds = set()
        for line in lines:
            event = json.loads(line)
            assert "t" in event and "event" in event
            kinds.add(event["event"])
        assert {"arrival", "register", "handshake-start"} <= kinds

    def test_drops_are_logged(self):
        result = run_scenario(scenario(loss_rate=0.4, seed=3))
        drops = [e for e in result.events if e["event"] == "drop"]
        assert drops
        assert all(d["stage"] in ("to-relay", "from-relay", "data") for d in drops)


class TestPairUniqueness:
    def test_no_pair_is_attempted_twice(self):
        config = scenario(
            agent_count=80,
            arrival_schedule=Distribution.fixed(6.0),
            behavior=BehaviorPolicy(
                self_trust_probability=0.5,
                target_links=Distribution.fixed(3.0),
            ),
            duration=900.0,
        )
        result = run_scenario(config)
        starts = [
            (min(e["initiator"], e["responder"]), max(e["initiator"], e["responder"]))
            for e in result.events
            if e["event"] == "handshake-start"
        ]
        assert len(starts) == len(set(starts))

    def test_pure_mechanism_mixes_run_clean(self):
        for name in ("propinquity", "preferential", "uniform", "triadic"):
            mix = MechanismMix().with_weight(name, 1.0)
            config = scenario(
                agent_count=20,
                behavior=BehaviorPolicy(peer_selection=mix),
                duration=400.0,
            )
            result = run_scenario(config)
            assert len(result.snapshot.nodes) == 20
            assert consistency_audit(result.snapshot) == []


class TestSealedPings:
    def test_marker_reaches_peers_but_never_the_beacon(self):
        marker = "plaintext-canary-31337"
        config = scenario(
            agent_count=30,
            arrival_schedule=Distribution.fixed(8.0),
            behavior=BehaviorPolicy(self_trust_probability=0.3),
            seed=5,
            duration=600.0,
            symmetric_nat_fraction=0.6,
            ping_marker=marker,
        )
        result = run_scenario(config)
        assert result.beacon.trace  # symmetric paths actually used the beacon
        assert marker.encode() not in b"".join(result.beacon.trace)
        assert result.pings
        assert all(payload == marker.encode() for _, _, payload in result.pings)

    def test_cone_only_population_never_relays(self):
        config = scenario(agent_count=20, symmetric_nat_fraction=0.0, seed=9)
        result = run_scenario(config)
        assert result.beacon.trace == []
        assert result.pings
