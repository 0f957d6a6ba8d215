"""Golden digests: fixed seeds must keep giving the same output bytes.

Each test runs the CLI in-process and compares the SHA-256 of every file it
wrote against a digest recorded from a known-good build. A refactor that
keeps behaviour keeps these digests; a deliberate output change must update
them and say why.
"""

import hashlib
import json
import random

import pytest

from _oracles import assert_matches_scipy_fit
from trustnet.channel import FRAME_ACCEPT, FRAME_CONFIRM, FRAME_REQUEST
from trustnet.cli import main
from trustnet.overlay import (
    FRAME_DECLINE,
    PORT_REGISTRY,
    PORT_TRUST_HANDSHAKE,
    PacketHeader,
    VirtualAddress,
    encode_packet,
)
from trustnet.registry import REGISTRY_ADDRESS, RegistryService
from trustnet.server import NULL_ADDRESS, RegistryServer

# Keyed by pytest id: a paper-2026 seed, a GROWTH_CONFIGS entry or a
# PRESET_RUNS entry.
GENERATE_DIGESTS = {
    "0": {
        "snapshot": "8ac2ed69bf56170714b59620e5648d855244356d74264b7ac7586a37f2612f1a",
        "trace": "23bde3ed197e7e651b9ad8317b89f0897cd2154463de6141c6df3459d0632ec6",
        "metrics": "119a3ac057dac38f864b0a08f21e8619a78b9f19ab8f6dd440045eda82f8fe7d",
    },
    "7": {
        "snapshot": "d7fe24de66f3f2f888be0fb453a7ff715c808bf691a0e5679ba48e46ee3a3ed9",
        "trace": "9c7729e3cc9e9fd7ec3c1bde746af9619ad188e2da2187658b0beb59cbf1bf52",
        "metrics": "1f8a0329c391390cd185e3bf28bc658bbf7c7cdf414b968e2c04186ae527350b",
    },
    "2026": {
        "snapshot": "899fc9d00010d13cbef2dfa881b1ffa8e4ed6bc3915954a514b1086d032f1e6f",
        "trace": "1fb2423d68ae399365035479269048075db7c84fe8ddb9339d8d6ad74cf2c0a3",
        "metrics": "705600c17282fa5f7107154454c7ce2108aa7bc0e02f3e3eaa0f0d88e367ed6e",
    },
    "config-n2000-seed5": {
        "snapshot": "5ba0ec46da1431d6bedaca535b70af38e3c170d286851a8eeff9e73174ff4da1",
        "trace": "e7233dd147c30f5ed265c7f9d61d4b147f63626a38d60f89a7178477b750e44f",
        "metrics": "1f42b1a2c9d75bc076ce5fdb52f0ec84845461c44cfd74c5c97a09e62a2d7438",
    },
    "config-n1500-seed4": {
        "snapshot": "a175a88dfe8e8fce268b4c6901d4b3818db7993f6f12fedbba59357273c3b133",
        "trace": "70055b6c1bf77167ab640004b21d0c7a1778627efc93ddd07a1e9169c01f993a",
        "metrics": "329d5692ac09fefdeefa04f64f641ee1fd95f5f0fc404df176def6007a346662",
    },
    "paper-n10000-seed7": {
        "snapshot": "8860c596fae91774d8e9b9f03dbd68f618db43d6f4031e52b687baa292e697ce",
        "trace": "f7bd52ee66beed2a6911837314cec5dcff8805c2aad6e5d7218274a096ebb52a",
        "metrics": "86a942f9b98494f531e80bd0fa887714217084b18a0541772b46cc4f764f3967",
    },
}

# scipy 1.17.1 / numpy 2.4.6 tail fits of the GENERATE_DIGESTS metrics,
# recorded before the fit was ported to pure math, in
# _oracles.SCIPY_FIT_FIELDS order. The port moved five metrics digests above
# by moving these floats in their last digits; config-n1500-seed4 kept its.
SCIPY_FITS = {
    "0": (
        "log-normal", 2.475509917937762, -219.3654420200725, -235.06705354635045,
        -218.48511466515768, -34.43025436296355, 5.15660384138185,
    ),
    "7": (
        "log-normal", 2.4576584150437437, -199.29580029128405, -202.91115753735315,
        -198.86104026529375, -0.4338802219489756, 1.6369381527799631,
    ),
    "2026": (
        "log-normal", 2.4275620320424696, -79.07559819411668, -78.50028606679419,
        -78.2187604187466, 2.0768778397212078, 0.9522409608713079,
    ),
    "config-n2000-seed5": (
        "log-normal", 7.073079043842395, -17.51913992563509, -17.14824500630932,
        -16.775576328187388, 2.3180287137055293, 0.16870371729232822,
    ),
    "config-n1500-seed4": (
        "power-law", 3.0008509865496875, -140.51192690180216, -146.93728560344067,
        -140.55900300557676, -20.22668813276607, 3.393863989554883,
    ),
    "paper-n10000-seed7": (
        "log-normal", 2.246298430183993, -2556.0009851801797, -2708.4285971130303,
        -2555.8719505990457, -33.950646915831854, 5.523845956032011,
    ),
}

# `report --charts` on the paper-2026 seed-7 metrics document.
CHART_DIGESTS = {
    "address_delta_histogram.csv": "646a95dd9a3943dc3f37e2e2eb8fc9c8c490ffdf0a55d203d9deced8304e1fa8",
    "degree_histogram.svg": "ca9e894e11ab1d7de5e21782fc5c8299e0c5eb5c5e4ca738f1c3160ac1aebadf",
    "degree_histogram_api.csv": "6c521bde802321b4c3575c744ed6e4798257b552bb659a0b6837835ee71b1856",
    "degree_histogram_nonself.csv": "67531930e77d7344b5eb871da7fe295ce7a7dcd3df53624cb28f91ea40d44ff9",
    "degree_loglog.svg": "afa9c34f7ded1419a129484b54e509c75763d0d8c6fdc2f4483368f365ff5dfa",
    "dunbar_bins.csv": "377c8cb96744bf7d16e7cef7875dc4ea3401fb9ff71b75b12bf41420f70daf30",
}

GROWTH_CONFIGS = {
    # Growth without sessions or connectors, which the preset never runs.
    "config-n2000-seed5": {"n": 2000, "seed": 5},
    # Float fields written as JSON integers.
    "config-n1500-seed4": {
        "n": 1500,
        "seed": 4,
        "stub_mean": 2,
        "session_mean": 4,
        "connector_fraction": 0.02,
        "connector_stub_mean": 20,
    },
}

# paper-2026 with extra arguments. The pipeline-10k benchmark's own input,
# where preferential attachment draws over the largest pool. Its metrics
# digest costs the analyze call: 0.3-0.5 s in-process on a 2-core host.
PRESET_RUNS = {"paper-n10000-seed7": ["--set", "n=10000", "--seed", "7"]}

LOSSY_SCENARIO = {
    "agent_count": 40,
    "arrival_schedule": {"kind": "fixed", "value": 10.0},
    "loss_rate": 0.05,
    "behavior": {"self_trust_probability": 0.5},
    "seed": 11,
    "duration": 600.0,
}

LOSSY_DIGESTS = {
    "snapshot": "101928ddbe54e36d41d700ce0921691be4ad8c89670ce16d10a6eefd126255e6",
    "events": "47bc50bb45f6052e068e1e39a25cfdb34fedfa45519965fc43a80ab4aad93cfe",
    "metrics": "24ba3b65437dd94d33f56e4da9bd24a325b7a6f67f6bdd06302a25bffee4bdda",
}

# Three links per arrival over a 5-wide window, so each pick excludes the
# targets already chosen for that arrival.
WIDE_SCENARIO = {
    "agent_count": 120,
    "arrival_schedule": {"kind": "fixed", "value": 2.0},
    "loss_rate": 0.05,
    "behavior": {
        "self_trust_probability": 0.64,
        "target_links": {"kind": "fixed", "value": 3.0},
        "window": 5,
    },
    "seed": 3,
}

WIDE_DIGESTS = {
    "snapshot": "69652a0fe4bbd7e56732bf15906a9c31a84c00db8bf2f147fe5b6ab2b6c74aa9",
    "events": "a53b8a0ef4f4dc11ab09480de38b62e146794f20342905feede5e9783b7e7122",
    "metrics": "1bbad92edf0d4162eea2ef7de28fb575d21e2b3d659d1290a28a22d326fa22cd",
}


# Every float field that can hold an integral value is written as a JSON
# integer; the event times ("t") depend on how those are read.
INT_SCENARIO = {
    "agent_count": 100,
    "arrival_schedule": {"kind": "exponential", "mean": 2},
    "loss_rate": 0,
    "latency": {"kind": "uniform", "low": 20, "high": 80},
    "behavior": {
        "target_links": {"kind": "uniform", "low": 1, "high": 4},
        "window": 4,
        "untagged_probability": 0.2,
        "heartbeat_interval": 15,
    },
    "symmetric_nat_fraction": 0.3,
    "ping_marker": "zz",
    "duration": 500,
    "seed": 3,
}

INT_DIGESTS = {
    "snapshot": "b3efca3a23581b3a413184916f06803f390fb6690f588a74e51d4282bfa17d45",
    "events": "88b0f77a25db8b72981cef0227bfaffd57bc21acc5c2c826cdb680d877041b27",
    "metrics": "197207c383a22bb5f55907aa4963f769ac187bd3c12d337277caf2eefaa591f8",
}

# The daemon's /api/stats body: RegistryService.snapshot().to_json() after
# the registry workload below.
REGISTRY_SNAPSHOT_DIGEST = "ec1f8f455ffe489ce117e3bc3345f3be558d67a9d4001cfd1072f657035507e3"

# Tags with non-ASCII, quote, backslash and control characters, so the digest
# covers the writer's string escapes.
REGISTRY_TAGS = ("coding", "café", 'say "hi"', "back\\slash", "tab\tstop", "日本", "x")


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def analyze_to(snapshot, metrics) -> None:
    assert main(["analyze", str(snapshot), "--out", str(metrics)]) == 0


@pytest.mark.parametrize("case", sorted(GENERATE_DIGESTS))
def test_paper_preset_digests(tmp_path, case):
    snapshot = tmp_path / "snapshot.json"
    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.json"
    if case in GROWTH_CONFIGS:
        config = tmp_path / "growth.json"
        config.write_text(json.dumps(GROWTH_CONFIGS[case]))
        source = ["--config", str(config)]
    elif case in PRESET_RUNS:
        source = ["--preset", "paper-2026", *PRESET_RUNS[case]]
    else:
        source = ["--preset", "paper-2026", "--seed", case]
    code = main(
        ["generate", *source, "--out", str(snapshot), "--trace", str(trace)]
    )
    assert code == 0
    expected = GENERATE_DIGESTS[case]
    observed = {"snapshot": sha256(snapshot), "trace": sha256(trace)}
    if "metrics" in expected:
        analyze_to(snapshot, metrics)
        observed["metrics"] = sha256(metrics)
        fit = json.loads(metrics.read_text())["powerlaw_fit"]
        assert_matches_scipy_fit(fit, SCIPY_FITS[case])
    assert observed == expected


def test_report_chart_digests(tmp_path):
    snapshot = tmp_path / "snapshot.json"
    metrics = tmp_path / "metrics.json"
    charts = tmp_path / "charts"
    code = main(
        ["generate", "--preset", "paper-2026", "--seed", "7", "--out", str(snapshot)]
    )
    assert code == 0
    analyze_to(snapshot, metrics)
    assert main(["report", str(metrics), "--charts", str(charts)]) == 0
    observed = {path.name: sha256(path) for path in charts.iterdir()}
    assert observed == CHART_DIGESTS


def simulate_digests(tmp_path, scenario) -> dict:
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario))
    snapshot = tmp_path / "sim.json"
    events = tmp_path / "sim.events.jsonl"
    metrics = tmp_path / "metrics.json"
    code = main(
        [
            "simulate",
            "--config",
            str(config),
            "--out",
            str(snapshot),
            "--events",
            str(events),
        ]
    )
    assert code == 0
    analyze_to(snapshot, metrics)
    return {
        "snapshot": sha256(snapshot),
        "events": sha256(events),
        "metrics": sha256(metrics),
    }


def test_lossy_simulation_digests(tmp_path):
    assert simulate_digests(tmp_path, LOSSY_SCENARIO) == LOSSY_DIGESTS


def test_wide_simulation_digests(tmp_path):
    assert simulate_digests(tmp_path, WIDE_SCENARIO) == WIDE_DIGESTS


def test_int_valued_simulation_digests(tmp_path):
    assert simulate_digests(tmp_path, INT_SCENARIO) == INT_DIGESTS


def test_registry_snapshot_digest():
    now = [1000.0]
    registry = RegistryService(clock=lambda: now[0])
    rng = random.Random(12)
    addresses = [
        registry.register(
            rng.randbytes(32), tags=rng.sample(REGISTRY_TAGS, rng.randint(0, 3))
        )
        for _ in range(200)
    ]
    now[0] += 100.0  # past OFFLINE_AFTER for every node that does not beat
    for address in addresses[1:]:
        registry.heartbeat(address)
    for _ in range(150):
        a, b = rng.sample(addresses, 2)
        for src, dst, frame_type in (
            (a, b, FRAME_REQUEST),
            (b, a, FRAME_ACCEPT),
            (a, b, FRAME_CONFIRM),
        ):
            payload = bytes([frame_type]) + rng.randbytes(16)
            header = PacketHeader(
                src=src,
                dst=dst,
                src_port=PORT_TRUST_HANDSHAKE,
                dst_port=PORT_TRUST_HANDSHAKE,
            )
            registry.relay_handshake(encode_packet(header, payload))
    registry.record_trust(addresses[3], addresses[3])
    body = registry.snapshot().to_json().encode("utf-8")
    assert hashlib.sha256(body).hexdigest() == REGISTRY_SNAPSHOT_DIGEST


# Every datagram RegistryServer._handle_datagram sends, with its destination
# endpoint, for the request sequence in daemon_requests().
REGISTRY_REPLY_DIGEST = "95b8bbe991f45abe94714618353270bfbe3701b3ae694d7bf37deda3f3e7b4ac"


def daemon_requests():
    """(datagram, peer) pairs covering each control reply and relay outcome."""
    rng = random.Random(20)
    requests = []

    def send(src, dst_port, body, peer, src_port=PORT_REGISTRY, flags=0, dst=None):
        header = PacketHeader(
            src=src,
            dst=REGISTRY_ADDRESS if dst is None else dst,
            src_port=src_port,
            dst_port=dst_port,
            flags=flags,
        )
        if isinstance(body, dict):
            body = json.dumps(body).encode("utf-8")
        requests.append((encode_packet(header, body), peer))

    def control(body, peer, src=NULL_ADDRESS, **kwargs):
        send(src, PORT_REGISTRY, body, peer, **kwargs)

    keys = [rng.randbytes(32) for _ in range(6)]
    peers = [("127.0.0.1", 41_000 + n) for n in range(6)]
    agents = [VirtualAddress(0, 2 + n) for n in range(6)]
    for n, (key, peer) in enumerate(zip(keys, peers)):
        tags = list(REGISTRY_TAGS[n : n + 2 * (n % 2)])
        body = {"op": "register", "public_key": key.hex(), "tags": tags}
        if n % 3:
            body["hostname"] = f"Agent-{n}"
        control(body, peer, src_port=7_000 + n)
    stranger = ("127.0.0.1", 41_099)
    control({"op": "register", "public_key": keys[0].hex()}, stranger)
    many_tags = ["a", "b", "c", "d"]
    control(
        {"op": "register", "public_key": rng.randbytes(32).hex(), "tags": many_tags},
        ("127.0.0.1", 41_098),
    )
    for hostname in ("AGENT-1", "nobody"):
        control({"op": "resolve", "hostname": hostname}, peers[0], src=agents[0])
    control({"op": "heartbeat", "address": agents[2].to_text()}, peers[2], src=agents[2])
    for text in ("0:0000.0000.0999", "0:00zz"):
        control({"op": "heartbeat", "address": text}, peers[3], src=agents[3])
    control({"op": "teleport"}, peers[4], src=agents[4], src_port=65_535)
    control(b'{"op":"register","public_key":"' + b"11" * 32 + b'","tags":5}', peers[4])
    control(
        {"op": "heartbeat", "address": agents[5].to_text()},
        peers[5],
        src=agents[5],
        src_port=9,
        flags=0xA5,
    )
    for a, b in ((0, 1), (2, 3), (1, 4)):
        for src, dst, frame_type in (
            (a, b, FRAME_REQUEST),
            (b, a, FRAME_ACCEPT),
            (a, b, FRAME_CONFIRM),
        ):
            send(
                agents[src],
                PORT_TRUST_HANDSHAKE,
                bytes([frame_type]) + rng.randbytes(16),
                peers[src],
                src_port=PORT_TRUST_HANDSHAKE,
                dst=agents[dst],
            )
    # An unknown destination, a DECLINE, and a frame from an unregistered
    # sender, which is not answered.
    frame = {"src_port": PORT_TRUST_HANDSHAKE, "dst": VirtualAddress(0, 9_999)}
    send(agents[5], PORT_TRUST_HANDSHAKE, bytes([FRAME_REQUEST]), peers[5], **frame)
    frame["dst"] = agents[0]
    send(agents[3], PORT_TRUST_HANDSHAKE, bytes([FRAME_DECLINE]), peers[3], **frame)
    send(VirtualAddress(0, 9_998), PORT_TRUST_HANDSHAKE, b"\x01", peers[3], **frame)
    return requests


class _RecordingSocket:
    def __init__(self) -> None:
        self.sent = []

    def sendto(self, data, peer) -> None:
        self.sent.append((data, peer))


def test_registry_reply_digest():
    server = RegistryServer(RegistryService(base_node_id=2, clock=lambda: 3000.0))
    server._udp = _RecordingSocket()
    for datagram, peer in daemon_requests():
        server._handle_datagram(datagram, peer)
    digest = hashlib.sha256()
    for data, (host, port) in server._udp.sent:
        digest.update(f"{host}:{port} {len(data)}\n".encode("ascii") + data)
    assert len(server._udp.sent) == 27
    assert digest.hexdigest() == REGISTRY_REPLY_DIGEST
