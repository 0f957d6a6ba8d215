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

from _oracles import assert_matches_scipy_fit, record_trust
import trustnet.cli
from trustnet.analytics import render_table
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
# PRESET_RUNS entry. "table" is the summary table `analyze` prints.
GENERATE_DIGESTS = {
    "0": {
        "snapshot": "1b318adafb1f979b4dee7f8c8c0bb62425ce9709a53c01126bfba12fef13401c",
        "trace": "91e837a47fd8105654c190e9a342b5f09bb9ea6e46f6b9e731c3acc631246afa",
        "metrics": "35dd5a3172e2ccf4c3033f503d807ec73ef75353b9fe8df81a00031ed6dee24e",
        "table": "be0dcb6811b11324d83356a6ccbb8bf24b70d425874dfb82c62c0fc4b63f6e3b",
    },
    "7": {
        "snapshot": "e53239c4611bcb13cd5166eef428cfecdb925d6cc954de6a3a60fa8a74929d9b",
        "trace": "7d711ad9ab1b0c5d3c76bf38aa450230501e9b6b617c7386722402c4f6d71cc2",
        "metrics": "2f482524dc1a1222e8a1116ca5791f5604aa491cd72a28a2dc7dda925fe2e548",
        "table": "96a76e7aff9f37d4a96db98710c47b08b01cf7e73f238983ed5668d4db8ee54f",
    },
    "2026": {
        "snapshot": "32aab3b568a41cb7d261934e2763272c3592c0773ff21b46446018e815513c63",
        "trace": "be3d7fb84282f2d576ee745a4571bfa38f5e0d18a8e8ef98152c3706d05e3f35",
        "metrics": "35b44cee39cbda944e782fa9a60b58eca39043cbdf2b3ecda0c492b6d24c7f17",
        "table": "42f7656464b14ae75d790713aa374c189d977abe1c7e25866ed22f448caaa523",
    },
    "config-n2000-seed5": {
        "snapshot": "57169d51df6bb6b6970f3573a2f2b731371bd94fc14bb70fdecde953d42b2097",
        "trace": "014fbae58112b9d83e1e40851aaa8d58da6e1114ffc337f8643fe144c845025b",
        "metrics": "5176e4541d3eb4ee90d7f3f4ba1a2a354a4c5e914dafc5a39731cd5293b73f39",
        "table": "a9d5901d2271f085b99a424da2b215e73d804a6e643ca70fce6f024178235392",
    },
    "config-n1500-seed4": {
        "snapshot": "114d673f09aed5f64c60b4288436cf56dc4f4927f933f9e51fc160fd6ab5b680",
        "trace": "cbb12f1e718d2a0eecd3ae83317d5f20ab00347abf758fba32b7a94afd9785df",
        "metrics": "dfba3e0b0ca28e830e07451d9c4ff13c16da25afab54f3521df3124a827e1d27",
        "table": "f800a34cbe2fc1ccf92d0ef949bf085f937bed539fbb39b3eb62025f56e357de",
    },
    "paper-n10000-seed7": {
        "snapshot": "5c191cd82f5c34c89e5cf336cdddcf4b8d857dc8b69f7f3d727f07533823de1b",
        "trace": "b6a3bd753289c16a4e02fe1be730adb268454b1e1241e60a3958560fb18a48c7",
        "metrics": "55c4716a8a908f4962df9a40d8dc8f938d25b1b2827ba68d9518b44c34f3174c",
        "table": "562bb4cc6dd0542154295e1332553c114b032ad75fdc6713890a7a24b159fb7e",
    },
}

# scipy 1.17.1 / numpy 2.4.6 tail fits of the GENERATE_DIGESTS metrics, in
# _oracles.SCIPY_FIT_FIELDS order: the scipy fit_heavy_tail that the pure-math
# port replaced (`git show 44d6c51^:src/trustnet/analytics/tailfit.py`) run on
# each case's non-self degree histogram. Run on the outputs of the key-per-entry
# tag draw, the same fit gives the literals recorded before the port, exactly.
SCIPY_FITS = {
    "0": (
        "power-law", 2.4472713637436403, -114.26618820779186, -120.02240512658726,
        -114.27708506841053, -25.22667790207312, 4.465211857146636,
    ),
    "7": (
        "log-normal", 2.135353355888398, -56.05639703334534, -56.23568469922608,
        -55.721459663263516, 1.3806624315124503, 1.4349599820456695,
    ),
    "2026": (
        "power-law", 2.5444844576564694, -110.78737659863747, -114.75574236096192,
        -110.78919586763614, -23.790844672109927, 4.201236469178967,
    ),
    "config-n2000-seed5": (
        "log-normal", 5.511846217609823, -25.412091570880996, -25.610386802970933,
        -25.408037571330297, -6.523699595937103, 1.4175220582069135,
    ),
    "config-n1500-seed4": (
        "log-normal", 2.6040639942570927, -159.81261197504068, -164.31588349621458,
        -159.65374304257128, -2.5634986268598245, 1.9271528030280416,
    ),
    "paper-n10000-seed7": (
        "log-normal", 2.3663149420769343, -2234.6873932994104, -2398.846804704062,
        -2234.3803357900547, -33.041582596497996, 5.196801381932646,
    ),
}

# `report --charts` on the paper-2026 seed-7 metrics document.
CHART_DIGESTS = {
    "address_delta_histogram.csv": "972b5bde92e8ca9a428626f7adbacc528ac43a5375a50f7226dd63f865068697",
    "degree_histogram.svg": "049cf7c373ec999abf102f333d127dca3f4a046ecae4b57acc345c3891e6aa5d",
    "degree_histogram_api.csv": "b46b4663386685b69eecef745080c20d18ac2b1432285a36763db3a6c82ed508",
    "degree_histogram_nonself.csv": "968a9abec002825e63f214827a77bf7ae7a5aed49e5445909e48b3a48d9f2361",
    "degree_loglog.svg": "b8fe9729fbfc34dffd6e7b7d09d6982fc311b7d30e67c26e868bb721eca4e9a3",
    "dunbar_bins.csv": "176e928825eb380a37d9ada291a3e6ce231d5df30988e789018f0bf600ece185",
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
    "snapshot": "3e5fd65ba94bd26f81241afd934e7388170d94b198cf383013710f6f0d3d042f",
    "events": "92f95706f9eaf95758e2db3a16771e1e05169c13679a74ab7a6f09414bcd6dab",
    "metrics": "f11fe6993dab7047bd50b496532da67aa084f4f7bfec943f655646567ae79041",
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
    "snapshot": "7ea9d69a8787a11da041ea04ed9b71f94a80cf0025a5efb02a65a06d8697b89c",
    "events": "28194271061a542dd6a12041db697ae1deccb74b6e4e4596c0fb6cd9d937e9ab",
    "metrics": "63624073d7c1706cd0ba948db915e7d74284fe700363c0efd6f5bde4fdb28e65",
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
    "snapshot": "c7e325409e739194a5a8ff99f2237dce7ec84b07d189ddf62748d8db5ab2c3ea",
    "events": "7329c95d510086d4abdb4ada8269d47b861c181ba356146115419b19befa8273",
    "metrics": "e46ee74d72904bf6fd0cc12d541a1d02ffe8aee91771723f71debf160e87856e",
}

# The daemon's /api/stats body: RegistryService.snapshot().to_json() after
# the registry workload below.
REGISTRY_SNAPSHOT_DIGEST = "ec1f8f455ffe489ce117e3bc3345f3be558d67a9d4001cfd1072f657035507e3"

# The registry's --log file for the same workload: every register, heartbeat
# and trust line the service appends.
REGISTRY_EVENT_LOG_DIGEST = "0c8417d9a7b239b07da0441090feddcaca62e425ff2aad7a85880ad560731383"

# Tags with non-ASCII, quote, backslash and control characters, so the digest
# covers the writer's string escapes.
REGISTRY_TAGS = ("coding", "café", 'say "hi"', "back\\slash", "tab\tstop", "日本", "x")


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def analyze_to(snapshot, metrics) -> None:
    assert main(["analyze", str(snapshot), "--out", str(metrics)]) == 0


@pytest.mark.parametrize("case", sorted(GENERATE_DIGESTS))
def test_paper_preset_digests(tmp_path, monkeypatch, case):
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
        tables = []  # what `analyze` prints: render_table of the report it wrote

        def recorded(report):
            tables.append(render_table(report))
            return tables[-1]

        monkeypatch.setattr(trustnet.cli, "render_table", recorded)
        analyze_to(snapshot, metrics)
        observed["metrics"] = sha256(metrics)
        [table] = tables
        observed["table"] = hashlib.sha256(table.encode("utf-8")).hexdigest()
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


def registry_workload(event_log=None) -> RegistryService:
    """The registry of the daemon digests: tagged registrations, a liveness
    flip, relayed handshakes and one self-trust record."""
    now = [1000.0]
    registry = RegistryService(clock=lambda: now[0], event_log=event_log)
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
    record_trust(registry, addresses[3], addresses[3])
    return registry


def test_registry_snapshot_digest():
    body = registry_workload().snapshot().to_json().encode("utf-8")
    assert hashlib.sha256(body).hexdigest() == REGISTRY_SNAPSHOT_DIGEST


def test_registry_event_log_digest(tmp_path):
    log = tmp_path / "registry.events.jsonl"
    registry = registry_workload(event_log=log)
    registry.snapshot()
    registry.close()
    assert sha256(log) == REGISTRY_EVENT_LOG_DIGEST


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
