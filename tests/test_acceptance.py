"""Acceptance suite: one test per shipped claim.

Running ``pytest -v tests/test_acceptance.py`` prints exactly one pass/fail
line per criterion.  Each test states its tolerance and time budget inline
and prints the measured values, so a failure is diagnosable from the log
alone.  The suite is self-contained on purpose: reference figures and the
snapshot construction helper are frozen here rather than imported from the
unit-test modules, so this file alone defines what "done" means.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from collections import Counter

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from _oracles import (
    BruteGraph,
    GCM_VECTORS,
    REFERENCE_API_HISTOGRAM,
    REFERENCE_ASSIGNMENTS,
    REFERENCE_NODE_COUNT,
    REFERENCE_NONSELF_EDGES,
    REFERENCE_OPEN_TRIPLES,
    REFERENCE_TRIANGLES,
    REFERENCE_UNIQUE_TAGS,
    X25519_DH_VECTOR,
    X25519_SCALARMULT_VECTORS,
    random_edge_list,
    tail_sampler_exponential,
    tail_sampler_lognormal,
    tail_sampler_power_law,
)
from trustnet.analytics import (
    analyze_snapshot,
    build_graph,
    clustering,
    components,
    consistency_audit,
    degree_histogram,
    dunbar_bins,
    summarize_histogram,
)
from trustnet.analytics.graph import density_from_counts, transitivity_from_counts
from trustnet.analytics.report import DEFAULT_DUNBAR_BOUNDARIES
from trustnet.analytics.tailfit import fit_heavy_tail
from trustnet.channel import (
    AcceptAllPolicy,
    AgentIdentity,
    exchange,
    exchange_public_bytes,
    run_handshake,
)
from trustnet.cli import main as cli_main
from trustnet.errors import TrustNetError
from trustnet.growth import generate as grow_network
from trustnet.growth import preset
from trustnet.overlay import PacketHeader, VirtualAddress, decode_packet, encode_packet
from trustnet.sim import BehaviorPolicy, Distribution, SimConfig, run_scenario
from trustnet.snapshot import NetworkView, NodeView, StatsSnapshot


# --- helpers ---


def _addr(i: int) -> VirtualAddress:
    return VirtualAddress(0, i + 1)


def _snapshot_from(n, edges, tags=None) -> StatsSnapshot:
    """Snapshot with trust_links = non-self degree plus 2 per self-loop."""
    tags = tags or {}
    loops = {a for a, b in edges if a == b}
    degree = {i: 0 for i in range(n)}
    seen = set()
    edge_rows = []
    for a, b in edges:
        pair = (min(a, b), max(a, b))
        if pair in seen:
            continue
        seen.add(pair)
        edge_rows.append((_addr(pair[0]).to_text(), _addr(pair[1]).to_text()))
        if a != b:
            degree[a] += 1
            degree[b] += 1
    nodes = [
        NodeView(
            address=_addr(i).to_text(),
            tags=tuple(tags.get(i, ())),
            online=True,
            trust_links=degree[i] + (2 if i in loops else 0),
        )
        for i in range(n)
    ]
    return StatsSnapshot(
        generated_at=0.0,
        requests_served=n,
        networks=[NetworkView(0, "backbone")],
        nodes=nodes,
        trust_edges=edge_rows,
        summary_trust_links=len(edge_rows),
        requests_per_agent=1.0,
    )


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {label}: {detail}")
    assert ok, f"criterion {num:02d} failed - {label}: {detail}"


# --- the thirteen criteria ---


def test_criterion_01_codec_round_trip():
    """10,000 random packets and addresses survive encode/decode untouched
    in under 5 seconds."""
    rng = random.Random(0xACCE55)
    start = time.perf_counter()
    failures = 0
    cases = 10_000
    for _ in range(cases):
        src = VirtualAddress(rng.randrange(1 << 16), rng.randrange(1 << 32))
        dst = VirtualAddress(rng.randrange(1 << 16), rng.randrange(1 << 32))
        if VirtualAddress.from_text(src.to_text()) != src:
            failures += 1
        payload = rng.randbytes(rng.randrange(0, 512))
        header = PacketHeader(
            src=src,
            dst=dst,
            src_port=rng.randrange(1 << 16),
            dst_port=rng.randrange(1 << 16),
            flags=rng.randrange(1 << 8),
        )
        decoded_header, decoded_payload = decode_packet(
            encode_packet(header, payload)
        )
        if decoded_header != header or decoded_payload != payload:
            failures += 1
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "codec round-trip",
        failures == 0 and elapsed < 5.0,
        f"{cases} cases, {failures} failures, {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_02_crypto_vectors_and_adversarial_rejection():
    """Key agreement and AEAD match published vectors; 10,000 adversarial
    deliveries (bit flips, header swaps, replays) are all rejected and 1,000
    seal/open round-trips all succeed, in under 10 seconds."""
    start = time.perf_counter()

    # Published scalar-multiplication and Diffie-Hellman vectors.
    vector_failures = 0
    for scalar, u, want in X25519_SCALARMULT_VECTORS:
        priv = X25519PrivateKey.from_private_bytes(bytes.fromhex(scalar))
        if exchange(priv, bytes.fromhex(u)) != bytes.fromhex(want):
            vector_failures += 1
    a_priv = X25519PrivateKey.from_private_bytes(
        bytes.fromhex(X25519_DH_VECTOR["a_private"])
    )
    b_priv = X25519PrivateKey.from_private_bytes(
        bytes.fromhex(X25519_DH_VECTOR["b_private"])
    )
    if exchange_public_bytes(a_priv) != bytes.fromhex(X25519_DH_VECTOR["a_public"]):
        vector_failures += 1
    if exchange_public_bytes(b_priv) != bytes.fromhex(X25519_DH_VECTOR["b_public"]):
        vector_failures += 1
    shared = bytes.fromhex(X25519_DH_VECTOR["shared"])
    if exchange(a_priv, bytes.fromhex(X25519_DH_VECTOR["b_public"])) != shared:
        vector_failures += 1
    if exchange(b_priv, bytes.fromhex(X25519_DH_VECTOR["a_public"])) != shared:
        vector_failures += 1

    # Published AES-256-GCM vectors against the AEAD the channel composes.
    for vec in GCM_VECTORS:
        sealed = AESGCM(bytes.fromhex(vec["key"])).encrypt(
            bytes.fromhex(vec["iv"]),
            bytes.fromhex(vec["plaintext"]),
            bytes.fromhex(vec["aad"]) or None,
        )
        if sealed != bytes.fromhex(vec["ciphertext"]) + bytes.fromhex(vec["tag"]):
            vector_failures += 1

    # Live sessions from a real handshake.
    alice = AgentIdentity.generate(VirtualAddress(0, 5), random.Random(21))
    bob = AgentIdentity.generate(VirtualAddress(0, 6), random.Random(22))
    directory = {alice.address: alice.public_key, bob.address: bob.public_key}
    _, sender, receiver = run_handshake(
        alice, bob, AcceptAllPolicy(), directory.__getitem__, random.Random(23)
    )
    header = PacketHeader(
        src=alice.address, dst=bob.address, src_port=443, dst_port=443
    )

    rng = random.Random(0xADBEEF)
    round_trip_failures = 0
    for _ in range(1_000):
        message = rng.randbytes(rng.randrange(0, 128))
        if receiver.open(header, sender.seal(header, message)) != message:
            round_trip_failures += 1

    adversarial = 10_000
    rejected = 0
    for i in range(adversarial):
        sealed = sender.seal(header, rng.randbytes(rng.randrange(1, 64)))
        kind = i % 3
        try:
            if kind == 0:  # flip one bit anywhere in the sealed bytes
                mutated = bytearray(sealed)
                bit = rng.randrange(len(mutated) * 8)
                mutated[bit // 8] ^= 1 << (bit % 8)
                receiver.open(header, bytes(mutated))
            elif kind == 1:  # deliver under a header the seal was not bound to
                field = rng.choice(["src_port", "dst_port", "flags", "dst"])
                if field == "dst":
                    wrong = header._replace(dst=VirtualAddress(0, header.dst.node_id ^ 0x1F))
                else:
                    mask = 1 + rng.randrange(0xFF)
                    wrong = header._replace(**{field: getattr(header, field) ^ mask})
                receiver.open(wrong, sealed)
            else:  # replay: second delivery of a once-accepted datagram
                receiver.open(header, sealed)
                receiver.open(header, sealed)
        except TrustNetError:
            rejected += 1

    elapsed = time.perf_counter() - start
    _verdict(
        2,
        "crypto vectors + adversarial rejection",
        vector_failures == 0
        and round_trip_failures == 0
        and rejected == adversarial
        and elapsed < 10.0,
        f"vector failures {vector_failures}, round-trip failures "
        f"{round_trip_failures}/1000, rejected {rejected}/{adversarial}, "
        f"{elapsed:.2f}s (budget 10s)",
    )


def test_criterion_03_graph_metrics_match_oracle():
    """On 100 seeded random graphs (up to 50 vertices) the package's
    components, triangle counts, clustering, and both degree histograms
    equal a brute-force oracle exactly, in under 30 seconds."""
    rng = random.Random(0x02AC1E)
    start = time.perf_counter()
    graphs = 100
    mismatches = 0
    for _ in range(graphs):
        n, edges = random_edge_list(rng, max_nodes=50)
        snapshot = _snapshot_from(n, edges)
        graph = build_graph(snapshot)
        brute = BruteGraph(n)
        for a, b in edges:
            brute.add_edge(a, b)
        loops = {a for a, b in edges if a == b}

        if degree_histogram(graph, "nonself") != brute.degree_histogram():
            mismatches += 1
        expected_api = Counter(
            brute.degrees()[i] + (2 if i in loops else 0) for i in range(n)
        )
        if degree_histogram(graph, "api") != dict(expected_api):
            mismatches += 1
        if list(components(graph).sizes) != brute.component_sizes():
            mismatches += 1
        stats = clustering(graph)
        if stats.triangles != brute.triangle_count():
            mismatches += 1
        if stats.connected_triples != brute.connected_triples():
            mismatches += 1
        oracle_avg = sum(brute.local_clustering()) / n
        if abs(stats.avg_all - oracle_avg) > 1e-12:
            mismatches += 1
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        "graph metrics vs brute-force oracle",
        mismatches == 0 and elapsed < 30.0,
        f"{graphs} graphs, {mismatches} mismatches, {elapsed:.2f}s (budget 30s)",
    )


def test_criterion_04_lossless_scenario_conserves_every_link():
    """At zero packet loss the registry snapshot's edge set equals the
    harness ground truth exactly and the trust-link sum balances
    2*E_nonself + 2*self_loops."""
    config = SimConfig(
        agent_count=60,
        arrival_schedule=Distribution.fixed(10.0),
        loss_rate=0.0,
        behavior=BehaviorPolicy(self_trust_probability=0.3),
        seed=4,
        duration=1800.0,
    )
    result = run_scenario(config)
    snapshot = result.snapshot
    snapshot_edges = {tuple(sorted(edge)) for edge in snapshot.trust_edges}
    truth = result.ground_truth_edges
    nonself = sum(1 for a, b in snapshot_edges if a != b)
    self_loops = sum(1 for a, b in snapshot_edges if a == b)
    link_sum = sum(node.trust_links for node in snapshot.nodes)
    balanced = link_sum == 2 * nonself + 2 * self_loops
    _verdict(
        4,
        "lossless conservation",
        snapshot_edges == truth and balanced,
        f"snapshot edges {len(snapshot_edges)} == ground truth {len(truth)}: "
        f"{snapshot_edges == truth}; sum(trust_links)={link_sum} vs "
        f"2*{nonself}+2*{self_loops}={2 * nonself + 2 * self_loops}",
    )


def test_criterion_05_cli_reruns_are_byte_identical(tmp_path):
    """generate, simulate, analyze, and report each produce byte-identical
    outputs when rerun with the same seed and inputs."""
    def run(args):
        code = cli_main(args)
        assert code == 0, f"cli {args} exited {code}"

    identical = []

    g1, g2 = tmp_path / "g1.json", tmp_path / "g2.json"
    run(["generate", "--preset", "paper-2026", "--seed", "11", "--out", str(g1)])
    run(["generate", "--preset", "paper-2026", "--seed", "11", "--out", str(g2)])
    identical.append(("generate", g1.read_bytes() == g2.read_bytes()))

    scenario_doc = {
        "agent_count": 30,
        "arrival_schedule": {"kind": "fixed", "value": 10.0},
        "loss_rate": 0.08,
        "behavior": {"self_trust_probability": 0.5},
        "seed": 9,
        "duration": 600.0,
    }
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(scenario_doc), encoding="utf-8")
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    d1.mkdir()
    d2.mkdir()
    run(["simulate", "--config", str(config_path), "--out", str(d1 / "snap.json")])
    run(["simulate", "--config", str(config_path), "--out", str(d2 / "snap.json")])
    identical.append(
        (
            "simulate",
            (d1 / "snap.json").read_bytes() == (d2 / "snap.json").read_bytes()
            and (d1 / "snap.events.jsonl").read_bytes()
            == (d2 / "snap.events.jsonl").read_bytes(),
        )
    )

    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    run(["analyze", str(g1), "--out", str(m1)])
    run(["analyze", str(g1), "--out", str(m2)])
    identical.append(("analyze", m1.read_bytes() == m2.read_bytes()))

    c1, c2 = tmp_path / "charts1", tmp_path / "charts2"
    run(["report", str(m1), "--charts", str(c1)])
    run(["report", str(m1), "--charts", str(c2)])
    names1 = sorted(p.name for p in c1.iterdir())
    names2 = sorted(p.name for p in c2.iterdir())
    identical.append(
        (
            "report",
            names1 == names2
            and len(names1) > 0
            and all(
                (c1 / name).read_bytes() == (c2 / name).read_bytes()
                for name in names1
            ),
        )
    )

    _verdict(
        5,
        "deterministic CLI reruns",
        all(ok for _, ok in identical),
        ", ".join(f"{stage}={'ok' if ok else 'DIFFERS'}" for stage, ok in identical),
    )


def test_criterion_06_reference_histogram_summary():
    """The frozen degree histogram summarizes to n=626, mean 6.29 +/- 0.005,
    median 5, mode 3, max 39."""
    summary = summarize_histogram(REFERENCE_API_HISTOGRAM)
    ok = (
        summary.total == REFERENCE_NODE_COUNT
        and abs(summary.mean - 6.29) <= 0.005
        and summary.median == 5
        and summary.mode == 3
        and summary.max == 39
    )
    _verdict(
        6,
        "reference degree summary",
        ok,
        f"total={summary.total}, mean={summary.mean:.4f}, "
        f"median={summary.median}, mode={summary.mode}, max={summary.max}",
    )


def test_criterion_07_reference_density_and_mean_degree():
    """626 nodes with 1,567 non-self edges give density 0.00801 +/- 0.00001
    and mean non-self degree 5.01 +/- 0.01."""
    density = density_from_counts(REFERENCE_NODE_COUNT, REFERENCE_NONSELF_EDGES)
    mean_degree = 2 * REFERENCE_NONSELF_EDGES / REFERENCE_NODE_COUNT
    ok = abs(density - 0.00801) <= 0.00001 and abs(mean_degree - 5.01) <= 0.01
    _verdict(
        7,
        "reference density + mean degree",
        ok,
        f"density={density:.6f} (want 0.00801+/-0.00001), "
        f"mean nonself degree={mean_degree:.4f} (want 5.01+/-0.01)",
    )


def test_criterion_08_reference_transitivity_and_baseline_ratio():
    """5,061 triangles over 13,168 open triples give transitivity
    0.3843 +/- 0.0005, roughly 47x the random-graph baseline."""
    transitivity = transitivity_from_counts(
        REFERENCE_TRIANGLES, REFERENCE_OPEN_TRIPLES
    )
    ratio = 0.373 / 0.008
    ok = abs(transitivity - 0.3843) <= 0.0005 and round(ratio) == 47
    _verdict(
        8,
        "reference transitivity + baseline ratio",
        ok,
        f"transitivity={transitivity:.5f} (want 0.3843+/-0.0005), "
        f"clustering-over-baseline ratio={ratio:.1f} (rounds to {round(ratio)})",
    )


def test_criterion_09_tag_census_ratios():
    """A snapshot carrying 917 tag assignments over 276 unique tags yields
    type-token ratio 0.301 +/- 0.002 and max entropy 8.11 +/- 0.01 bits."""
    counts = [1] * REFERENCE_UNIQUE_TAGS
    for extra in range(REFERENCE_ASSIGNMENTS - REFERENCE_UNIQUE_TAGS):
        counts[extra % REFERENCE_UNIQUE_TAGS] += 1
    tags = {}
    agent = 0
    for tag_index, count in enumerate(counts):
        for _ in range(count):
            tags[agent] = (f"t{tag_index:03d}",)
            agent += 1
    snapshot = _snapshot_from(agent, [], tags=tags)
    census = analyze_snapshot(snapshot).tag_stats
    ok = (
        census.assignments_total == REFERENCE_ASSIGNMENTS
        and census.unique_tags == REFERENCE_UNIQUE_TAGS
        and abs(census.type_token_ratio - 0.301) <= 0.002
        and abs(census.max_entropy_bits - 8.11) <= 0.01
    )
    _verdict(
        9,
        "tag census ratios",
        ok,
        f"assignments={census.assignments_total}, unique={census.unique_tags}, "
        f"TTR={census.type_token_ratio:.4f} (want 0.301+/-0.002), "
        f"max entropy={census.max_entropy_bits:.4f} bits (want 8.11+/-0.01)",
    )


def test_criterion_10_degree_band_occupancy():
    """Binning the frozen histogram at the default band boundaries puts 193
    agents in the 6-11 band and 44 in the 15-21 band."""
    bins = dunbar_bins(REFERENCE_API_HISTOGRAM, DEFAULT_DUNBAR_BOUNDARIES)
    ok = bins[0] == 193 and bins[2] == 44
    _verdict(
        10,
        "degree band occupancy",
        ok,
        f"bands {list(DEFAULT_DUNBAR_BOUNDARIES)} -> {bins} "
        f"(want first=193, third=44)",
    )


def test_criterion_11_growth_model_reproduces_headline_structure():
    """Twenty seeded runs of the shipped paper-2026 configuration (n=626)
    land, on average, inside every headline band: self-loop fraction
    0.64 +/- 0.05, mean non-self degree 5.0 +/- 1.0, isolate fraction
    0.105 +/- 0.05, giant component 0.66 +/- 0.10, average clustering
    0.37 +/- 0.10, fitted tail exponent in [1.8, 2.6]; under 60 seconds."""
    start = time.perf_counter()
    base = preset("paper-2026")
    seeds = range(20)
    acc = {"self": [], "degree": [], "isolate": [], "giant": [], "cc": [], "gamma": []}
    node_counts = set()
    for seed in seeds:
        snapshot, _ = grow_network(dataclasses.replace(base, seed=seed))
        report = analyze_snapshot(snapshot)
        node_counts.add(report.node_count)
        acc["self"].append(report.self_loop_count / report.node_count)
        acc["degree"].append(report.mean_degree_nonself)
        acc["isolate"].append(report.isolated_nonself / report.node_count)
        acc["giant"].append(report.giant_fraction)
        acc["cc"].append(report.avg_clustering_all)
        assert report.powerlaw_fit is not None, f"no tail fit at seed {seed}"
        acc["gamma"].append(report.powerlaw_fit.gamma)
    elapsed = time.perf_counter() - start

    means = {key: sum(values) / len(values) for key, values in acc.items()}
    bands = {
        "self": (0.59, 0.69),
        "degree": (4.0, 6.0),
        "isolate": (0.055, 0.155),
        "giant": (0.56, 0.76),
        "cc": (0.27, 0.47),
        "gamma": (1.8, 2.6),
    }
    misses = [
        f"{key}={means[key]:.3f} outside [{low}, {high}]"
        for key, (low, high) in bands.items()
        if not low <= means[key] <= high
    ]
    ok = not misses and node_counts == {626} and elapsed < 60.0
    _verdict(
        11,
        "growth model headline structure",
        ok,
        f"n={sorted(node_counts)}, "
        + ", ".join(f"{key}={means[key]:.3f}" for key in bands)
        + (f"; misses: {misses}" if misses else "")
        + f"; {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_12_tail_fit_accuracy_and_model_selection():
    """On 10,000-sample synthetic tails the fitted exponent lands within
    +/- 0.15 of the true value for gamma in {2.1, 2.5, 3.0}, and three-way
    model selection names the generating family in at least 18 of 20
    trials."""
    start = time.perf_counter()
    k_min = 10
    size = 10_000

    exponent_errors = {}
    for offset, gamma in enumerate((2.1, 2.5, 3.0)):
        hist = tail_sampler_power_law(random.Random(101 + offset), gamma, k_min, size)
        fit = fit_heavy_tail(hist, k_min=k_min)
        exponent_errors[gamma] = fit.gamma - gamma
    accurate = all(abs(err) <= 0.15 for err in exponent_errors.values())

    trials = (
        [("power-law", ("power-law", g)) for g in (2.1, 2.5, 2.1, 2.5, 3.0, 2.1, 2.5)]
        + [
            ("exponential", ("exponential", r))
            for r in (0.15, 0.2, 0.15, 0.25, 0.15, 0.2, 0.15)
        ]
        + [
            ("log-normal", ("log-normal", params))
            for params in ((2.8, 0.45), (3.0, 0.6)) * 3
        ]
    )
    correct = 0
    for index, (family, (kind, params)) in enumerate(trials):
        rng = random.Random(index)
        if kind == "power-law":
            hist = tail_sampler_power_law(rng, params, k_min, size)
        elif kind == "exponential":
            hist = tail_sampler_exponential(rng, params, k_min, size)
        else:
            hist = tail_sampler_lognormal(rng, params[0], params[1], k_min, size)
        if fit_heavy_tail(hist, k_min=k_min).best_model == family:
            correct += 1
    elapsed = time.perf_counter() - start

    _verdict(
        12,
        "tail fit accuracy + model selection",
        accurate and correct >= 18,
        "errors "
        + ", ".join(f"gamma {g}: {e:+.3f}" for g, e in exponent_errors.items())
        + f" (tolerance +/-0.15); selection {correct}/20 (need >=18); "
        f"{elapsed:.1f}s",
    )


def test_criterion_13_lossy_scenario_passes_consistency_audit():
    """A 50-agent scenario at 5% packet loss with accept-all policy and
    self-trust probability 0.64, analyzed end to end, raises zero
    consistency-audit findings in under 30 seconds."""
    start = time.perf_counter()
    config = SimConfig(
        agent_count=50,
        arrival_schedule=Distribution.fixed(10.0),
        loss_rate=0.05,
        behavior=BehaviorPolicy(self_trust_probability=0.64),
        seed=11,
        duration=900.0,
    )
    result = run_scenario(config)
    report = analyze_snapshot(result.snapshot)
    findings = consistency_audit(result.snapshot)
    elapsed = time.perf_counter() - start
    ok = findings == [] and report.node_count == 50 and elapsed < 30.0
    _verdict(
        13,
        "lossy scenario consistency audit",
        ok,
        f"nodes={report.node_count}, edges={report.trust_edge_entries}, "
        f"findings={len(findings)}"
        + (f" {[f.check for f in findings]}" if findings else "")
        + f", {elapsed:.2f}s (budget 30s)",
    )
