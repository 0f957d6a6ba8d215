"""Golden digests: fixed seeds must keep giving the same output bytes.

Each test runs the CLI in-process and compares the SHA-256 of every file it
wrote against a digest recorded from a known-good build. A refactor that
keeps behaviour keeps these digests; a deliberate output change must update
them and say why.
"""

import hashlib
import json

import pytest

from trustnet.cli import main

PAPER_2026 = {
    0: {
        "snapshot": "8ac2ed69bf56170714b59620e5648d855244356d74264b7ac7586a37f2612f1a",
        "trace": "23bde3ed197e7e651b9ad8317b89f0897cd2154463de6141c6df3459d0632ec6",
        "metrics": "930c21044243296b0b6bd3b885a5c7ae06143e8f243fe81c7e16daa3350ed64b",
    },
    7: {
        "snapshot": "d7fe24de66f3f2f888be0fb453a7ff715c808bf691a0e5679ba48e46ee3a3ed9",
        "trace": "9c7729e3cc9e9fd7ec3c1bde746af9619ad188e2da2187658b0beb59cbf1bf52",
        "metrics": "c37fc8044c954a189a1b43f47e72bc0f3610da565a92916b7d88b173e72987b9",
    },
    2026: {
        "snapshot": "899fc9d00010d13cbef2dfa881b1ffa8e4ed6bc3915954a514b1086d032f1e6f",
        "trace": "1fb2423d68ae399365035479269048075db7c84fe8ddb9339d8d6ad74cf2c0a3",
        "metrics": "55643476961be9357c9932b233a223d04aa2a775d161ff5de86c897b313907d9",
    },
}

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


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def analyze_to(snapshot, metrics) -> None:
    assert main(["analyze", str(snapshot), "--out", str(metrics)]) == 0


@pytest.mark.parametrize("seed", sorted(PAPER_2026))
def test_paper_preset_digests(tmp_path, seed):
    snapshot = tmp_path / "snapshot.json"
    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.json"
    code = main(
        [
            "generate",
            "--preset",
            "paper-2026",
            "--seed",
            str(seed),
            "--out",
            str(snapshot),
            "--trace",
            str(trace),
        ]
    )
    assert code == 0
    analyze_to(snapshot, metrics)
    observed = {
        "snapshot": sha256(snapshot),
        "trace": sha256(trace),
        "metrics": sha256(metrics),
    }
    assert observed == PAPER_2026[seed]


def test_lossy_simulation_digests(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(LOSSY_SCENARIO))
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
    observed = {
        "snapshot": sha256(snapshot),
        "events": sha256(events),
        "metrics": sha256(metrics),
    }
    assert observed == LOSSY_DIGESTS
