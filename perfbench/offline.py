"""The two offline workloads: `pipeline-10k` and `sim-lossy-800`.

A run repeats the workload's chain of CLI calls on the seed's inputs for the
measured time; each call is one fresh process. The first pass is checked in
full; every later pass must produce byte-identical files (SHA-256), and the
digests are compared with those an earlier run of the same seed recorded.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

from calibrate import HostSpeed
from common import SRC, Tally, check_digests, median, run_cli, sha256_file

PIPELINE_N = 10_000
REPORT_ARTIFACTS = (
    "address_delta_histogram.csv",
    "degree_histogram.svg",
    "degree_histogram_api.csv",
    "degree_histogram_nonself.csv",
    "degree_loglog.svg",
    "dunbar_bins.csv",
)


def scenario(seed: int) -> dict:
    """The lossy overlay scenario: 800 agents on a fixed 1 s arrival clock."""
    return {
        "agent_count": 800,
        "arrival_schedule": {"kind": "fixed", "value": 1.0},
        "loss_rate": 0.05,
        "latency": {"kind": "uniform", "low": 20.0, "high": 80.0},
        "behavior": {
            "self_trust_probability": 0.64,
            "target_links": {"kind": "fixed", "value": 2.0},
        },
        "symmetric_nat_fraction": 0.3,
        "seed": seed,
        "duration": 920.0,
        "ping_marker": f"ping-{seed}",
    }


def _import_trustnet():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import trustnet

    return trustnet


def _digests(directory: Path, names: list[str]) -> dict[str, str]:
    return {name: sha256_file(directory / name) for name in names if (directory / name).is_file()}


def _repeat(seconds: float, min_passes: int, one_pass) -> list:
    """Run passes until the next one would end past `seconds`, at least min_passes."""
    start = time.perf_counter()
    passes = []
    while True:
        began = time.perf_counter()
        passes.append(one_pass(len(passes)))
        took = time.perf_counter() - began
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + took > seconds:
            return passes


# --- pipeline-10k ---


def _span_file(spans: Path | None, name: str) -> Path | None:
    """Where a traced call writes its spans; None runs the call untraced."""
    return None if spans is None else spans / f"{name}.json"


def _calls(tally: Tally, work: Path, calls: dict, spans: Path | None,
           speed: HostSpeed | None, pings: dict | None = None) -> dict:
    """Run named CLI calls in order: {name: (wall seconds, relative time, result)}.

    With `speed`, each call's wall time is also divided by the calibrations
    run right before and right after it. `pings` maps a call to its pings file.
    """
    done = {}
    for name, args in calls.items():
        result = tally.call(name, run_cli(args, work, spans=_span_file(spans, name),
                                          pings=(pings or {}).get(name)))
        relative = result.wall_s / speed.after_call() if speed is not None else None
        done[name] = (result.wall_s, relative, result)
    return done


def pipeline_pass(work: Path, seed: int, tally: Tally, spans: Path | None = None,
                  speed: HostSpeed | None = None) -> dict:
    """generate -> analyze --out -> report --charts; returns per-call figures."""
    done = _calls(tally, work, {
        "pipeline-generate": ["generate", "--preset", "paper-2026", "--set", f"n={PIPELINE_N}",
                              "--seed", str(seed), "--out", "snapshot.json",
                              "--trace", "trace.jsonl"],
        "pipeline-analyze": ["analyze", "snapshot.json", "--out", "metrics.json"],
        "pipeline-report": ["report", "metrics.json", "--charts", "charts"],
    }, spans, speed)
    gen, ana, rep = done.values()
    names = ["snapshot.json", "trace.jsonl", "metrics.json"] + [
        f"charts/{name}" for name in REPORT_ARTIFACTS
    ]
    figures = {
        "generate_s": gen[0],
        "analyze_s": ana[0],
        "report_s": rep[0],
        "pipeline_s": gen[0] + ana[0] + rep[0],
        "rss_mb": max(call[2].rss_mb for call in done.values()),
        "digests": _digests(work, names),
    }
    if speed is not None:
        figures["analyze_rel"] = ana[1]
        figures["pipeline_rel"] = gen[1] + ana[1] + rep[1]
    return figures


def check_pipeline(work: Path, tally: Tally) -> None:
    """Replay, audit, histogram totals and the report's six artifacts."""
    trustnet = _import_trustnet()
    from trustnet.analytics import consistency_audit
    from trustnet.growth import GrowthTrace

    snapshot = trustnet.StatsSnapshot.from_json((work / "snapshot.json").read_text())
    replayed = GrowthTrace.read(work / "trace.jsonl").replay()
    tally.check("trace replay equals the snapshot", replayed.to_json() == snapshot.to_json())
    findings = consistency_audit(snapshot)
    tally.check("consistency audit finds nothing", not findings, "; ".join(map(str, findings)))
    metrics = json.loads((work / "metrics.json").read_text())
    for name in ("degree_histogram_api", "degree_histogram_nonself"):
        total = sum(metrics[name].values())
        tally.check(f"{name} sums to {PIPELINE_N}", total == PIPELINE_N, f"sums to {total}")
    missing = [n for n in REPORT_ARTIFACTS if not (work / "charts" / n).is_file()]
    tally.check("report writes its six artifacts", not missing, f"missing {missing}")


# --- sim-lossy-800 ---


def sim_pass(work: Path, seed: int, tally: Tally, spans: Path | None = None,
             speed: HostSpeed | None = None) -> dict:
    """simulate -> analyze --audit; returns per-call figures."""
    work.mkdir(parents=True, exist_ok=True)
    (work / "scenario.json").write_text(json.dumps(scenario(seed), indent=2))
    done = _calls(tally, work, {
        "sim-simulate": ["simulate", "--config", "scenario.json", "--out", "sim.json",
                         "--events", "sim.events.jsonl"],
        "sim-audit": ["analyze", "sim.json", "--audit"],
    }, spans, speed, pings={"sim-simulate": work / "pings.json"})
    sim, audit = done.values()
    figures = {
        "simulate_s": sim[0],
        "audit_s": audit[0],
        "rss_mb": max(sim[2].rss_mb, audit[2].rss_mb),
        "audit_stdout": audit[2].stdout,
        "digests": _digests(work, ["sim.json", "sim.events.jsonl"]),
    }
    if speed is not None:
        figures["audit_rel"] = audit[1]
        figures["sim_audit_rel"] = sim[1] + audit[1]
    return figures


def sim_ground_truth(work: Path) -> tuple[Counter, set]:
    """Event counts by kind, and the pairs of completed handshakes."""
    counts: Counter = Counter()
    truth = set()
    for line in (work / "sim.events.jsonl").read_text().splitlines():
        event = json.loads(line)
        counts[event["event"]] += 1
        if event["event"] == "handshake-complete":
            truth.add(tuple(sorted((event["initiator"], event["responder"]))))
    return counts, truth


def sim_edges(work: Path) -> list[tuple[str, str]]:
    snapshot = json.loads((work / "sim.json").read_text())
    return [tuple(sorted((e["a"], e["b"]))) for e in snapshot["trust_edges"]]


def check_sim(work: Path, seed: int, audit_stdout: str, tally: Tally) -> None:
    """Clean audit, registry edges within ground truth, every ping decrypts."""
    findings = [line for line in audit_stdout.splitlines() if line.startswith("audit:")]
    tally.check("audit prints no findings", findings == ["audit: no findings"], "; ".join(findings))
    _, truth = sim_ground_truth(work)
    extra = [edge for edge in sim_edges(work) if edge not in truth]
    tally.check("every registry edge is a ground-truth edge", not extra,
                f"{len(extra)} extra, e.g. {extra[:3]}")
    pings = json.loads((work / "pings.json").read_text())
    marker = scenario(seed)["ping_marker"]
    wrong = [p for p in pings if p[2] != marker]
    tally.check("every ping decrypts to its marker", bool(pings) and not wrong,
                f"{len(pings)} pings, {len(wrong)} wrong")


# --- runs ---


def _determinism(workload: str, seed: int, passes: list[dict], tally: Tally) -> dict:
    first = passes[0]["digests"]
    for k, p in enumerate(passes[1:], start=1):
        changed = sorted(n for n in first.keys() | p["digests"].keys()
                         if first.get(n) != p["digests"].get(n))
        tally.check(f"pass {k} outputs equal pass 0", not changed, f"differs: {changed}")
    drift = check_digests(workload, seed, first)
    tally.check("outputs equal an earlier run of this seed", not drift, "; ".join(drift))
    return first


def run_pipeline(work: Path, seed: int, seconds: float, tally: Tally) -> dict:
    speed = HostSpeed()

    def one(k):
        return pipeline_pass(work / f"pass-{k}", seed, tally, speed=speed)

    passes = _repeat(seconds, 3, one)
    check_pipeline(work / "pass-0", tally)
    digests = _determinism("pipeline-10k", seed, passes, tally)
    return {
        "passes": len(passes),
        "generate_s": median(p["generate_s"] for p in passes),
        "analyze_s": median(p["analyze_s"] for p in passes),
        "report_s": median(p["report_s"] for p in passes),
        "pipeline_s": median(p["pipeline_s"] for p in passes),
        "analyze_rel": median(p["analyze_rel"] for p in passes),
        "pipeline_rel": median(p["pipeline_rel"] for p in passes),
        "calib_s": median(speed.samples),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
        "digests": digests,
    }


def run_sim(work: Path, seed: int, seconds: float, tally: Tally) -> dict:
    speed = HostSpeed()

    def one(k):
        return sim_pass(work / f"pass-{k}", seed, tally, speed=speed)

    passes = _repeat(seconds, 3, one)
    check_sim(work / "pass-0", seed, passes[0]["audit_stdout"], tally)
    digests = _determinism("sim-lossy-800", seed, passes, tally)
    return {
        "passes": len(passes),
        "simulate_s": median(p["simulate_s"] for p in passes),
        "audit_s": median(p["audit_s"] for p in passes),
        "sim_audit_s": median(p["simulate_s"] + p["audit_s"] for p in passes),
        "audit_rel": median(p["audit_rel"] for p in passes),
        "sim_audit_rel": median(p["sim_audit_rel"] for p in passes),
        "calib_s": median(speed.samples),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
        "digests": digests,
    }
