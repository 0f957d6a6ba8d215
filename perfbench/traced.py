"""The traced run: per-layer metrics of the whole suite.

Per-layer metrics are named by layer, and every traced run reports all of
them, so the traced run covers all three paths whatever the workload:
pipeline-10k, sim-lossy-800 and a shortened registry-udp, each once untraced
and once traced (tracing.py wrappers in the CLI processes, and in the daemon
through runner.py). Unless its definition in README.md says otherwise, a
metric sums its layer's spans over the suite. It also times generate and
analyze at n = 626, 5,000 and 20,000 for the scaling curve. The untraced
figures give the tracing overhead (traced minus untraced).
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path

import common
import offline
import registry_load
from common import median

SCALE_SIZES = (626, 5_000, 20_000)
REGISTRY_TRACE_S = 6.0
REGISTRY_TRACE_CLOSED_OPS = 10_000
CODEC = [f"trustnet.{module}.{op}_packet"
         for module in ("sim", "registry", "server") for op in ("encode", "decode")]

# Metrics that stay unmeasured from outside the program, with the reason.
UNMEASURED = {
    "server.udp_queue_wait_s": "datagrams wait in the kernel receive queue before "
    "recvfrom; no user-space boundary sees when they were enqueued",
}


class Spans:
    """Per-name call counts, inclusive and self seconds, over span files."""

    def __init__(self, files: list[Path]) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self: defaultdict = defaultdict(float)
        self.counters: dict = {}
        self.lock_waits: list[float] = []
        self.lock_holds: list = []
        self.import_s: list[float] = []
        for path in files:
            doc = json.loads(path.read_text())
            covered: defaultdict = defaultdict(float)
            for _, parent, _, start, end in doc["spans"]:
                covered[parent] += end - start
            for span_id, _, name, start, end in doc["spans"]:
                self.calls[name] += 1
                self.total[name] += end - start
                self.self[name] += end - start - covered[span_id]
            for key, value in doc["counters"].items():
                self.counters[key] = self.counters.get(key, 0) + value
            self.lock_waits += doc["lock_waits"]
            self.lock_holds += doc["lock_holds"]
            self.import_s.append(doc["import_s"])

    def s(self, *names: str) -> float:
        return sum(self.total[n] for n in names)

    def n(self, *names: str) -> int:
        return sum(self.calls[n] for n in names)


def _growth_trace(path: Path) -> dict:
    attempts = Counter()
    accepted = 0
    for line in path.read_text().splitlines():
        for attempt in json.loads(line)["attempts"]:
            attempts[attempt["mechanism"]] += 1
            accepted += attempt["accepted"]
    stubs = sum(attempts.values())
    return {"stubs": stubs, "yield": accepted / stubs, "attempts": attempts}


def _scaling(work: Path, seed: int, tally: common.Tally) -> dict:
    """Untraced generate and analyze calls; each figure is main() alone, without start-up."""
    out = {}
    for n in SCALE_SIZES:
        calls = {
            "generate": ["generate", "--preset", "paper-2026", "--set", f"n={n}",
                         "--seed", str(seed), "--out", f"scale-{n}.json"],
            "analyze": ["analyze", f"scale-{n}.json", "--out", f"scale-{n}.metrics.json"],
        }
        for name, args in calls.items():
            timing = work / f"{name}-{n}.timing.json"
            tally.call(f"{name} n={n}", common.run_cli(args, work, timing=timing))
            out[f"scale.{name}_s.n{n}"] = json.loads(timing.read_text())["main_s"]
    return out


def run(seed: int, work: Path):
    """Run the traced suite in `work`; returns (per-layer metrics, figures, tally)."""
    tally = common.Tally()
    spans_dir = work / "spans"
    spans_dir.mkdir()

    import_s = median(common.import_time_s(work) for _ in range(3))

    plain = offline.pipeline_pass(work / "pipeline-plain", seed, tally)
    traced = offline.pipeline_pass(work / "pipeline-traced", seed, tally, spans=spans_dir)
    tally.check("traced pipeline outputs equal untraced", plain["digests"] == traced["digests"])
    drift = common.check_digests("pipeline-10k", seed, plain["digests"])
    tally.check("pipeline outputs equal an earlier run of this seed", not drift, "; ".join(drift))

    sim_plain = offline.sim_pass(work / "sim-plain", seed, tally)
    sim_traced = offline.sim_pass(work / "sim-traced", seed, tally, spans=spans_dir)
    tally.check("traced sim outputs equal untraced", sim_plain["digests"] == sim_traced["digests"])
    offline.check_sim(work / "sim-traced", seed, sim_traced["audit_stdout"], tally)
    drift = common.check_digests("sim-lossy-800", seed, sim_plain["digests"])
    tally.check("sim outputs equal an earlier run of this seed", not drift, "; ".join(drift))

    reg_plain = registry_load.run(work / "registry-plain", seed, REGISTRY_TRACE_S, tally,
                                  setups_wanted=1, closed_ops=REGISTRY_TRACE_CLOSED_OPS)
    reg_traced = registry_load.run(work / "registry-traced", seed, REGISTRY_TRACE_S, tally,
                                   spans=spans_dir / "registry-daemon.json", setups_wanted=1,
                                   closed_ops=REGISTRY_TRACE_CLOSED_OPS)

    scaling = _scaling(work / "scale", seed, tally)

    offline_files = sorted(p for p in spans_dir.glob("*.json") if not p.name.startswith("registry"))
    sim_files = [spans_dir / "sim-simulate.json", spans_dir / "sim-audit.json"]
    every = Spans(sorted(spans_dir.glob("*.json")))
    offline_spans = Spans(offline_files)
    sim_spans = Spans(sim_files)
    events, truth = offline.sim_ground_truth(work / "sim-traced")
    edge_yield = len(offline.sim_edges(work / "sim-traced")) / len(truth)
    growth = _growth_trace(work / "pipeline-traced" / "trace.jsonl")
    charts = work / "pipeline-traced" / "charts"
    holds_tcp = [h for name, h in every.lock_holds if "_tcp_loop" in name]
    tally.check("the traced daemon served /api/stats under its lock", bool(holds_tcp))

    S, N, SELF, C = every.s, every.n, every.self, every.counters
    report = "trustnet.analytics.report."
    metrics = {
        "overlay.codec_calls": N(*CODEC),
        "overlay.codec_s": S(*CODEC),
        "overlay.addr_parse_calls": N("VirtualAddress.from_text"),
        "overlay.addr_parse_s": S("VirtualAddress.from_text"),
        "channel.sign_calls": N("AgentIdentity.sign"),
        "channel.sign_s": S("AgentIdentity.sign"),
        "channel.verify_calls": N("trustnet.channel.verify_signature"),
        "channel.verify_s": S("trustnet.channel.verify_signature"),
        "channel.x25519_s": S("trustnet.channel.exchange",
                              "trustnet.channel.generate_exchange_key"),
        "channel.kdf_s": SELF["trustnet.channel.derive_session"],
        "channel.seal_calls": N("SecureSession.seal"),
        "channel.seal_s": S("SecureSession.seal"),
        "channel.open_calls": N("SecureSession.open"),
        "channel.open_s": S("SecureSession.open"),
        "registry.register_s": S("RegistryService.register"),
        "registry.heartbeat_s": S("RegistryService.heartbeat"),
        "registry.relay_calls": N("RegistryService.relay_handshake"),
        "registry.relay_s": S("RegistryService.relay_handshake"),
        "registry.key_lookup_calls": N("RegistryService.public_key_of"),
        "registry.snapshot_s": S("RegistryService.snapshot"),
        "registry.relay_phase_entries": C.get("registry.relay_phase_entries", 0),
        "registry.edge_yield": edge_yield,
        "snapshot.to_json_s": S("StatsSnapshot.to_json"),
        "snapshot.from_json_s": S("StatsSnapshot.from_json"),
        "snapshot.bytes": (work / "pipeline-traced" / "snapshot.json").stat().st_size,
        "sim.events": C["sim.scheduled"] - C.get("sim.left_in_queue", 0),
        "sim.dispatch_s": SELF["EventLoop.run_until"],
        "sim.queue_peak": C["sim.queue_peak"],
        "sim.select_s": S("_Scenario.select_targets"),
        "sim.handshake_yield": events["handshake-complete"] / events["handshake-start"],
        "sim.drops": events["drop"],
        "growth.attach_s": SELF["trustnet.growth.generate"],
        "growth.tag_draw_calls": N("TagModel.draw"),
        "growth.tag_draw_s": S("TagModel.draw"),
        "growth.replay_s": S("GrowthTrace.replay"),
        "growth.stubs": growth["stubs"],
        "growth.stub_yield": growth["yield"],
        **{f"growth.attempts.{m}": growth["attempts"][m]
           for m in ("propinquity", "preferential", "triadic", "uniform")},
        "analytics.analyze_calls": N("trustnet.cli.analyze_snapshot", report + "analyze_snapshot"),
        "analytics.build_graph_s": S(report + "build_graph"),
        "analytics.degree_s": S(report + "degree_histogram", report + "summarize_histogram",
                                report + "dunbar_bins"),
        "analytics.components_s": S(report + "components"),
        "analytics.clustering_s": S(report + "clustering", report + "random_clustering_baseline"),
        "analytics.tailfit_s": S(report + "fit_heavy_tail"),
        "analytics.tags_s": S(report + "tag_stats"),
        "analytics.address_delta_s": S(report + "address_delta_histogram"),
        "analytics.hub_table_s": S(report + "hub_table"),
        "analytics.audit_s": S("trustnet.cli.consistency_audit"),
        "charts.render_s": S("trustnet.cli.render_report_artifacts"),
        "charts.bytes": sum(p.stat().st_size for p in charts.iterdir()),
        "server.datagrams": N("RegistryServer._handle_datagram"),
        "server.lock_wait_s": sum(every.lock_waits),
        "server.lock_hold_s": sum(h for _, h in every.lock_holds),
        "server.stats_hold_ms": median(holds_tcp) * 1000.0 if holds_tcp else 0.0,
        "server.relay_phase_entries": C.get("server.relay_phase_entries", 0),
        "server.unanswered": reg_plain["unanswered"],
        **{f"server.rtt_p50_us.{k}": reg_plain[f"server.rtt_p50_us.{k}"]
           for k in ("heartbeat", "register", "relay")},
        "cli.import_s": import_s,
        "cli.self_s": offline_spans.self["trustnet.cli.main"],
        "overhead.pipeline_s": traced["pipeline_s"] - plain["pipeline_s"],
        "overhead.simulate_s": sim_traced["simulate_s"] - sim_plain["simulate_s"],
        "overhead.rtt_p50_us.r5k": reg_traced["rtt_p50_us.r5k"] - reg_plain["rtt_p50_us.r5k"],
    }
    sim_calls = {
        "heartbeat": sim_spans.n("RegistryService.heartbeat"),
        "relay": sim_spans.n("RegistryService.relay_handshake"),
        "register": sim_spans.n("RegistryService.register"),
    }
    for kind, count in sim_calls.items():
        metrics[f"mix.sim.{kind}"] = count / sum(sim_calls.values())
        metrics[f"mix.udp.{kind}"] = reg_plain[f"mix.udp.{kind}"]
    for name in ("rtt_p50_us.r1k", "rtt_p99_us.r1k", "rtt_p50_us.r5k", "rtt_p99_us.r5k",
                 "stats_p50_ms", "capacity_ops_per_s"):
        metrics[f"e2e.{name}"] = reg_plain[name]
    for name in ("generate_s", "analyze_s", "pipeline_s"):
        metrics[f"e2e.{name}"] = plain[name]
    for name in ("simulate_s", "audit_s"):
        metrics[f"e2e.{name}"] = sim_plain[name]
    for name in ("late_p99_us.r1k", "late_p99_us.r5k", "busy_share.r1k", "busy_share.r5k",
                 "busy_share.closed"):
        metrics[f"loadgen.{name}"] = reg_plain[f"loadgen.{name}"]
    metrics.update(scaling)

    figures = {
        "unmeasured": UNMEASURED,
        "sim_registry_calls": sim_calls,
        "sim_events": dict(events),
        "traced_import_s": every.import_s,
        "peak_rss_mb": max(plain["rss_mb"], sim_plain["rss_mb"], reg_plain["peak_rss_mb"]),
        "requests": reg_plain["requests"] + reg_traced["requests"],
        "failed_requests": reg_plain["failed_requests"] + reg_traced["failed_requests"],
    }
    return metrics, figures, tally
