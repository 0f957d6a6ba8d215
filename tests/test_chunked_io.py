"""Document writers render in chunks and the snapshot reader lets go of its input.

The bytes are checked at the chunk boundaries (1,024 entries or lines per
part). The memory bounds are tracemalloc peaks over one call, against the
size of what it writes or against json.loads on the same text; the
simulator's event log is held to what it still holds after a run.
"""

import inspect
import json
import random
import tracemalloc
from dataclasses import replace

import pytest

from _oracles import event_lines, record_trust, snapshot_document, trace_lines
from trustnet.growth import GrowthTrace, generate, preset
from trustnet.overlay import VirtualAddress
from trustnet.registry import RegistryService
from trustnet.sim import (
    BehaviorPolicy, Distribution, EventLog, ScenarioResult, SimConfig, _Scenario,
    run_scenario,
)
from trustnet.snapshot import NetworkView, NodeView, StatsSnapshot

SIZES = [0, 1, 1023, 1024, 1025, 2049]


def synthetic_snapshot(n: int, m: int, seed: int = 5) -> StatsSnapshot:
    rng = random.Random(seed)
    texts = [VirtualAddress(0, i + 1).to_text() for i in range(n)]
    nodes = [
        NodeView(text, tuple(rng.sample(["coding", "writing", "recipes"], rng.randrange(3))),
                 rng.random() < 0.8, rng.randrange(40))
        for text in texts
    ]
    edges = [(rng.choice(texts), rng.choice(texts)) for _ in range(m)] if n else []
    return StatsSnapshot(1.5, 7, [NetworkView(0, "backbone")], nodes, edges, m, 0.25)


def traced_peak(call, *args):
    """(peak bytes allocated during call(*args), its result)."""
    tracemalloc.start()
    try:
        result = call(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", SIZES)
def test_snapshot_chunk_boundaries(n, tmp_path):
    snapshot = synthetic_snapshot(n, n)
    expected = json.dumps(snapshot_document(snapshot), indent=2) + "\n"
    assert snapshot.to_json() == expected
    snapshot.write(tmp_path / "snapshot.json")
    assert (tmp_path / "snapshot.json").read_bytes() == expected.encode("ascii")


@pytest.fixture(scope="module")
def events():
    return generate(replace(preset("paper-2026"), n=max(SIZES), seed=3))[1].events


@pytest.mark.parametrize("n", SIZES)
def test_line_writer_chunk_boundaries(n, events, tmp_path):
    trace = GrowthTrace(events[:n])
    trace.write(tmp_path / "trace.jsonl")
    expected = "\n".join(trace_lines(trace)) + "\n"
    assert (tmp_path / "trace.jsonl").read_bytes() == expected.encode("ascii")
    logged = [{"t": i / 4, "event": "heartbeat", "address": f"0:{i}"} for i in range(n)]
    log = EventLog()
    for event in logged:
        log.append(event)
    result = ScenarioResult(None, None, log, None, None, [])
    assert list(result.events) == logged
    result.write_events(tmp_path / "events.jsonl")
    expected = "\n".join(event_lines(result)) + "\n"
    assert (tmp_path / "events.jsonl").read_bytes() == expected.encode("ascii")


def test_snapshot_write_holds_little_more_than_its_parts(tmp_path):
    """Whole joined sections put the peak at twice the file size."""
    path = tmp_path / "snapshot.json"
    peak, _ = traced_peak(synthetic_snapshot(5000, 10000).write, path)
    assert peak < 1.5 * path.stat().st_size


def test_snapshot_write_streams_its_parts(tmp_path):
    """Holding the list json_parts returns puts the peak at 1.12 times the
    file; writing each part as it is rendered holds one chunk, near 0.44."""
    path = tmp_path / "snapshot.json"
    peak, _ = traced_peak(synthetic_snapshot(5000, 10000).write, path)
    assert peak < 0.6 * path.stat().st_size


def test_trace_write_holds_no_whole_trace(tmp_path):
    """One string of every line, then its encoding, put the peak above twice the file."""
    _, trace = generate(replace(preset("paper-2026"), n=5000, seed=7))
    path = tmp_path / "trace.jsonl"
    peak, _ = traced_peak(trace.write, path)
    assert peak < 1.0 * path.stat().st_size


def lossy_scenario(agent_count: int) -> SimConfig:
    """perfbench's sim-lossy-800 scenario at another size: 5 % loss, tagged agents."""
    return SimConfig(
        agent_count=agent_count,
        arrival_schedule=Distribution.fixed(1.0),
        loss_rate=0.05,
        latency=Distribution.uniform(20.0, 80.0),
        behavior=BehaviorPolicy(self_trust_probability=0.64, target_links=Distribution.fixed(2.0)),
        symmetric_nat_fraction=0.3,
        seed=7,
        duration=agent_count + 120.0,
    )


def test_scenario_keeps_its_event_log_as_the_bytes_it_writes(tmp_path):
    """What the scenario's log() allocated and still holds when the run ends:
    near 2.3 times the file when each event is kept as a dict, near 1.04 as
    rendered blocks and a tail of rendered lines."""
    lines, first = inspect.getsourcelines(_Scenario.log)
    source, logged = _Scenario.log.__code__.co_filename, range(first, first + len(lines))
    tracemalloc.start(4)
    try:
        result = run_scenario(lossy_scenario(200))
        traces = tracemalloc.take_snapshot().traces
    finally:
        tracemalloc.stop()
    kept = sum(
        trace.size for trace in traces
        if any(frame.filename == source and frame.lineno in logged
               for frame in trace.traceback)
    )
    path = tmp_path / "events.jsonl"
    result.write_events(path)
    assert kept <= 1.25 * path.stat().st_size


def test_event_log_reads_back_as_written(tmp_path):
    """Iterating the log gives json.loads of each written line, in order:
    float times, int drop frames and tag lists, across a block boundary."""
    result = run_scenario(lossy_scenario(100))
    path = tmp_path / "events.jsonl"
    result.write_events(path)
    written = [json.loads(line) for line in path.read_bytes().splitlines()]
    assert len(written) > 1024
    assert list(result.events) == written
    kinds = {event["event"] for event in written}
    assert {"drop", "register", "handshake-complete"} <= kinds
    assert all(type(event["t"]) is float for event in written)
    assert all(type(e["frame"]) is int for e in written if e["event"] == "drop")
    assert any(e["tags"] for e in written if e["event"] == "register")
    assert result.ground_truth_edges == {
        tuple(sorted((e["initiator"], e["responder"])))
        for e in written if e["event"] == "handshake-complete"
    }


def test_registry_read_after_one_pair_joins_only_what_changed():
    """A read after one new pair, at 10,000 nodes and 10,000 edges, joins two
    node blocks and the short edge block and copies neither section, near
    0.31 MiB; copying the row and edge lists as well peaks near 0.41 MiB, and
    joining a whole section again near 2.3 MiB."""
    registry, rng = RegistryService(clock=lambda: 0.0), random.Random(11)
    nodes = [registry.register(i.to_bytes(32, "big")) for i in range(10_000)]
    stored = 0
    while stored < 10_000:
        stored += record_trust(registry, *rng.sample(nodes, 2))
    registry.snapshot().json_parts()
    assert record_trust(registry, nodes[0], nodes[-1])
    peak, _ = traced_peak(lambda: registry.snapshot().json_parts())
    assert peak < 0.4 * 2**20


def test_snapshot_read_frees_its_input(tmp_path):
    """Reading the node and edge sections entry by entry holds the text and the
    rows, near 0.7 times the peak of json.loads on the same text (0.61 to 0.71
    on Python 3.10 to 3.13). A reader that parses the whole document, as the
    fallback for other layouts does, is above 1.26; so is a writer's document
    that stops taking the entry-by-entry path."""
    path = tmp_path / "snapshot.json"
    synthetic_snapshot(5000, 15000).write(path)
    text = path.read_text()
    loads_peak, doc = traced_peak(json.loads, text)
    del doc, text
    read_peak, snapshot = traced_peak(StatsSnapshot.read, path)
    assert len(snapshot.trust_edges) == 15000
    assert read_peak < 0.85 * loads_peak
