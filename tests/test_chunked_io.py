"""Document writers render in chunks and the snapshot reader lets go of its input.

The bytes are checked at the chunk boundaries (1,024 entries or lines per
part). The memory bounds are tracemalloc peaks over one call, against the
size of what it writes or against json.loads on the same text.
"""

import json
import random
import tracemalloc
from dataclasses import replace

import pytest

from _oracles import event_lines, snapshot_document, trace_lines
from trustnet.growth import GrowthTrace, generate, preset
from trustnet.overlay import VirtualAddress
from trustnet.sim import ScenarioResult
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
    log = [{"t": i / 4, "event": "heartbeat", "address": f"0:{i}"} for i in range(n)]
    result = ScenarioResult(None, None, log, None, None, [])
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
