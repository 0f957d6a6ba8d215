"""Snapshot document model: serialization determinism and validation."""

import copy
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import reference_snapshot_json

from trustnet.analytics.report import analyze_snapshot, consistency_audit
from trustnet.errors import (
    DanglingEdgeError,
    MalformedAddressError,
    SchemaViolationError,
    TrustNetError,
)
from trustnet.overlay import VirtualAddress
from trustnet.snapshot import (
    NetworkView,
    NodeView,
    StatsSnapshot,
)


def sample_snapshot() -> StatsSnapshot:
    return StatsSnapshot(
        generated_at=1234.5,
        requests_served=4,
        networks=[NetworkView(0, "backbone")],
        nodes=[
            NodeView("0:0000.0000.0001", ("coding",), True, 3),
            NodeView("0:0000.0000.0002", (), True, 1),
            NodeView("0:0000.0000.0003", ("writing", "recipes"), False, 2),
        ],
        trust_edges=[
            ("0:0000.0000.0001", "0:0000.0000.0002"),
            ("0:0000.0000.0001", "0:0000.0000.0001"),
            ("0:0000.0000.0001", "0:0000.0000.0003"),
        ],
        summary_trust_links=3,
        requests_per_agent=4 / 3,
    )


class TestSerialization:
    def test_round_trip_preserves_everything(self):
        snap = sample_snapshot()
        again = StatsSnapshot.from_json(snap.to_json())
        assert again.to_dict() == snap.to_dict()

    def test_json_is_deterministic(self):
        assert sample_snapshot().to_json() == sample_snapshot().to_json()

    def test_key_order_is_fixed(self):
        doc = json.loads(sample_snapshot().to_json())
        assert list(doc) == [
            "generated_at",
            "requests_served",
            "requests_per_agent",
            "networks",
            "nodes",
            "trust_edges",
            "summary_trust_links",
        ]
        assert list(doc["nodes"][0]) == ["address", "tags", "online", "trust_links"]
        assert list(doc["trust_edges"][0]) == ["a", "b"]

    def test_ends_with_newline(self):
        assert sample_snapshot().to_json().endswith("}\n")

    def test_write_and_load_path(self, tmp_path):
        snap = sample_snapshot()
        target = tmp_path / "snapshot.json"
        snap.write(target)
        assert StatsSnapshot.read(target).to_dict() == snap.to_dict()
        assert StatsSnapshot.read(str(target)).to_dict() == snap.to_dict()

    def test_load_from_dict_and_string(self):
        snap = sample_snapshot()
        assert StatsSnapshot.from_dict(snap.to_dict()).to_dict() == snap.to_dict()
        assert StatsSnapshot.from_json(snap.to_json()).to_dict() == snap.to_dict()

    def test_summary_may_exceed_edge_list(self):
        doc = sample_snapshot().to_dict()
        doc["summary_trust_links"] = len(doc["trust_edges"]) + 3
        loaded = StatsSnapshot.from_dict(doc)
        assert loaded.summary_trust_links == len(loaded.trust_edges) + 3


class TestValidation:
    def test_rejects_non_object(self):
        with pytest.raises(SchemaViolationError):
            StatsSnapshot.from_dict([1, 2, 3])

    @pytest.mark.parametrize(
        "missing",
        [
            "generated_at",
            "requests_served",
            "networks",
            "nodes",
            "trust_edges",
            "summary_trust_links",
        ],
    )
    def test_missing_required_field(self, missing):
        doc = sample_snapshot().to_dict()
        del doc[missing]
        with pytest.raises(SchemaViolationError, match=missing):
            StatsSnapshot.from_dict(doc)

    def test_requests_per_agent_is_optional(self):
        doc = sample_snapshot().to_dict()
        del doc["requests_per_agent"]
        assert StatsSnapshot.from_dict(doc).requests_per_agent == 0.0

    def test_bool_is_not_an_integer(self):
        doc = sample_snapshot().to_dict()
        doc["requests_served"] = True
        with pytest.raises(SchemaViolationError):
            StatsSnapshot.from_dict(doc)

    def test_negative_counter_rejected(self):
        doc = sample_snapshot().to_dict()
        doc["summary_trust_links"] = -1
        with pytest.raises(SchemaViolationError):
            StatsSnapshot.from_dict(doc)

    def test_online_must_be_boolean(self):
        doc = sample_snapshot().to_dict()
        doc["nodes"][0]["online"] = 1
        with pytest.raises(SchemaViolationError):
            StatsSnapshot.from_dict(doc)

    def test_duplicate_node_address_rejected(self):
        doc = sample_snapshot().to_dict()
        doc["nodes"].append(dict(doc["nodes"][0]))
        with pytest.raises(SchemaViolationError, match="duplicate"):
            StatsSnapshot.from_dict(doc)

    def test_lowercase_address_is_canonicalized(self):
        doc = sample_snapshot().to_dict()
        doc["nodes"][0]["address"] = "0:0000.0000.000a"
        doc["trust_edges"] = []
        loaded = StatsSnapshot.from_dict(doc)
        assert loaded.nodes[0].address == "0:0000.0000.000A"

    def test_malformed_address_raises(self):
        doc = sample_snapshot().to_dict()
        doc["nodes"][0]["address"] = "0:00.00"
        with pytest.raises(MalformedAddressError):
            StatsSnapshot.from_dict(doc)

    def test_dangling_edge_rejected(self):
        doc = sample_snapshot().to_dict()
        doc["trust_edges"].append({"a": "0:0000.0000.0001", "b": "0:0000.0000.00FF"})
        with pytest.raises(DanglingEdgeError, match="00FF"):
            StatsSnapshot.from_dict(doc)

    def test_edge_missing_endpoint_field(self):
        doc = sample_snapshot().to_dict()
        doc["trust_edges"][0] = {"a": "0:0000.0000.0001"}
        with pytest.raises(SchemaViolationError):
            StatsSnapshot.from_dict(doc)

    def test_invalid_json_text(self):
        with pytest.raises(SchemaViolationError, match="JSON"):
            StatsSnapshot.from_json("{not json")

    def test_tags_must_be_strings(self):
        doc = sample_snapshot().to_dict()
        doc["nodes"][0]["tags"] = [7]
        with pytest.raises(SchemaViolationError):
            StatsSnapshot.from_dict(doc)

    @pytest.mark.parametrize(
        "value", [10**400, float("nan"), float("inf"), "1"], ids=["1e400", "nan", "inf", "str"]
    )
    @pytest.mark.parametrize("field", ["generated_at", "requests_per_agent"])
    def test_number_must_be_finite(self, field, value):
        doc = sample_snapshot().to_dict()
        doc[field] = value
        with pytest.raises(SchemaViolationError, match=f"{field} must be a finite number"):
            StatsSnapshot.from_dict(doc)


class TestAddressCanonicaliser:
    @pytest.fixture
    def parsed(self, monkeypatch) -> list:
        """Every text VirtualAddress.from_text is given during the test."""
        texts = []
        from_text = VirtualAddress.from_text

        def counted(cls, text):
            texts.append(text)
            return from_text(text)

        monkeypatch.setattr(VirtualAddress, "from_text", classmethod(counted))
        return texts

    def test_each_distinct_text_is_parsed_once(self, parsed):
        doc = sample_snapshot().to_dict()
        doc["trust_edges"].append({"a": "0:0000.0000.0002", "b": "0:0000.0000.0003"})
        snapshot = StatsSnapshot.from_dict(doc)
        consistency_audit(snapshot, analyze_snapshot(snapshot))
        texts = [node["address"] for node in doc["nodes"]]
        assert parsed == texts

    def test_code_built_snapshot_parses_each_node_text_once(self, parsed):
        snapshot = sample_snapshot()
        consistency_audit(snapshot, analyze_snapshot(snapshot))
        assert parsed == [node.address for node in snapshot.nodes]

    def test_edge_in_other_case_is_canonicalized(self):
        doc = sample_snapshot().to_dict()
        doc["nodes"][1]["address"] = "0:0000.0000.00AB"
        doc["trust_edges"] = [{"a": "0:0000.0000.00ab", "b": "0:0000.0000.0001"}]
        loaded = StatsSnapshot.from_dict(doc)
        assert loaded.trust_edges == [("0:0000.0000.00AB", "0:0000.0000.0001")]

    def test_malformed_b_is_found_before_dangling_a(self):
        doc = sample_snapshot().to_dict()
        doc["trust_edges"].append({"a": "0:0000.0000.00FF", "b": "0:00.00"})
        with pytest.raises(MalformedAddressError):
            StatsSnapshot.from_dict(doc)


def key_paths(doc, prefix=()) -> list[tuple]:
    """Every object key of a document at any depth, through lists too."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    paths = []
    for key, value in items:
        if isinstance(doc, dict):
            paths.append(prefix + (key,))
        if isinstance(value, (dict, list)):
            paths.extend(key_paths(value, prefix + (key,)))
    return paths


SNAPSHOT_DOC = sample_snapshot().to_dict()
numbers = (
    st.integers()
    | st.integers(min_value=2**1024).flatmap(lambda i: st.sampled_from([i, -i]))
    | st.floats()
)
addresses = st.sampled_from(["0:0000.0000.0001", "0:0000.0000.000a", "0:0000.0000.00FF"])
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text() | addresses,
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=8,
)


@given(data=st.data())
@settings(max_examples=500)
def test_snapshot_reader_raises_only_trustnet_errors(data):
    """One key, at any depth, replaced by any JSON value: a snapshot that
    round-trips through to_dict, or a TrustNetError, never another exception."""
    path = data.draw(st.sampled_from(key_paths(SNAPSHOT_DOC)))
    doc = copy.deepcopy(SNAPSHOT_DOC)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    # numbers and addresses also drawn bare, so the fields that read them are hit often
    parent[path[-1]] = data.draw(numbers | addresses | json_values)
    try:
        snapshot = StatsSnapshot.from_dict(doc)
    except TrustNetError:
        return
    assert StatsSnapshot.from_json(snapshot.to_json()).to_dict() == snapshot.to_dict()


# Strings with the characters json escapes (quote, backslash, controls),
# non-ASCII ones and lone surrogates, beside any other code point.
escaped = st.sampled_from('"\\/\x00\x1f\x7f\u2028é日\U0001f600')
texts = st.text(escaped | st.characters(blacklist_categories=()), max_size=6)
floats = st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]) | st.floats()
counts = st.integers(min_value=0, max_value=2**64)
snapshots = st.builds(
    StatsSnapshot,
    generated_at=floats,
    requests_served=counts,
    networks=st.lists(st.builds(NetworkView, counts, texts), max_size=3),
    nodes=st.lists(
        st.builds(
            NodeView, texts, st.lists(texts, max_size=4).map(tuple), st.booleans(), counts
        ),
        max_size=4,
    ),
    trust_edges=st.lists(st.tuples(texts, texts), max_size=4),
    summary_trust_links=counts,
    requests_per_agent=floats,
)


@given(snapshots)
@example(StatsSnapshot(0.0, 0, [], [], [], 0))
@example(StatsSnapshot(math.nan, 2**64, [], [NodeView("", (), False, 0)], [], 0, math.inf))
@settings(max_examples=500)
def test_writer_matches_json_dumps(snapshot):
    assert snapshot.to_json() == reference_snapshot_json(snapshot)
