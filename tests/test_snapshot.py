"""Snapshot document model: serialization determinism and validation."""

import copy
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import numbers, record_trust, reference_snapshot_json, snapshot_document

from trustnet.analytics.graph import TrustGraph, build_graph
from trustnet.analytics.report import analyze_snapshot, consistency_audit
from trustnet.errors import (
    DanglingEdgeError,
    MalformedAddressError,
    SchemaViolationError,
    TrustNetError,
)
from trustnet.overlay import VirtualAddress
from trustnet.registry import RegistryService
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
        assert snapshot_document(again) == snapshot_document(snap)

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
        assert snapshot_document(StatsSnapshot.read(target)) == snapshot_document(snap)
        assert snapshot_document(StatsSnapshot.read(str(target))) == snapshot_document(snap)

    def test_load_from_dict_and_string(self):
        snap = sample_snapshot()
        assert snapshot_document(
            StatsSnapshot.from_dict(snapshot_document(snap))
        ) == snapshot_document(snap)
        assert snapshot_document(StatsSnapshot.from_json(snap.to_json())) == snapshot_document(snap)

    def test_summary_may_exceed_edge_list(self):
        doc = snapshot_document(sample_snapshot())
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
        doc = snapshot_document(sample_snapshot())
        del doc[missing]
        with pytest.raises(SchemaViolationError, match=missing):
            StatsSnapshot.from_dict(doc)

    def test_requests_per_agent_is_optional(self):
        doc = snapshot_document(sample_snapshot())
        del doc["requests_per_agent"]
        assert StatsSnapshot.from_dict(doc).requests_per_agent == 0.0

    def test_bool_is_not_an_integer(self):
        doc = snapshot_document(sample_snapshot())
        doc["requests_served"] = True
        with pytest.raises(SchemaViolationError):
            StatsSnapshot.from_dict(doc)

    def test_negative_counter_rejected(self):
        doc = snapshot_document(sample_snapshot())
        doc["summary_trust_links"] = -1
        with pytest.raises(SchemaViolationError):
            StatsSnapshot.from_dict(doc)

    def test_online_must_be_boolean(self):
        doc = snapshot_document(sample_snapshot())
        doc["nodes"][0]["online"] = 1
        with pytest.raises(SchemaViolationError):
            StatsSnapshot.from_dict(doc)

    def test_duplicate_node_address_rejected(self):
        doc = snapshot_document(sample_snapshot())
        doc["nodes"].append(dict(doc["nodes"][0]))
        with pytest.raises(SchemaViolationError, match="duplicate"):
            StatsSnapshot.from_dict(doc)

    def test_lowercase_address_is_canonicalized(self):
        doc = snapshot_document(sample_snapshot())
        doc["nodes"][0]["address"] = "0:0000.0000.000a"
        doc["trust_edges"] = []
        loaded = StatsSnapshot.from_dict(doc)
        assert loaded.nodes[0].address == "0:0000.0000.000A"

    def test_malformed_address_raises(self):
        doc = snapshot_document(sample_snapshot())
        doc["nodes"][0]["address"] = "0:00.00"
        with pytest.raises(MalformedAddressError):
            StatsSnapshot.from_dict(doc)

    def test_dangling_edge_rejected(self):
        doc = snapshot_document(sample_snapshot())
        doc["trust_edges"].append({"a": "0:0000.0000.0001", "b": "0:0000.0000.00FF"})
        with pytest.raises(DanglingEdgeError, match="00FF"):
            StatsSnapshot.from_dict(doc)

    def test_edge_missing_endpoint_field(self):
        doc = snapshot_document(sample_snapshot())
        doc["trust_edges"][0] = {"a": "0:0000.0000.0001"}
        with pytest.raises(SchemaViolationError):
            StatsSnapshot.from_dict(doc)

    def test_invalid_json_text(self):
        with pytest.raises(SchemaViolationError, match="JSON"):
            StatsSnapshot.from_json("{not json")

    def test_tags_must_be_strings(self):
        doc = snapshot_document(sample_snapshot())
        doc["nodes"][0]["tags"] = [7]
        with pytest.raises(SchemaViolationError):
            StatsSnapshot.from_dict(doc)

    @pytest.mark.parametrize(
        "value", [10**400, float("nan"), float("inf"), "1"], ids=["1e400", "nan", "inf", "str"]
    )
    @pytest.mark.parametrize("field", ["generated_at", "requests_per_agent"])
    def test_number_must_be_finite(self, field, value):
        doc = snapshot_document(sample_snapshot())
        doc[field] = value
        with pytest.raises(SchemaViolationError, match=f"{field} must be a finite number"):
            StatsSnapshot.from_dict(doc)

    @pytest.mark.parametrize("missing", ["id", "name"])
    def test_network_missing_field_is_named(self, missing):
        doc = snapshot_document(sample_snapshot())
        del doc["networks"][0][missing]
        with pytest.raises(SchemaViolationError) as caught:
            StatsSnapshot.from_dict(doc)
        assert str(caught.value) == f"missing required field 'networks[0].{missing}'"

    def test_first_defect_in_reader_order_is_reported(self):
        doc = snapshot_document(sample_snapshot())
        doc["generated_at"] = "1234.5"
        del doc["nodes"]
        with pytest.raises(SchemaViolationError) as caught:
            StatsSnapshot.from_dict(doc)
        assert str(caught.value) == "generated_at must be a finite number, got str"


class TestRows:
    def test_row_is_an_immutable_tuple(self):
        row = NodeView("0:0000.0000.0001", ("coding",), True, 3)
        assert row == ("0:0000.0000.0001", ("coding",), True, 3)
        assert NetworkView(0, "backbone") == (0, "backbone")
        for name in ("address", "trust_links", "colour"):
            with pytest.raises(AttributeError):
                setattr(row, name, "x")
        assert row.trust_links == 3 and not hasattr(row, "colour")
        assert NodeView.__mro__ == (NodeView, tuple, object)
        assert not hasattr(row, "__dict__")

    def test_snapshots_share_an_unchanged_row(self, monkeypatch):
        rendered = []
        render = NodeView.render

        def counted(row):
            rendered.append(row.address)
            return render(row)

        monkeypatch.setattr(NodeView, "render", counted)
        registry = RegistryService(clock=lambda: 0.0)
        a, b = registry.register(bytes([1]) * 32), registry.register(bytes([2]) * 32)
        first = registry.snapshot()
        first.to_json()
        record_trust(registry, a, a)
        second = registry.snapshot()
        assert second.to_json() == reference_snapshot_json(second)
        assert second.nodes[1] is first.nodes[1]
        assert second.nodes[0] is not first.nodes[0]
        assert rendered == [a.to_text(), b.to_text(), a.to_text()]

    def test_reference_writer_lists_tags(self):
        snap = sample_snapshot()
        doc = snapshot_document(snap)
        assert doc["networks"] == [{"id": 0, "name": "backbone"}]
        assert doc["nodes"][2] == {
            "address": "0:0000.0000.0003",
            "tags": ["writing", "recipes"],
            "online": False,
            "trust_links": 2,
        }
        assert StatsSnapshot.from_dict(doc).nodes == snap.nodes


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

    @pytest.fixture
    def linked(self, monkeypatch) -> list:
        """Every vertex pair TrustGraph.link is given during the test."""
        pairs = []
        link = TrustGraph.link

        def counted(graph, i, j):
            pairs.append((i, j))
            link(graph, i, j)

        monkeypatch.setattr(TrustGraph, "link", counted)
        return pairs

    @staticmethod
    def assert_one_graph(snapshot: StatsSnapshot, linked: list) -> None:
        """The report and the audit share the snapshot's one graph."""
        consistency_audit(snapshot, analyze_snapshot(snapshot))
        assert len(linked) == len(snapshot.trust_edges)
        assert build_graph(snapshot) is build_graph(snapshot)

    def test_each_distinct_text_is_parsed_once(self, parsed, linked):
        doc = snapshot_document(sample_snapshot())
        doc["trust_edges"].append({"a": "0:0000.0000.0002", "b": "0:0000.0000.0003"})
        snapshot = StatsSnapshot.from_dict(doc)
        self.assert_one_graph(snapshot, linked)
        texts = [node["address"] for node in doc["nodes"]]
        assert parsed == texts

    def test_code_built_snapshot_parses_each_node_text_once(self, parsed, linked):
        snapshot = sample_snapshot()
        self.assert_one_graph(snapshot, linked)
        assert parsed == [node.address for node in snapshot.nodes]

    def test_edge_in_other_case_is_canonicalized(self):
        doc = snapshot_document(sample_snapshot())
        doc["nodes"][1]["address"] = "0:0000.0000.00AB"
        doc["trust_edges"] = [{"a": "0:0000.0000.00ab", "b": "0:0000.0000.0001"}]
        loaded = StatsSnapshot.from_dict(doc)
        assert loaded.trust_edges == [("0:0000.0000.00AB", "0:0000.0000.0001")]

    @given(
        address=st.builds(VirtualAddress, st.integers(0, 0xFFFF), st.integers(0, 0xFFFF_FFFF)),
        zeros=st.integers(0, 2),
        lower=st.booleans(),
    )
    @example(address=VirtualAddress(0, 0xAB), zeros=1, lower=False)
    def test_reader_stores_the_canonical_text(self, address, zeros, lower):
        """Lowercase hex and a zero-padded decimal prefix both read as to_text()."""
        canonical = address.to_text()
        prefix, _, groups = canonical.partition(":")
        text = "0" * zeros + prefix + ":" + (groups.lower() if lower else groups)
        doc = snapshot_document(sample_snapshot())
        doc["nodes"] = [{"address": text, "tags": [], "online": True, "trust_links": 2}]
        doc["trust_edges"] = [{"a": text, "b": text}]
        loaded = StatsSnapshot.from_dict(doc)
        assert loaded.nodes[0].address == canonical
        assert loaded.trust_edges == [(canonical, canonical)]
        assert loaded.graph.self_loop_ids == {0}

    def test_malformed_b_is_found_before_dangling_a(self):
        doc = snapshot_document(sample_snapshot())
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


SNAPSHOT_DOC = snapshot_document(sample_snapshot())
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
    round-trips through snapshot_document, or a TrustNetError, never another exception."""
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
    again = StatsSnapshot.from_json(snapshot.to_json())
    assert snapshot_document(again) == snapshot_document(snapshot)


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
