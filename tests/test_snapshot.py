"""Snapshot document model: serialization determinism and validation."""

import copy
import json
import math
from dataclasses import replace

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
    BlockList,
    NetworkView,
    NodeView,
    StatsSnapshot,
    read_json,
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


def outcome(read, source):
    """What read(source) gives: the snapshot's text, or the class and message it raises."""
    try:
        return read(source).to_json()
    except TrustNetError as exc:
        return type(exc), str(exc)


def read_whole(text):
    """The whole-document reader: from_dict of the parsed text."""
    return StatsSnapshot.from_dict(read_json(text, "snapshot"))


def readers_agree(text: str, path) -> object:
    """The outcome of read_whole(text), once from_json (of the text and of its
    UTF-8 bytes) and read (of the text written to path) have given the same."""
    path.write_bytes(text.encode("utf-8"))
    expected = outcome(read_whole, text)
    assert outcome(StatsSnapshot.from_json, text) == expected
    assert outcome(StatsSnapshot.from_json, text.encode("utf-8")) == expected
    assert outcome(StatsSnapshot.read, path) == expected
    return expected


@pytest.fixture
def read_all(tmp_path):
    """read_all(text): readers_agree on a file in tmp_path."""
    return lambda text: readers_agree(text, tmp_path / "snapshot.json")


@pytest.fixture
def read_error(read_all):
    """read_error(doc, kind, match): the error from_dict raises for doc, once
    the readers of its JSON text have raised the same class and message."""

    def read_error(doc, kind=SchemaViolationError, match=None):
        with pytest.raises(kind, match=match) as caught:
            StatsSnapshot.from_dict(doc)
        assert read_all(json.dumps(doc, indent=2)) == (type(caught.value), str(caught.value))
        return caught.value

    return read_error


class TestValidation:
    def test_rejects_non_object(self, read_error):
        read_error([1, 2, 3])

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
    def test_missing_required_field(self, missing, read_error):
        doc = snapshot_document(sample_snapshot())
        del doc[missing]
        read_error(doc, match=missing)

    def test_requests_per_agent_is_optional(self, read_all):
        doc = snapshot_document(sample_snapshot())
        del doc["requests_per_agent"]
        assert StatsSnapshot.from_dict(doc).requests_per_agent == 0.0
        expected = replace(sample_snapshot(), requests_per_agent=0.0)
        assert read_all(json.dumps(doc)) == expected.to_json()

    def test_bool_is_not_an_integer(self, read_error):
        doc = snapshot_document(sample_snapshot())
        doc["requests_served"] = True
        read_error(doc)

    def test_negative_counter_rejected(self, read_error):
        doc = snapshot_document(sample_snapshot())
        doc["summary_trust_links"] = -1
        read_error(doc)

    def test_online_must_be_boolean(self, read_error):
        doc = snapshot_document(sample_snapshot())
        doc["nodes"][0]["online"] = 1
        read_error(doc)

    def test_duplicate_node_address_rejected(self, read_error):
        doc = snapshot_document(sample_snapshot())
        doc["nodes"].append(dict(doc["nodes"][0]))
        read_error(doc, match="duplicate")

    def test_lowercase_address_is_canonicalized(self, read_all):
        doc = snapshot_document(sample_snapshot())
        doc["nodes"][0]["address"] = "0:0000.0000.000a"
        doc["trust_edges"] = []
        loaded = StatsSnapshot.from_dict(doc)
        assert loaded.nodes[0].address == "0:0000.0000.000A"
        assert read_all(json.dumps(doc)) == loaded.to_json()

    def test_malformed_address_raises(self, read_error):
        doc = snapshot_document(sample_snapshot())
        doc["nodes"][0]["address"] = "0:00.00"
        read_error(doc, MalformedAddressError)

    def test_dangling_edge_rejected(self, read_error):
        doc = snapshot_document(sample_snapshot())
        doc["trust_edges"].append({"a": "0:0000.0000.0001", "b": "0:0000.0000.00FF"})
        read_error(doc, DanglingEdgeError, match="00FF")

    def test_edge_missing_endpoint_field(self, read_error):
        doc = snapshot_document(sample_snapshot())
        doc["trust_edges"][0] = {"a": "0:0000.0000.0001"}
        read_error(doc)

    def test_invalid_json_text(self, read_all):
        kind, message = read_all("{not json")
        assert kind is SchemaViolationError and "JSON" in message

    def test_tags_must_be_strings(self, read_error):
        doc = snapshot_document(sample_snapshot())
        doc["nodes"][0]["tags"] = [7]
        read_error(doc)

    @pytest.mark.parametrize(
        "value", [10**400, float("nan"), float("inf"), "1"], ids=["1e400", "nan", "inf", "str"]
    )
    @pytest.mark.parametrize("field", ["generated_at", "requests_per_agent"])
    def test_number_must_be_finite(self, field, value, read_error):
        doc = snapshot_document(sample_snapshot())
        doc[field] = value
        read_error(doc, match=f"{field} must be a finite number")

    @pytest.mark.parametrize("missing", ["id", "name"])
    def test_network_missing_field_is_named(self, missing, read_error):
        doc = snapshot_document(sample_snapshot())
        del doc["networks"][0][missing]
        error = read_error(doc)
        assert str(error) == f"missing required field 'networks[0].{missing}'"

    def test_first_defect_in_reader_order_is_reported(self, read_error):
        doc = snapshot_document(sample_snapshot())
        doc["generated_at"] = "1234.5"
        del doc["nodes"]
        error = read_error(doc)
        assert str(error) == "generated_at must be a finite number, got str"


def whole_reader_unused(doc):
    raise AssertionError("the whole-document reader was called")


class TestStreamedReader:
    """Layouts and defects that only the entry-by-entry reader of from_json meets."""

    @pytest.mark.parametrize(
        "layout",
        [None, {"separators": (",", ":")}, {"indent": 4}, {"indent": 2, "sort_keys": True}],
        ids=["writer", "compact", "indent4", "sort_keys"],
    )
    def test_layout_is_read_entry_by_entry(self, layout, read_all, monkeypatch):
        expected = sample_snapshot().to_json()
        if layout is not None:
            text = json.dumps(snapshot_document(sample_snapshot()), **layout)
        else:
            text = expected
        assert read_all(text) == expected
        monkeypatch.setattr(StatsSnapshot, "from_dict", whole_reader_unused)
        assert StatsSnapshot.from_json(text).to_json() == expected

    def test_edges_before_nodes(self, read_all):
        doc = snapshot_document(sample_snapshot())
        edges_first = {"trust_edges": doc.pop("trust_edges"), **doc}
        assert read_all(json.dumps(edges_first, indent=2)) == sample_snapshot().to_json()
        edges_first["trust_edges"].append({"a": "0:0000.0000.0001", "b": "0:0000.0000.00FF"})
        kind, message = read_all(json.dumps(edges_first, indent=2))
        assert kind is DanglingEdgeError and "00FF" in message

    def test_repeated_key_the_last_one_wins(self, read_all):
        edge = ("0:0000.0000.0001", "0:0000.0000.0002")
        text = replace(sample_snapshot(), trust_edges=[edge]).to_json()
        node = '{"address": "0:0000.0000.0009", "tags": [], "online": true, "trust_links": 0}'
        assert read_all(f'{{"nodes": [{node}], "generated_at": null,' + text[1:]) == text
        # A last, empty nodes section leaves every edge dangling.
        kind, _ = read_all(text[: -len("\n}\n")] + ',\n  "nodes": []\n}\n')
        assert kind is DanglingEdgeError

    @pytest.mark.parametrize("section", ["nodes", "trust_edges"])
    @pytest.mark.parametrize("value", [None, {}, "[]", [1]], ids=["null", "object", "str", "int"])
    def test_section_that_is_no_list_of_objects(self, section, value, read_error):
        doc = snapshot_document(sample_snapshot())
        doc[section] = value
        read_error(doc, match=section)

    def test_too_deep_a_tag_takes_the_recursion_error(self, read_all):
        depth = 100_000
        text = sample_snapshot().to_json().replace('"coding"', "[" * depth + "]" * depth, 1)
        kind, message = read_all(text)
        assert kind is SchemaViolationError and "recursion" in message

    @pytest.mark.parametrize("extra", ["x", "{}", "}", "\n\n[]"])
    def test_data_after_the_closing_brace(self, extra, read_all):
        kind, message = read_all(sample_snapshot().to_json() + extra)
        assert kind is SchemaViolationError and "Extra data" in message

    @pytest.mark.parametrize(
        "after", ["", "]", ",", ",\n    ", ",\n    {", " x", ",]"],
        ids=["nothing", "bracket", "comma", "separator", "brace", "junk", "trailing-comma"],
    )
    def test_text_that_ends_after_the_first_node(self, after, read_all):
        text = sample_snapshot().to_json()
        first_node = text[: text.index("}", text.index('"nodes"')) + 1]
        kind, message = read_all(first_node + after)
        assert kind is SchemaViolationError and message.startswith("snapshot is not valid JSON")

    def test_junk_in_place_of_a_closing_bracket(self, read_all):
        text = sample_snapshot().to_json()
        kind, message = read_all(text.replace('\n  ],\n  "trust_edges"', '\n  x,\n  "trust_edges"'))
        assert kind is SchemaViolationError and message.startswith("snapshot is not valid JSON")

    def test_syntax_error_wins_over_an_earlier_schema_error(self, read_all):
        doc = snapshot_document(sample_snapshot())
        doc["nodes"][0]["online"] = 1
        kind, message = read_all(json.dumps(doc, indent=2)[: -len("\n}")] + ",\n}")
        assert kind is SchemaViolationError and message.startswith("snapshot is not valid JSON")

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "snapshot.json"
        path.write_bytes(b'{"nodes": "\xff"}')
        expected = outcome(read_whole, path.read_bytes())
        assert expected[0] is SchemaViolationError and "utf-8" in expected[1]
        assert outcome(StatsSnapshot.from_json, path.read_bytes()) == expected
        assert outcome(StatsSnapshot.read, path) == expected

    def test_equal_tags_share_one_string(self):
        doc = snapshot_document(sample_snapshot())
        doc["nodes"][1]["tags"] = ["writing", "coding"]
        nodes = StatsSnapshot.from_json(json.dumps(doc)).nodes
        assert nodes[1].tags[0] is nodes[2].tags[0] and nodes[1].tags[1] is nodes[0].tags[0]


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

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
    def test_block_list_reads_as_the_list_of_its_blocks(self, n):
        items = [("item", i) for i in range(n)]
        blocks = tuple(items[k : k + 1024] for k in range(0, n, 1024))
        view = BlockList(blocks, tuple(b"" for _ in blocks))
        assert len(view) == n
        for i in range(-n, n):
            assert view[i] is items[i]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                view[i]
        assert list(view) == items and list(iter(view)) == items
        assert view == items and items == view and view == BlockList(blocks, ())
        longer, other = items + [("item", n)], [("other", i) for i in range(n)]
        assert view != longer and longer != view
        assert n == 0 or (view != other and other != view and view != items[:-1])
        assert view[1:3] == items[1:3]
        with pytest.raises(TypeError):
            view[0] = ("item", 0)
        with pytest.raises(TypeError):
            del view[0]

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

    def test_edge_in_other_case_is_canonicalized(self, read_all):
        doc = snapshot_document(sample_snapshot())
        doc["nodes"][1]["address"] = "0:0000.0000.00AB"
        doc["trust_edges"] = [{"a": "0:0000.0000.00ab", "b": "0:0000.0000.0001"}]
        loaded = StatsSnapshot.from_dict(doc)
        assert loaded.trust_edges == [("0:0000.0000.00AB", "0:0000.0000.0001")]
        assert read_all(json.dumps(doc)) == loaded.to_json()

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

    def test_malformed_b_is_found_before_dangling_a(self, read_error):
        doc = snapshot_document(sample_snapshot())
        doc["trust_edges"].append({"a": "0:0000.0000.00FF", "b": "0:00.00"})
        read_error(doc, MalformedAddressError)


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


# Documents near the writer's: valid, or with a duplicate, malformed, dangling
# or ill-typed value here and there.
node_addresses = st.sampled_from(
    ["0:0000.0000.0001", "0:0000.0000.000a", "00:0000.0000.0002", "1:0001.0000.0003", "0:00"]
)
documents = st.fixed_dictionaries(
    {
        "generated_at": st.sampled_from([0, 1234.5, -0.0, 1e308]),
        "requests_served": st.sampled_from([0, 4, 2**64, -1]),
        "requests_per_agent": st.sampled_from([0.0, 4 / 3]),
        "networks": st.just([{"id": 0, "name": "backbone"}]),
        "nodes": st.lists(
            st.fixed_dictionaries(
                {
                    "address": node_addresses,
                    "tags": st.lists(st.sampled_from(["coding", "é", "日"]), max_size=3)
                    | st.sampled_from([[7], "coding"]),
                    "online": st.booleans() | st.just(1),
                    "trust_links": st.integers(0, 5),
                }
            ),
            max_size=4,
        ),
        "trust_edges": st.lists(
            st.fixed_dictionaries({"a": node_addresses, "b": node_addresses}), max_size=4
        ),
        "summary_trust_links": st.integers(0, 5),
    }
)
layouts = st.fixed_dictionaries(
    {
        "indent": st.sampled_from([None, 0, 2, 4, "\t"]),
        "separators": st.sampled_from([None, (",", ":"), (" ,\r", " : ")]),
        "sort_keys": st.booleans(),
        "ensure_ascii": st.booleans(),
    }
)


@given(
    doc=documents, data=st.data(), layout=layouts, around=st.sampled_from(["", " \n", "\t\r\n "])
)
@settings(max_examples=300)
def test_every_layout_reads_as_the_whole_document(doc, data, layout, around, tmp_path_factory):
    """In any key order and layout, from_json and read give what from_dict of
    the parsed text gives: the same snapshot, or the same error."""
    keys = data.draw(st.permutations(sorted(doc)))
    if data.draw(st.booleans()):
        keys.remove("requests_per_agent")
    text = around + json.dumps({key: doc[key] for key in keys}, **layout) + around
    readers_agree(text, tmp_path_factory.getbasetemp() / "layout.json")
