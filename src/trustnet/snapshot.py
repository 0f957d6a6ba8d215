"""Registry stats snapshot: document model, serialization, validation.

The snapshot is the external contract between the registry, the analytics
pipeline, and the graph generator. Field names are fixed:

    generated_at, requests_served, requests_per_agent, networks,
    nodes[{address, tags, online, trust_links}], trust_edges[{a, b}],
    summary_trust_links

Addresses appear in canonical text form. summary_trust_links is a counter
maintained independently of the edge list, so externally produced documents
may legitimately disagree with len(trust_edges); the loader accepts that and
the consistency audit reports it.

The writer gives exactly json.dumps(snapshot_document(s), indent=2) + "\n",
with the document form of tests/_oracles.py: keys in the order above,
two-space indent, strings ASCII-escaped. The oracle test
test_snapshot.py::test_writer_matches_json_dumps holds it to those bytes.
Rows are plain tuples: a NetworkView is (id, name) and a NodeView is
(address, tags, online, trust_links); BACKBONE is the registry's one network.
The document is a run of ASCII byte parts: NodeView.render and render_edge
render each entry as bytes, and join_entries joins them into blocks of 1,024
entries (_CHUNK), one part each, so no one string or bytes object holds a
whole section. StatsSnapshot.json_parts returns the parts as a list, which
the stats server sends unjoined; write() writes each part as it is rendered,
so it holds one block, not the document. A snapshot may carry both sections
as lists of blocks already joined instead (StatsSnapshot.entries): the
registry keeps them and hands the same block objects to every snapshot until
a row of the block changes. write_lines writes the growth trace and the
simulator's event log the same way, _CHUNK lines per write.

StatsSnapshot.read hands the file's bytes to from_json, which decodes them to
text and reads the text's top-level object key by key with the stdlib
decoder's own scanner. It decodes nodes and trust_edges one entry at a time,
and the row and edge readers that from_dict uses check each entry before the
next is decoded: the reader holds the text, the rows and one entry, never the
parsed document; read frees the bytes once they are decoded. The row reader
keeps one str per distinct tag text.

Every other case goes to from_dict(read_json(text)), which reads the same
text whole. That covers any defect, so an invalid document raises the error
and message it always has, a JSON syntax error before any schema error. It
also covers the valid layouts the stream does not take: trust_edges before
nodes, a repeated top-level key, and a section that is not a list. So a valid
document gives one snapshot by either path. One difference is left. On 3.10
and 3.11 json's nesting limit counts the caller's stack frames too, and the
stream decodes three levels nearer the top, so a key that no reader reads,
nested within three levels of the limit, can be read where json.loads would
refuse it.

A snapshot owns one trust graph, StatsSnapshot.graph, and builds it on first
use. Its vertex table is the snapshot's node table: node i is vertex i, each
address text maps to its node's index, and each distinct text is parsed once,
by VirtualAddress.from_text; a canonical text is not formatted again. The reader
builds the table while it validates, looks each edge end up in it once, and
keeps the table with the vertex ids of the edge ends; the first use of the
graph links those ids, by then without any parsed entry in memory. A
snapshot built in code builds the table on first use too, with the reader's
checks and messages. The graph is kept, so a snapshot's nodes and trust_edges
must not change once it has been analysed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import islice, starmap
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple, Optional, Union

from .errors import DanglingEdgeError, SchemaViolationError, TrustNetError
from .overlay import VirtualAddress


# Between the fields of a list entry, and between the entries of a top-level
# list, in StatsSnapshot.json_parts.
_FIELD = ",\n      "
_SEPARATOR = ",\n    "
_SEPARATOR_BYTES = _SEPARATOR.encode("ascii")
# Entries per part of a rendered section, and lines per write of write_lines.
_CHUNK = 1024


def _batches(items: Iterable[str]) -> Iterator[list[str]]:
    """items in lists of _CHUNK, the last one shorter."""
    items = iter(items)
    while batch := list(islice(items, _CHUNK)):
        yield batch


def join_entries(entries: Iterable[bytes]) -> bytes:
    """The rendered entries joined by _SEPARATOR: one block of a section."""
    return _SEPARATOR_BYTES.join(entries)


def _rendered(entries: Iterable[bytes]) -> Iterator[bytes]:
    """The entries as join_entries blocks, one part per _CHUNK entries."""
    return map(join_entries, _batches(entries))


def _listed(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """A top-level list, as indent=2 lays it out around its chunks of joined entries."""
    before = b"[\n    "
    for chunk in chunks:
        yield before
        yield chunk
        before = _SEPARATOR_BYTES
    yield b"\n  ]" if before is _SEPARATOR_BYTES else b"[]"


class NodeView(NamedTuple):
    """Per-node snapshot row, an immutable tuple, so snapshots may share it."""

    address: str
    tags: tuple[str, ...] = ()
    online: bool = True
    trust_links: int = 0

    def render(self) -> bytes:
        """The row as json.dumps(indent=2) lays it out inside the nodes list."""
        q, field, tags = encode_basestring_ascii, _FIELD, self.tags
        tags = "[\n        " + ",\n        ".join(map(q, tags)) + "\n      ]" if tags else "[]"
        return (
            f'{{\n      "address": {q(self.address)}{field}"tags": {tags}{field}'
            f'"online": {"true" if self.online else "false"}{field}'
            f'"trust_links": {int.__repr__(self.trust_links)}\n    }}'
        ).encode("ascii")


def render_edge(a: str, b: str) -> bytes:
    """The edge {a, b} as json.dumps(indent=2) lays it out inside the trust_edges list."""
    q = encode_basestring_ascii
    return f'{{\n      "a": {q(a)}{_FIELD}"b": {q(b)}\n    }}'.encode("ascii")


class NetworkView(NamedTuple):
    """Per-network snapshot row."""

    id: int
    name: str


BACKBONE = NetworkView(0, "backbone")


@dataclass
class TrustGraph:
    """Undirected trust graph over integer vertex ids: a snapshot's node table.

    ``addresses[i]`` is the parsed address of vertex i, node i of the
    snapshot, and ``index`` maps each address text met so far, as written and
    canonical, to its vertex. ``adjacency[i]`` holds the non-self neighbor ids
    of i, ``self_loop_ids`` the ids with a self-loop, and ``edges`` every
    non-self pair exactly once, in first-insertion order.
    """

    addresses: list[VirtualAddress] = field(default_factory=list)
    adjacency: list[set[int]] = field(default_factory=list)
    self_loop_ids: set[int] = field(default_factory=set)
    edges: list[tuple[int, int]] = field(default_factory=list)
    index: dict[str, int] = field(default_factory=dict)

    # Names such as "nodes[7].address" are formatted only for the error that quotes them.
    def add_node(self, text: Any, i: int) -> str:
        """Enter nodes[i] as the next vertex and return its canonical text."""
        if not isinstance(text, str):
            read_string(text, f"nodes[{i}].address")
        vid = self.index.get(text)
        address = VirtualAddress.from_text(text) if vid is None else self.addresses[vid]
        # A parsed text is canonical unless it has a lowercase hex digit or a
        # leading zero in its decimal prefix; only then is it formatted again.
        canonical = (
            text
            if text.upper() == text and (text[0] != "0" or text[1] == ":")
            else address.to_text()
        )
        if canonical in self.index:
            raise SchemaViolationError(f"duplicate node address {canonical}")
        # Canonical first: a dict keeps the first of two equal keys, so the
        # reader's table holds the snapshot's text, not the document's copy.
        self.index[canonical] = self.index[text] = len(self.addresses)
        self.addresses.append(address)
        return canonical

    def edge(self, a: Any, b: Any, i: int) -> tuple[int, int]:
        """Vertex ids of trust_edges[i]; both ends are parsed before either is looked up."""
        ends = self._find(a, i, "a"), self._find(b, i, "b")
        for end in ends:
            if isinstance(end, str):
                raise DanglingEdgeError(f"trust_edges[{i}] references unknown node {end}")
        return ends

    def _find(self, text: Any, i: int, side: str) -> Union[int, str]:
        """The vertex id of an edge end, or the canonical text of an address no node has."""
        if not isinstance(text, str):
            read_string(text, f"trust_edges[{i}].{side}")
        vid = self.index.get(text)
        if vid is None:
            canonical = VirtualAddress.from_text(text).to_text()
            if canonical not in self.index:
                return canonical
            vid = self.index[text] = self.index[canonical]
        return vid

    def link(self, i: int, j: int) -> None:
        """Add the edge between vertex ids i and j (once, however often called)."""
        if i == j:
            self.self_loop_ids.add(i)
        elif j not in self.adjacency[i]:
            self.adjacency[i].add(j)
            self.adjacency[j].add(i)
            self.edges.append((i, j))

    def _degree_api(self, vid: int) -> int:
        return len(self.adjacency[vid]) + (2 if vid in self.self_loop_ids else 0)

    @property
    def node_count(self) -> int:
        return len(self.addresses)

    @property
    def edge_count_nonself(self) -> int:
        return len(self.edges)

    @property
    def self_loop_count(self) -> int:
        return len(self.self_loop_ids)


@dataclass
class StatsSnapshot:
    """Complete, consistent view of registry state at one instant."""

    generated_at: float
    requests_served: int
    networks: list[NetworkView]
    nodes: list[NodeView]
    trust_edges: list[tuple[str, str]]
    summary_trust_links: int
    requests_per_agent: float = 0.0
    # The node and the edge sections as lists of join_entries blocks of
    # _CHUNK entries, when the snapshot's builder kept them; json_parts
    # renders them otherwise.
    entries: Optional[tuple[list[bytes], list[bytes]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def to_json(self) -> str:
        """The document's text, by the contract in the module docstring."""
        return b"".join(self._parts()).decode("ascii")

    def json_parts(self) -> list[bytes]:
        """The document's bytes in parts, one per _CHUNK entries of a section;
        the blocks of a kept section are passed on without a copy."""
        return list(self._parts())

    def _parts(self) -> Iterator[bytes]:
        """The parts of json_parts, each rendered when it is asked for."""
        q = encode_basestring_ascii
        networks = _rendered(
            f'{{\n      "id": {int.__repr__(net.id)}{_FIELD}"name": {q(net.name)}\n    }}'
            .encode("ascii") for net in self.networks
        )
        if self.entries is None:
            nodes = _rendered(map(NodeView.render, self.nodes))
            edges = _rendered(starmap(render_edge, self.trust_edges))
        else:
            nodes, edges = self.entries
        head = (
            f'{{\n  "generated_at": {json.dumps(self.generated_at)},\n'
            f'  "requests_served": {int.__repr__(self.requests_served)},\n'
            f'  "requests_per_agent": {json.dumps(self.requests_per_agent)},\n'
            f'  "networks": '
        )
        tail = f',\n  "summary_trust_links": {int.__repr__(self.summary_trust_links)}\n}}\n'
        yield head.encode("ascii")
        yield from _listed(networks)
        yield b',\n  "nodes": '
        yield from _listed(nodes)
        yield b',\n  "trust_edges": '
        yield from _listed(edges)
        yield tail.encode("ascii")

    @cached_property
    def graph(self) -> TrustGraph:
        """The trust graph of the module docstring, built on first use and kept."""
        table = vars(self).pop("_table", None)  # what from_dict left
        if table is None:
            graph, ends = TrustGraph(), []
            for i, node in enumerate(self.nodes):
                graph.add_node(node.address, i)
            for i, (a, b) in enumerate(self.trust_edges):
                ends += graph.edge(a, b, i)  # checks both ends and indexes their texts
        else:
            graph, ends = table
        graph.adjacency = [set() for _ in graph.addresses]
        link, pairs = graph.link, iter(ends)
        for i, j in zip(pairs, pairs):
            link(i, j)
        return graph

    def write(self, path: Union[str, Path]) -> None:
        """Write the document, each part as it is rendered."""
        with Path(path).open("wb") as handle:
            handle.writelines(self._parts())

    @classmethod
    def from_dict(cls, doc: Any) -> "StatsSnapshot":
        """Validate and build a snapshot from a parsed document.

        Raises SchemaViolationError on structural problems,
        MalformedAddressError on unparseable addresses, and
        DanglingEdgeError when edges reference unknown nodes.
        """
        fields = read_fields(read_object(doc, "snapshot document"), _FIELDS, _DEFAULTS)
        table = TrustGraph()
        nodes = _read_nodes(table, fields["nodes"])
        ends = _read_ends(table, fields["trust_edges"])
        # The edge tuples are built once the parsed document can be freed.
        doc = fields["nodes"] = fields["trust_edges"] = None
        return cls._built(fields, nodes, table, ends)

    @classmethod
    def _built(cls, fields: dict, nodes: list, table: TrustGraph, ends: list) -> "StatsSnapshot":
        """The snapshot of the read fields, rows, table and edge-end vertex ids."""
        texts, pairs = [node.address for node in nodes], iter(ends)
        edges = [(texts[a], texts[b]) for a, b in zip(pairs, pairs)]
        snapshot = cls(**{**fields, "nodes": nodes, "trust_edges": edges})
        snapshot._table = table, ends  # linked by the first snapshot.graph
        return snapshot

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "StatsSnapshot":
        """from_dict(read_json(text, "snapshot")), read entry by entry where it can be."""
        try:
            if isinstance(text, bytes):
                text = text.decode("utf-8")  # frees bytes no caller holds
            return cls._built(*_streamed(text))
        except (TrustNetError, ValueError, StopIteration, RuntimeError):
            # A defect, or a layout the stream does not take. RuntimeError is
            # too deep a nesting, or the scanner's StopIteration re-raised by
            # the generator of entries. The whole-document reader reads the
            # same text and raises what it raises for a defect.
            return cls.from_dict(read_json(text, "snapshot"))

    @classmethod
    def read(cls, path: Union[str, Path]) -> "StatsSnapshot":
        # Decoded here, so the bytes are freed before the parse on 3.10 too,
        # where a caller's stack keeps a temporary argument until the call returns.
        data = Path(path).read_bytes()
        try:
            text, data = data.decode("utf-8"), None
        except UnicodeDecodeError:
            return cls.from_json(data)  # raises the reader's error for it
        return cls.from_json(text)


def _read_nodes(table: TrustGraph, raws: Iterable[dict]) -> list[NodeView]:
    """The rows of the nodes entries, each entered in table; equal tags share one str."""
    nodes, shared = [], {}  # shared holds each tag text met so far, so only strings
    for i, raw in enumerate(raws):
        for name in NodeView._fields:
            if name not in raw:
                raise SchemaViolationError(f"nodes[{i}] missing {name!r}")
        canonical = table.add_node(raw["address"], i)
        tags, online, trust_links = raw["tags"], raw["online"], raw["trust_links"]
        if not isinstance(tags, list):
            read_list_of(tags, f"nodes[{i}].tags", str)
        try:
            tags = tuple(map(shared.__getitem__, tags))
        except (KeyError, TypeError):  # a text not met before, or an unhashable tag
            read_list_of(tags, f"nodes[{i}].tags", str)
            tags = tuple(map(shared.setdefault, tags, tags))
        if not isinstance(online, bool):
            read_bool(online, f"nodes[{i}].online")
        if type(trust_links) is not int or trust_links < 0:
            read_count(trust_links, f"nodes[{i}].trust_links")
        nodes.append(NodeView(canonical, tags, online, trust_links))
    return nodes


def _read_ends(table: TrustGraph, raws: Iterable[dict]) -> list[int]:
    """The vertex ids a0, b0, a1, b1, ... of the trust_edges entries' ends.

    Each end is one lookup in the table's index; anything else (a text in
    another form, an unknown address, a missing field or a non-string) takes
    TrustGraph.edge, which raises the reader's error for it.
    """
    index, ends = table.index, []
    for i, raw in enumerate(raws):
        try:
            ends += (index[raw["a"]], index[raw["b"]])
        except (KeyError, TypeError):  # TypeError: an unhashable end
            if "a" not in raw or "b" not in raw:
                raise SchemaViolationError(f"trust_edges[{i}] needs fields a and b")
            ends += table.edge(raw["a"], raw["b"], i)
    return ends


# The stdlib decoder's scanner, json.loads's own: scan(s, i) decodes the value
# that starts at s[i] and returns it with the index past it, or raises
# StopIteration(i) when no value starts there. _space(s, i).end() is the index
# past the JSON whitespace at s[i].
_scan = json.JSONDecoder().scan_once
_space = json.decoder.WHITESPACE.match
# The writer's separator and the "{" of the next entry.
_NEXT_ENTRY = _SEPARATOR + "{"


def _streamed(s: str) -> tuple[dict, list[NodeView], TrustGraph, list[int]]:
    """from_dict's fields, rows, table and edge ends for json.loads(s), with
    nodes and trust_edges read entry by entry.

    Raises where json.loads or from_dict would raise, though not always the
    same error or the first one, and also for the valid layouts it does not
    take: a repeated top-level key, a section that is not a list, or
    trust_edges before nodes, whose first edge finds no node.
    """
    doc, nodes, ends = {}, [], []
    table, at = TrustGraph(), [0]
    end = _space(s, 0).end()
    if not s.startswith("{", end):
        raise ValueError("not an object")
    delimiter = ","  # read before each key; the first one is the "{"
    while delimiter == ",":
        end = _space(s, end + 1).end()
        if not s.startswith('"', end):
            raise ValueError("no key")
        key, end = _scan(s, end)
        end = _space(s, end).end()
        if not s.startswith(":", end) or key in doc:
            raise ValueError("no colon, or a repeated key")
        end = _space(s, end + 1).end()
        if key == "nodes" or key == "trust_edges":
            if not s.startswith("[", end):
                raise ValueError("a section that is not a list")
            at[0] = end
            if key == "nodes":
                nodes = _read_nodes(table, _entries(s, at))
            else:
                ends = _read_ends(table, _entries(s, at))
            # Both readers have checked every entry; the section's field reader
            # sees an empty list in its place.
            doc[key], end = [], at[0]
        else:
            doc[key], end = _scan(s, end)
        end = _space(s, end).end()
        delimiter = s[end : end + 1]
    if delimiter != "}" or _space(s, end + 1).end() != len(s):
        raise ValueError("no closing brace, or data after it")
    return read_fields(doc, _FIELDS, _DEFAULTS), nodes, table, ends


def _entries(s: str, at: list[int]) -> Iterator[dict]:
    """Each object of the list that opens at s[at[0]], decoded when it is asked
    for; at[0] is then set past the list's "]"."""
    end = _space(s, at[0] + 1).end()
    more = not s.startswith("]", end)
    while more:
        entry, end = _scan(s, end)
        if type(entry) is not dict:
            raise ValueError("an entry that is not an object")
        yield entry
        if s.startswith(_NEXT_ENTRY, end):
            end += len(_SEPARATOR)
            continue
        end = _space(s, end).end()
        more = s.startswith(",", end)
        if more:
            end = _space(s, end + 1).end()
        elif not s.startswith("]", end):
            raise ValueError("no comma or closing bracket")
    at[0] = end + 1


# The writer of every compact JSON line and body: the bytes of
# json.dumps(doc, separators=(",", ":")), with the encoder built once.
compact_json = json.JSONEncoder(separators=(",", ":")).encode


def write_lines(path: Union[str, Path], lines: Iterable[str]) -> None:
    """Write "\n".join(lines) + "\n" as UTF-8 text, _CHUNK lines per write."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for batch in _batches(lines):
            handle.write("\n".join(batch) + "\n")
        if not handle.tell():
            handle.write("\n")  # no lines: the join is empty, the newline stays


# Readers for input documents. read_json parses every one (config, scenario,
# snapshot, metrics, event-log line, control body) from its raw bytes; the
# others each return the value they checked or raise SchemaViolationError.


def read_json(text: Union[str, bytes], what: str) -> Any:
    """Parse one JSON document; bytes must be UTF-8.

    Undecodable bytes, invalid JSON and nesting too deep for the parser all
    raise SchemaViolationError.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")  # frees bytes no caller holds before the parse
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError covers both decode errors
        raise SchemaViolationError(f"{what} is not valid JSON: {exc}") from exc


def read_fields(doc: dict, readers: dict, defaults: dict, where: str = "") -> dict:
    """Read each named field of doc through its reader, as reader(value, where + name).

    A field absent from doc takes its entry in defaults; without one it is
    missing, and that is a SchemaViolationError. Other keys are ignored.
    """
    values = {}
    for name, reader in readers.items():
        if name in doc:
            values[name] = reader(doc[name], where + name)
        elif name in defaults:
            values[name] = defaults[name]
        else:
            raise SchemaViolationError(f"missing required field {where + name!r}")
    return values


def is_number(value: Any) -> bool:
    """An int or a finite float, not a bool (Python's json reads NaN and Infinity)."""
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, float))
        and abs(value) <= sys.float_info.max  # false for NaN, Infinity, a huge int
    )


def read_number(value: Any, name: str) -> float:
    if not is_number(value):
        raise SchemaViolationError(f"{name} must be a finite number, got {type(value).__name__}")
    return float(value)


def read_count(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaViolationError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise SchemaViolationError(f"{name} may not be negative")
    return value


def read_object(value: Any, name: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaViolationError(f"{name} must be an object, got {type(value).__name__}")
    return value


def read_string(value: Any, name: str) -> str:
    if not isinstance(value, str):
        raise SchemaViolationError(f"{name} must be a string, got {type(value).__name__}")
    return value


def read_optional_string(value: Any, name: str) -> Optional[str]:
    return None if value is None else read_string(value, name)


def read_bool(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaViolationError(f"{name} must be a boolean, got {type(value).__name__}")
    return value


def read_list_of(value: Any, name: str, kind: type) -> Iterable:
    if not isinstance(value, list):
        raise SchemaViolationError(f"{name} must be a list")
    for item in value:
        if not isinstance(item, kind):
            raise SchemaViolationError(
                f"{name} entries must be {kind.__name__}, got {type(item).__name__}"
            )
    return value


def read_strings(value: Any, name: str) -> tuple[str, ...]:
    return tuple(read_list_of(value, name, str))


def _read_networks(value: Any, name: str) -> list[NetworkView]:
    readers = {"id": read_count, "name": read_string}
    return [
        NetworkView(**read_fields(raw, readers, {}, f"{name}[{i}]."))
        for i, raw in enumerate(read_list_of(value, name, dict))
    ]


# The readers of a snapshot document's fields, in the order they are checked;
# _read_nodes and _read_ends read each entry of nodes and trust_edges.
_FIELDS = {
    "generated_at": read_number,
    "requests_served": read_count,
    "requests_per_agent": read_number,
    "networks": _read_networks,
    "nodes": partial(read_list_of, kind=dict),
    "trust_edges": partial(read_list_of, kind=dict),
    "summary_trust_links": read_count,
}
_DEFAULTS = {"requests_per_agent": 0.0}
