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

StatsSnapshot.to_json writes exactly json.dumps(to_dict(), indent=2) + "\n": keys in
the order above, two-space indent, strings ASCII-escaped. The oracle test
test_snapshot.py::test_writer_matches_json_dumps holds it to those bytes.

A snapshot's node table is the trust graph's vertex table: node i is vertex
i, each address text maps to its node's index, and each distinct text is
parsed once, by VirtualAddress.from_text. from_dict builds the table while it
validates. A snapshot built in code builds it on first use, with the reader's
checks and messages, and keeps it; so its nodes and trust_edges must not
change once it has been analysed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterable, Union

from .errors import DanglingEdgeError, SchemaViolationError
from .overlay import VirtualAddress


@dataclass
class NodeView:
    """Per-node snapshot row."""

    address: str
    tags: tuple[str, ...] = ()
    online: bool = True
    trust_links: int = 0

    def to_dict(self) -> dict:
        return {
            "address": self.address,
            "tags": list(self.tags),
            "online": self.online,
            "trust_links": self.trust_links,
        }


@dataclass
class NetworkView:
    """Per-network snapshot row."""

    id: int
    name: str

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name}


class _NodeTable:
    """Node i's parsed address is addresses[i]; index maps each address text
    met so far, as written and canonical, to its node's index."""

    __slots__ = ("addresses", "index")

    def __init__(self) -> None:
        self.addresses: list[VirtualAddress] = []
        self.index: dict[str, int] = {}

    # Names such as "nodes[7].address" are formatted only for the error that quotes them.
    def add_node(self, text: Any, i: int) -> str:
        """Enter nodes[i] and return its canonical text."""
        if not isinstance(text, str):
            read_string(text, f"nodes[{i}].address")
        vid = self.index.get(text)
        address = VirtualAddress.from_text(text) if vid is None else self.addresses[vid]
        canonical = address.to_text()
        if canonical in self.index:
            raise SchemaViolationError(f"duplicate node address {canonical}")
        # Canonical first: a dict keeps the first of two equal keys, so the
        # reader's table holds the snapshot's text, not the document's copy.
        self.index[canonical] = self.index[text] = len(self.addresses)
        self.addresses.append(address)
        return canonical

    def edge(self, a: Any, b: Any, i: int) -> tuple[int, int]:
        """Node indices of trust_edges[i]; both ends are parsed before either is looked up."""
        if isinstance(a, str) and isinstance(b, str):  # a list is not hashable
            try:
                return self.index[a], self.index[b]
            except KeyError:
                pass
        ends = self._find(a, i, "a"), self._find(b, i, "b")
        for end in ends:
            if isinstance(end, str):
                raise DanglingEdgeError(f"trust_edges[{i}] references unknown node {end}")
        return ends

    def _find(self, text: Any, i: int, field: str) -> Union[int, str]:
        """The node index of an edge end, or the canonical text of an address no node has."""
        if not isinstance(text, str):
            read_string(text, f"trust_edges[{i}].{field}")
        vid = self.index.get(text)
        if vid is None:
            canonical = VirtualAddress.from_text(text).to_text()
            if canonical not in self.index:
                return canonical
            vid = self.index[text] = self.index[canonical]
        return vid


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

    def to_dict(self) -> dict:
        return {
            "generated_at": self.generated_at,
            "requests_served": self.requests_served,
            "requests_per_agent": self.requests_per_agent,
            "networks": [net.to_dict() for net in self.networks],
            "nodes": [node.to_dict() for node in self.nodes],
            "trust_edges": [{"a": a, "b": b} for a, b in self.trust_edges],
            "summary_trust_links": self.summary_trust_links,
        }

    def to_json(self) -> str:
        """The document's bytes, by the contract in the module docstring."""
        def listed(items: list[str], depth: int) -> str:  # as indent=2 lays a list out
            inner = "\n" + "  " * (depth + 1)
            return f"[{inner}{(',' + inner).join(items)}\n{'  ' * depth}]" if items else "[]"

        q, field = encode_basestring_ascii, ",\n      "  # between fields of a list entry
        networks = [
            f'{{\n      "id": {int.__repr__(net.id)}{field}"name": {q(net.name)}\n    }}'
            for net in self.networks
        ]
        nodes = [
            f'{{\n      "address": {q(node.address)}{field}"tags": '
            f"{listed([q(tag) for tag in node.tags], 3)}{field}"
            f'"online": {"true" if node.online else "false"}{field}'
            f'"trust_links": {int.__repr__(node.trust_links)}\n    }}'
            for node in self.nodes
        ]
        edges = [f'{{\n      "a": {q(a)}{field}"b": {q(b)}\n    }}' for a, b in self.trust_edges]
        return (
            f'{{\n  "generated_at": {json.dumps(self.generated_at)},\n'
            f'  "requests_served": {int.__repr__(self.requests_served)},\n'
            f'  "requests_per_agent": {json.dumps(self.requests_per_agent)},\n'
            f'  "networks": {listed(networks, 1)},\n'
            f'  "nodes": {listed(nodes, 1)},\n'
            f'  "trust_edges": {listed(edges, 1)},\n'
            f'  "summary_trust_links": {int.__repr__(self.summary_trust_links)}\n}}\n'
        )

    @cached_property
    def node_table(self) -> _NodeTable:
        """The node table of the module docstring, built once per snapshot."""
        table = _NodeTable()
        for i, node in enumerate(self.nodes):
            table.add_node(node.address, i)
        for i, (a, b) in enumerate(self.trust_edges):
            table.edge(a, b, i)
        return table

    def write(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def from_dict(cls, doc: Any) -> "StatsSnapshot":
        """Validate and build a snapshot from a parsed document.

        Raises SchemaViolationError on structural problems,
        MalformedAddressError on unparseable addresses, and
        DanglingEdgeError when edges reference unknown nodes.
        """
        read_object(doc, "snapshot document")
        for name in (
            "generated_at",
            "requests_served",
            "networks",
            "nodes",
            "trust_edges",
            "summary_trust_links",
        ):
            if name not in doc:
                raise SchemaViolationError(f"missing required field {name!r}")
        generated_at = read_number(doc["generated_at"], "generated_at")
        requests_served = read_count(doc["requests_served"], "requests_served")
        summary = read_count(doc["summary_trust_links"], "summary_trust_links")
        requests_per_agent = read_number(
            doc.get("requests_per_agent", 0.0), "requests_per_agent"
        )

        networks = []
        for i, raw in enumerate(read_list_of(doc["networks"], "networks", dict)):
            if "id" not in raw or "name" not in raw:
                raise SchemaViolationError(f"networks[{i}] needs id and name")
            networks.append(
                NetworkView(
                    read_count(raw["id"], f"networks[{i}].id"),
                    read_string(raw["name"], f"networks[{i}].name"),
                )
            )

        table = _NodeTable()
        nodes = []
        for i, raw in enumerate(read_list_of(doc["nodes"], "nodes", dict)):
            for name in ("address", "tags", "online", "trust_links"):
                if name not in raw:
                    raise SchemaViolationError(f"nodes[{i}] missing {name!r}")
            canonical = table.add_node(raw["address"], i)
            tags, online, trust_links = raw["tags"], raw["online"], raw["trust_links"]
            if not (isinstance(tags, list) and all(isinstance(tag, str) for tag in tags)):
                read_list_of(tags, f"nodes[{i}].tags", str)
            if not isinstance(online, bool):
                raise SchemaViolationError(f"nodes[{i}].online must be a boolean")
            if type(trust_links) is not int or trust_links < 0:
                read_count(trust_links, f"nodes[{i}].trust_links")
            nodes.append(NodeView(canonical, tuple(tags), online, trust_links))

        edges = []
        for i, raw in enumerate(read_list_of(doc["trust_edges"], "trust_edges", dict)):
            if "a" not in raw or "b" not in raw:
                raise SchemaViolationError(f"trust_edges[{i}] needs fields a and b")
            a, b = table.edge(raw["a"], raw["b"], i)
            edges.append((nodes[a].address, nodes[b].address))

        snapshot = cls(
            generated_at=generated_at,
            requests_served=requests_served,
            networks=networks,
            nodes=nodes,
            trust_edges=edges,
            summary_trust_links=summary,
            requests_per_agent=requests_per_agent,
        )
        snapshot.node_table = table
        return snapshot

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "StatsSnapshot":
        return cls.from_dict(read_json(text, "snapshot"))

    @classmethod
    def read(cls, path: Union[str, Path]) -> "StatsSnapshot":
        return cls.from_json(Path(path).read_bytes())


# Readers for input documents. read_json parses every one (config, scenario,
# snapshot, metrics, event-log line, control body) from its raw bytes; the
# others each return the value they checked or raise SchemaViolationError.


def read_json(text: Union[str, bytes], what: str) -> Any:
    """Parse one JSON document; bytes must be UTF-8.

    Undecodable bytes, invalid JSON and nesting too deep for the parser all
    raise SchemaViolationError.
    """
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
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


def read_list_of(value: Any, name: str, kind: type) -> Iterable:
    if not isinstance(value, list):
        raise SchemaViolationError(f"{name} must be a list")
    for item in value:
        if not isinstance(item, kind):
            raise SchemaViolationError(
                f"{name} entries must be {kind.__name__}, got {type(item).__name__}"
            )
    return value
