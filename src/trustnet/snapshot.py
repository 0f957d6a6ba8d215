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
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
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

        canonical_of: dict[str, str] = {}  # address text as written -> canonical text

        # Names such as "nodes[7].tags" are formatted only for the error that quotes them.
        def canonical_address(value: Any, where: str, i: int, field: str) -> str:
            if not isinstance(value, str):
                read_string(value, f"{where}[{i}].{field}")
            if value not in canonical_of:
                canonical_of[value] = VirtualAddress.from_text(value).to_text()
            return canonical_of[value]

        nodes = []
        seen_addresses: set[str] = set()
        for i, raw in enumerate(read_list_of(doc["nodes"], "nodes", dict)):
            for name in ("address", "tags", "online", "trust_links"):
                if name not in raw:
                    raise SchemaViolationError(f"nodes[{i}] missing {name!r}")
            canonical = canonical_address(raw["address"], "nodes", i, "address")
            if canonical in seen_addresses:
                raise SchemaViolationError(f"duplicate node address {canonical}")
            seen_addresses.add(canonical)
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
            a = canonical_address(raw["a"], "trust_edges", i, "a")
            b = canonical_address(raw["b"], "trust_edges", i, "b")
            for endpoint in (a, b):
                if endpoint not in seen_addresses:
                    raise DanglingEdgeError(
                        f"trust_edges[{i}] references unknown node {endpoint}"
                    )
            edges.append((a, b))

        return cls(
            generated_at=generated_at,
            requests_served=requests_served,
            networks=networks,
            nodes=nodes,
            trust_edges=edges,
            summary_trust_links=summary,
            requests_per_agent=requests_per_agent,
        )

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
