"""Trust-graph construction and structural metrics.

All metrics are pure functions of the graph. A snapshot owns its one
TrustGraph (defined in trustnet.snapshot, where vertex i is node i), builds
it on first use and keeps it, so the report and the audit share it. The
graph keeps one integer core: adjacency sets of ids, the ids carrying a
self-loop, and an ``edges`` list holding each undirected non-self pair
exactly once.
Metrics read that core directly instead of re-deduplicating; self-loops
enter only the "api" degree mode (where each one adds 2, matching the
registry's trust_links convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import BadBoundariesError, DegenerateGraphError
from ..snapshot import StatsSnapshot, TrustGraph

ADDRESS_DELTA_WITHIN = 10
HUB_TABLE_SIZE = 10


def build_graph(snapshot: StatsSnapshot) -> TrustGraph:
    """The snapshot's own trust graph: vertex i is node i, edges deduplicated.

    The first call links the trust edges over the snapshot's node table;
    later calls return the same graph. Differently-written texts of one
    address are one vertex, and an edge end that names no node raises
    DanglingEdgeError.
    """
    return snapshot.graph


# --- degrees ---


def degree_histogram(graph: TrustGraph, mode: str = "nonself") -> dict[int, int]:
    """Histogram k -> node count; mode 'api' adds 2 per self-loop."""
    if mode not in ("api", "nonself"):
        raise ValueError(f"unknown degree mode {mode!r}")
    histogram: dict[int, int] = {}
    for vid, adjacent in enumerate(graph.adjacency):
        k = graph._degree_api(vid) if mode == "api" else len(adjacent)
        histogram[k] = histogram.get(k, 0) + 1
    return dict(sorted(histogram.items()))


@dataclass(frozen=True)
class DegreeSummary:
    """Summary statistics of a degree histogram."""

    histogram: dict[int, int]
    total: int
    mean: float
    median: int
    mode: int
    max: int
    isolated: int


def summarize_histogram(histogram: dict[int, int]) -> DegreeSummary:
    """Mean, lower median, smallest mode, max, and isolated count."""
    cleaned = {int(k): int(n) for k, n in histogram.items() if n > 0}
    total = sum(cleaned.values())
    if total == 0:
        return DegreeSummary({}, 0, 0.0, 0, 0, 0, 0)
    mean = sum(k * n for k, n in cleaned.items()) / total
    # lower median: smallest k whose cumulative count reaches ceil(total/2)
    half = (total + 1) // 2
    running = 0
    median = 0
    for k in sorted(cleaned):
        running += cleaned[k]
        if running >= half:
            median = k
            break
    peak = max(cleaned.values())
    mode = min(k for k, n in cleaned.items() if n == peak)
    return DegreeSummary(
        histogram=dict(sorted(cleaned.items())),
        total=total,
        mean=mean,
        median=median,
        mode=mode,
        max=max(cleaned),
        isolated=cleaned.get(0, 0),
    )


# --- components ---


@dataclass(frozen=True)
class ComponentCensus:
    """Component sizes (descending) plus a small-size census."""

    sizes: tuple[int, ...]
    singletons: int
    pairs: int
    triples: int
    giant_size: int
    giant_fraction: float

    @property
    def count(self) -> int:
        return len(self.sizes)


def components(graph: TrustGraph) -> ComponentCensus:
    """Connected components over non-self edges (union-find)."""
    n = graph.node_count
    parent = list(range(n))

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    for i, j in graph.edges:
        parent[find(j)] = find(i)

    tally: dict[int, int] = {}
    for i in range(n):
        root = find(i)
        tally[root] = tally.get(root, 0) + 1
    sizes = tuple(sorted(tally.values(), reverse=True))
    giant = sizes[0] if sizes else 0
    return ComponentCensus(
        sizes=sizes,
        singletons=sum(1 for s in sizes if s == 1),
        pairs=sum(1 for s in sizes if s == 2),
        triples=sum(1 for s in sizes if s == 3),
        giant_size=giant,
        giant_fraction=giant / n if n else 0.0,
    )


# --- clustering and transitivity ---


@dataclass(frozen=True)
class ClusteringStats:
    """Local clustering averages plus global triangle/triple counts.

    transitivity_standard is 3T / P2 (P2 = connected triples, open or
    closed); transitivity_open_ratio is T / open_triples — the ratio of
    closed to open triples, the convention behind the headline global
    figure this package reproduces.
    """

    avg_all: float
    avg_positive: float
    count_one: int
    triangles: int
    connected_triples: int
    open_triples: int
    transitivity_standard: float
    transitivity_open_ratio: float


def clustering(graph: TrustGraph) -> ClusteringStats:
    adjacency = graph.adjacency
    # closed[w]: edges among w's neighbors, i.e. triangles through w
    closed = [0] * graph.node_count
    for i, j in graph.edges:
        for w in adjacency[i] & adjacency[j]:
            closed[w] += 1
    triangle_total = sum(closed) // 3
    connected_triples = 0
    local: list[float] = []
    eligible: list[float] = []
    # Float sums depend on summation order. They run in the iteration order
    # of the address set because the golden metrics digests lock their
    # last bits.
    vid_of = {address: vid for vid, address in enumerate(graph.addresses)}
    for vertex in set(graph.addresses):
        vid = vid_of[vertex]
        k = len(adjacency[vid])
        pairs = k * (k - 1) // 2
        connected_triples += pairs
        if pairs == 0:
            local.append(0.0)
            continue
        local.append(closed[vid] / pairs)
        eligible.append(local[-1])
    open_triples = connected_triples - 3 * triangle_total
    n = graph.node_count
    avg_all = sum(local) / n if n else 0.0
    avg_positive = sum(eligible) / len(eligible) if eligible else 0.0
    if connected_triples > 0:
        transitivity_standard = 3 * triangle_total / connected_triples
    else:
        transitivity_standard = 0.0
    return ClusteringStats(
        avg_all=avg_all,
        avg_positive=avg_positive,
        count_one=sum(1 for c in eligible if c == 1.0),
        triangles=triangle_total,
        connected_triples=connected_triples,
        open_triples=open_triples,
        transitivity_standard=transitivity_standard,
        transitivity_open_ratio=transitivity_from_counts(
            triangle_total, open_triples
        ),
    )


def transitivity_from_counts(triangles: int, open_triples: int) -> float:
    """Closed-to-open triple ratio from raw counts."""
    if open_triples > 0:
        return triangles / open_triples
    return float("inf") if triangles > 0 else 0.0


# --- density and baselines ---


def density_from_counts(node_count: int, edge_count_nonself: int) -> float:
    """2E / (V (V-1)) over non-self edges."""
    if node_count < 2:
        raise DegenerateGraphError(
            f"density needs at least 2 nodes, got {node_count}"
        )
    return 2.0 * edge_count_nonself / (node_count * (node_count - 1))


def random_clustering_baseline(graph: TrustGraph) -> float:
    """Expected clustering of a degree-matched random graph: k̄ / |V|."""
    n = graph.node_count
    if n == 0:
        return 0.0
    mean_degree = 2.0 * graph.edge_count_nonself / n
    return mean_degree / n


# --- address locality ---


@dataclass(frozen=True)
class AddressDeltaStats:
    """Distribution of |node_id(a) - node_id(b)| over non-self edges."""

    histogram: dict[int, int]
    total_edges: int
    excluded_mixed_network: int
    mean_delta: float
    within: int
    within_fraction: float


def address_delta_histogram(graph: TrustGraph) -> AddressDeltaStats:
    """Same-network edges by address distance; within_fraction is the share
    at most ADDRESS_DELTA_WITHIN apart."""
    histogram: dict[int, int] = {}
    excluded = 0
    addresses = graph.addresses
    for i, j in graph.edges:
        a, b = addresses[i], addresses[j]
        if a.network_id != b.network_id:
            excluded += 1
            continue
        delta = abs(a.node_id - b.node_id)
        histogram[delta] = histogram.get(delta, 0) + 1
    total = sum(histogram.values())
    mean_delta = (
        sum(d * n for d, n in histogram.items()) / total if total else 0.0
    )
    close = sum(n for d, n in histogram.items() if d <= ADDRESS_DELTA_WITHIN)
    return AddressDeltaStats(
        histogram=dict(sorted(histogram.items())),
        total_edges=total,
        excluded_mixed_network=excluded,
        mean_delta=mean_delta,
        within=ADDRESS_DELTA_WITHIN,
        within_fraction=close / total if total else 0.0,
    )


# --- social-layer bins ---


def dunbar_bins(
    histogram: dict[int, int], boundaries: Sequence[int]
) -> list[int]:
    """Half-open [b_i, b_{i+1}) bin counts over a degree histogram."""
    bounds = list(boundaries)
    if len(bounds) < 2:
        raise BadBoundariesError("need at least two boundaries")
    if any(b >= c for b, c in zip(bounds, bounds[1:])):
        raise BadBoundariesError(f"boundaries must be strictly increasing: {bounds}")
    counts = [0] * (len(bounds) - 1)
    for k, n in histogram.items():
        for i in range(len(bounds) - 1):
            if bounds[i] <= k < bounds[i + 1]:
                counts[i] += n
                break
    return counts


# --- hubs ---


@dataclass(frozen=True)
class HubRow:
    address: str
    degree_api: int
    tags: tuple[str, ...]


@dataclass(frozen=True)
class HubTable:
    """Top nodes by API degree with the hub-concentration numbers.

    top5_degree_sum is the raw sum of the first five API degrees;
    top5_incident_edges deduplicates non-self edges incident to those five
    (a hub-hub edge counts once), and top5_share divides that by the
    non-self edge total.
    """

    rows: tuple[HubRow, ...]
    top5_degree_sum: int
    top5_incident_edges: int
    top5_share: float


def hub_table(graph: TrustGraph, snapshot: StatsSnapshot) -> HubTable:
    """The HUB_TABLE_SIZE vertices of highest API degree, ties broken by
    address; graph is snapshot.graph, so vertex i's tags are
    snapshot.nodes[i].tags."""
    addresses = graph.addresses
    degree = [graph._degree_api(vid) for vid in range(graph.node_count)]
    ranked = sorted(range(graph.node_count), key=lambda v: (-degree[v], addresses[v]))
    rows = tuple(
        HubRow(addresses[v].to_text(), degree[v], tuple(snapshot.nodes[v].tags))
        for v in ranked[:HUB_TABLE_SIZE]
    )
    top5 = set(ranked[:5])
    incident = sum(1 for i, j in graph.edges if i in top5 or j in top5)
    edges = graph.edge_count_nonself
    return HubTable(
        rows=rows,
        top5_degree_sum=sum(degree[v] for v in top5),
        top5_incident_edges=incident,
        top5_share=incident / edges if edges else 0.0,
    )
