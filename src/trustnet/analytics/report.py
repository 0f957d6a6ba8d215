"""Full metrics report, the human-readable summary table, and the audit."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional

from ..errors import InsufficientTailError
from ..snapshot import StatsSnapshot
from .graph import (
    AddressDeltaStats,
    ComponentCensus,
    HubTable,
    address_delta_histogram,
    build_graph,
    clustering,
    components,
    degree_histogram,
    density_from_counts,
    dunbar_bins,
    hub_table,
    random_clustering_baseline,
    summarize_histogram,
)
from .tags import TagStats, tag_stats
from .tailfit import PowerLawFit, fit_heavy_tail

DEFAULT_DUNBAR_BOUNDARIES = (6, 12, 15, 22)


@dataclass(frozen=True)
class DunbarBins:
    boundaries: tuple[int, ...]
    counts: tuple[int, ...]


@dataclass(frozen=True)
class MetricsReport:
    """Everything the analyzer derives from one snapshot; no hidden state."""

    node_count: int
    online_count: int
    network_count: int
    requests_served: int
    requests_per_agent: float
    trust_edge_entries: int
    summary_trust_links: int
    summary_vs_list_discrepancy: int
    edge_count_nonself: int
    self_loop_count: int
    mean_degree_api: float
    mean_degree_nonself: float
    median_degree: int
    mode_degree: int
    max_degree: int
    isolated_api: int
    isolated_nonself: int
    component_count: int
    component_sizes: tuple[int, ...]
    component_census: ComponentCensus
    giant_fraction: float
    density: float
    avg_clustering_all: float
    avg_clustering_positive: float
    count_clustering_one: int
    clustering_random_baseline: float
    triangles: int
    connected_triples: int
    open_triples: int
    transitivity_standard: float
    transitivity_open_ratio: float
    degree_histogram_api: dict[int, int]
    degree_histogram_nonself: dict[int, int]
    powerlaw_fit: Optional[PowerLawFit]
    tag_stats: TagStats
    address_delta_histogram: AddressDeltaStats
    dunbar_bins: DunbarBins
    hub_table: HubTable

    def to_dict(self) -> dict:
        """The metrics document: each dataclass in the report becomes a dict of
        its fields, each histogram a dict keyed by text in key order, and every
        other value is shared with the report, not copied."""
        return _fields_of(self)


def _fields_of(value):
    """value with each dataclass in it, a tuple's items included, as a dict of
    its fields, and each int-keyed dict as a text-keyed dict in key order."""
    if is_dataclass(value):
        return {f.name: _fields_of(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple) and value and is_dataclass(value[0]):
        return [_fields_of(item) for item in value]
    if isinstance(value, dict) and all(isinstance(k, int) for k in value):
        return {str(k): v for k, v in sorted(value.items())}
    return value


def analyze_snapshot(snapshot: StatsSnapshot, *, k_min: int = 10) -> MetricsReport:
    """Compute the full report; pure function of the snapshot document.

    k_min is the smallest degree of the fitted tail. The Dunbar bands are
    DEFAULT_DUNBAR_BOUNDARIES, the tag clusters tags.DEFAULT_TAG_CLUSTERS,
    the hub table lists graph.HUB_TABLE_SIZE nodes and the address-delta
    window is graph.ADDRESS_DELTA_WITHIN.
    """
    graph = build_graph(snapshot)
    hist_api = degree_histogram(graph, "api")
    hist_nonself = degree_histogram(graph, "nonself")
    api = summarize_histogram(hist_api)
    nonself = summarize_histogram(hist_nonself)
    census = components(graph)
    triads = clustering(graph)
    node_count = graph.node_count
    edges = graph.edge_count_nonself
    try:
        fit = fit_heavy_tail(hist_nonself, k_min=k_min)
    except InsufficientTailError:
        fit = None
    return MetricsReport(
        node_count=node_count,
        online_count=sum(1 for node in snapshot.nodes if node.online),
        network_count=len(snapshot.networks),
        requests_served=snapshot.requests_served,
        requests_per_agent=snapshot.requests_per_agent,
        trust_edge_entries=len(snapshot.trust_edges),
        summary_trust_links=snapshot.summary_trust_links,
        summary_vs_list_discrepancy=(
            snapshot.summary_trust_links - len(snapshot.trust_edges)
        ),
        edge_count_nonself=edges,
        self_loop_count=graph.self_loop_count,
        mean_degree_api=api.mean,
        mean_degree_nonself=nonself.mean,
        median_degree=api.median,
        mode_degree=api.mode,
        max_degree=api.max,
        isolated_api=api.isolated,
        isolated_nonself=nonself.isolated,
        component_count=census.count,
        component_sizes=census.sizes,
        component_census=census,
        giant_fraction=census.giant_fraction,
        density=(
            density_from_counts(node_count, edges) if node_count >= 2 else 0.0
        ),
        avg_clustering_all=triads.avg_all,
        avg_clustering_positive=triads.avg_positive,
        count_clustering_one=triads.count_one,
        clustering_random_baseline=random_clustering_baseline(graph),
        triangles=triads.triangles,
        connected_triples=triads.connected_triples,
        open_triples=triads.open_triples,
        transitivity_standard=triads.transitivity_standard,
        transitivity_open_ratio=triads.transitivity_open_ratio,
        degree_histogram_api=hist_api,
        degree_histogram_nonself=hist_nonself,
        powerlaw_fit=fit,
        tag_stats=tag_stats(snapshot),
        address_delta_histogram=address_delta_histogram(graph),
        dunbar_bins=DunbarBins(
            boundaries=DEFAULT_DUNBAR_BOUNDARIES,
            counts=tuple(dunbar_bins(hist_api, DEFAULT_DUNBAR_BOUNDARIES)),
        ),
        hub_table=hub_table(graph, snapshot),
    )


def _fmt_int(value: int) -> str:
    return f"{value:,}"


def _share(part: int, whole: int) -> str:
    """part with its share of whole, e.g. "412 (65.8%)"; no whole is a 0.0% share."""
    return f"{_fmt_int(part)} ({100.0 * part / whole if whole else 0.0:.1f}%)"


def render_table(report: MetricsReport) -> str:
    """Human-readable two-column summary of the headline network metrics."""
    tags = report.tag_stats
    n = report.node_count
    rows: list[tuple[str, str]] = [
        ("Total registered agents", _fmt_int(n)),
        ("Online agents", _share(report.online_count, n)),
        ("Networks", _fmt_int(report.network_count)),
        (
            "Registry requests served",
            f"{_fmt_int(report.requests_served)} "
            f"(~{report.requests_per_agent:.0f} per agent)",
        ),
        ("Trust links (summary)", _fmt_int(report.summary_trust_links)),
        ("Trust edge entries", _fmt_int(report.trust_edge_entries)),
        ("Self-loops", _fmt_int(report.self_loop_count)),
        ("Non-self edges", _fmt_int(report.edge_count_nonself)),
        ("Unique capability tags", _fmt_int(tags.unique_tags)),
        ("Agents with tags", _share(tags.agents_with_tags, n)),
        ("Tag assignments", _fmt_int(tags.assignments_total)),
        ("Mean degree (API)", f"{report.mean_degree_api:.2f}"),
        ("Mean degree (non-self)", f"{report.mean_degree_nonself:.2f}"),
        ("Median degree", _fmt_int(report.median_degree)),
        ("Modal trust degree", _fmt_int(report.mode_degree)),
        ("Max degree", _fmt_int(report.max_degree)),
        ("Isolated agents", _share(report.isolated_nonself, n)),
        ("Components", _fmt_int(report.component_count)),
        ("Giant component", _share(report.component_census.giant_size, n)),
        ("Graph density (non-self)", f"{report.density:.4f}"),
        ("Avg. clustering coefficient", f"{report.avg_clustering_all:.3f}"),
        (
            "Global transitivity",
            "inf"
            if math.isinf(report.transitivity_open_ratio)
            else f"{report.transitivity_open_ratio:.3f}",
        ),
        ("Transitivity (3T/P2)", f"{report.transitivity_standard:.3f}"),
        ("Triangles", _fmt_int(report.triangles)),
        ("Open triples", _fmt_int(report.open_triples)),
    ]
    width = max(len(label) for label, _ in rows) + 2
    lines = ["Metric".ljust(width) + "Value", "-" * (width + 24)]
    lines.extend(label.ljust(width) + value for label, value in rows)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Finding:
    """One internal-consistency check: what was expected vs observed. The audit
    reports it when its delta is not zero."""

    check: str
    expected: float
    actual: float

    @property
    def delta(self) -> float:
        return self.actual - self.expected

    def __str__(self) -> str:
        return (
            f"{self.check}: expected {self.expected}, actual {self.actual} "
            f"(delta {self.delta:+})"
        )


def consistency_audit(
    snapshot: StatsSnapshot, report: Optional[MetricsReport] = None
) -> list[Finding]:
    """Cross-check a snapshot (and optionally a report) against itself.

    Ground truth is always re-derived from the snapshot's own node and edge
    lists; every finding carries the expected and actual values. The checks
    run in a fixed order, and findings keep it.
    """
    if report is None:
        report = analyze_snapshot(snapshot)
    graph = build_graph(snapshot)
    node_count = graph.node_count
    edge_ends = 2 * graph.edge_count_nonself
    nonself = report.degree_histogram_nonself
    checks = [
        Finding("histogram-total-api", node_count, sum(report.degree_histogram_api.values())),
        Finding("histogram-total-nonself", node_count, sum(nonself.values())),
        Finding("degree-sum-nonself", edge_ends, sum(k * n for k, n in nonself.items())),
        Finding(
            "trust-links-identity",
            edge_ends + 2 * graph.self_loop_count,
            sum(node.trust_links for node in snapshot.nodes),
        ),
        Finding("summary-vs-list", len(snapshot.trust_edges), snapshot.summary_trust_links),
        Finding("component-cover", node_count, sum(report.component_sizes)),
    ]
    return [finding for finding in checks if finding.delta]
