"""Trust-graph analytics: structure, tails, tags, reports, and audits."""

from .graph import (
    AddressDeltaStats,
    ComponentCensus,
    DegreeSummary,
    HubTable,
    TrustGraph,
    address_delta_histogram,
    build_graph,
    clustering,
    components,
    degree_histogram,
    dunbar_bins,
    hub_table,
    random_clustering_baseline,
    summarize_histogram,
)
from .report import (
    Finding,
    MetricsReport,
    analyze_snapshot,
    consistency_audit,
    render_table,
)
from .tags import DEFAULT_TAG_CLUSTERS, TagStats, tag_stats
from .tailfit import PowerLawFit, fit_heavy_tail

__all__ = [
    "AddressDeltaStats",
    "ComponentCensus",
    "DEFAULT_TAG_CLUSTERS",
    "DegreeSummary",
    "Finding",
    "HubTable",
    "MetricsReport",
    "PowerLawFit",
    "TagStats",
    "TrustGraph",
    "address_delta_histogram",
    "analyze_snapshot",
    "build_graph",
    "clustering",
    "components",
    "consistency_audit",
    "degree_histogram",
    "dunbar_bins",
    "fit_heavy_tail",
    "hub_table",
    "random_clustering_baseline",
    "render_table",
    "summarize_histogram",
    "tag_stats",
]
