"""Analytics: graph metrics vs brute-force oracles plus frozen references."""

import math
import random
from dataclasses import replace

import pytest

from _oracles import (
    BruteGraph,
    random_edge_list,
    tail_sampler_exponential,
    tail_sampler_lognormal,
    tail_sampler_power_law,
)
from trustnet.analytics import (
    MetricsReport,
    TrustGraph,
    address_delta_histogram,
    analyze_snapshot,
    build_graph,
    clustering,
    components,
    consistency_audit,
    degree_histogram,
    degree_stats,
    density,
    dunbar_bins,
    fit_heavy_tail,
    hub_table,
    random_clustering_baseline,
    render_table,
    summarize_histogram,
    tag_stats,
)
from trustnet.analytics.graph import density_from_counts, transitivity_from_counts
from trustnet.analytics.tags import entropy_bits, tag_stats_from_counts
from trustnet.errors import (
    BadBoundariesError,
    DanglingEdgeError,
    DegenerateGraphError,
    InsufficientTailError,
    SchemaViolationError,
)
from trustnet.overlay import VirtualAddress
from trustnet.snapshot import NetworkView, NodeView, StatsSnapshot

# Frozen reference census of the observed 626-agent network (API-degree
# histogram): the fixed reference the analyzer must reproduce statistics from.
REFERENCE_API_HISTOGRAM = {
    0: 9,
    1: 38,
    2: 76,
    3: 102,
    4: 70,
    5: 50,
    6: 51,
    7: 39,
    8: 35,
    9: 23,
    10: 21,
    11: 24,
    12: 19,
    13: 13,
    14: 9,
    15: 11,
    16: 8,
    17: 8,
    18: 6,
    19: 5,
    20: 4,
    21: 2,
    28: 1,
    29: 1,
    39: 1,
}

REFERENCE_NODE_COUNT = 626
REFERENCE_NONSELF_EDGES = 1567
REFERENCE_SELF_LOOPS = 401
REFERENCE_TRIANGLES = 5061
REFERENCE_OPEN_TRIPLES = 13168
REFERENCE_ASSIGNMENTS = 917
REFERENCE_UNIQUE_TAGS = 276


def addr(i: int) -> VirtualAddress:
    return VirtualAddress(0, i + 1)


def snapshot_from(n: int, edges, tags=None, summary=None) -> StatsSnapshot:
    tags = tags or {}
    loops = {a for a, b in edges if a == b}
    degree = {i: 0 for i in range(n)}
    seen = set()
    edge_rows = []
    for a, b in edges:
        pair = (min(a, b), max(a, b))
        if pair in seen:
            continue
        seen.add(pair)
        edge_rows.append((addr(pair[0]).to_text(), addr(pair[1]).to_text()))
        if a != b:
            degree[a] += 1
            degree[b] += 1
    nodes = [
        NodeView(
            address=addr(i).to_text(),
            tags=tuple(tags.get(i, ())),
            online=True,
            trust_links=degree[i] + (2 if i in loops else 0),
        )
        for i in range(n)
    ]
    return StatsSnapshot(
        generated_at=0.0,
        requests_served=n,
        networks=[NetworkView(0, "backbone")],
        nodes=nodes,
        trust_edges=edge_rows,
        summary_trust_links=len(edge_rows) if summary is None else summary,
        requests_per_agent=1.0,
    )


def graph_from(n: int, edges) -> TrustGraph:
    return build_graph(snapshot_from(n, edges))


class TestReferenceHistogram:
    def test_summary_statistics(self):
        summary = summarize_histogram(REFERENCE_API_HISTOGRAM)
        assert summary.total == REFERENCE_NODE_COUNT
        assert summary.mean == pytest.approx(6.29, abs=0.005)
        assert summary.median == 5
        assert summary.mode == 3
        assert summary.max == 39
        assert summary.isolated == 9

    def test_degree_identity_with_edge_counts(self):
        degree_sum = sum(k * n for k, n in REFERENCE_API_HISTOGRAM.items())
        assert degree_sum == 3939
        convention = 2 * REFERENCE_NONSELF_EDGES + 2 * REFERENCE_SELF_LOOPS
        assert convention == 3936  # residual +3 matches the summary-counter drift
        assert degree_sum / REFERENCE_NODE_COUNT == pytest.approx(6.29, abs=0.005)

    def test_mean_nonself_from_counts(self):
        mean = 2 * REFERENCE_NONSELF_EDGES / REFERENCE_NODE_COUNT
        assert mean == pytest.approx(5.01, abs=0.01)

    def test_density_from_counts(self):
        assert density_from_counts(
            REFERENCE_NODE_COUNT, REFERENCE_NONSELF_EDGES
        ) == pytest.approx(0.00801, abs=0.00001)

    def test_transitivity_open_ratio(self):
        value = transitivity_from_counts(
            REFERENCE_TRIANGLES, REFERENCE_OPEN_TRIPLES
        )
        assert value == pytest.approx(0.3843, abs=0.0005)

    def test_transitivity_standard_on_same_counts(self):
        p2 = 3 * REFERENCE_TRIANGLES + REFERENCE_OPEN_TRIPLES
        assert 3 * REFERENCE_TRIANGLES / p2 == pytest.approx(0.536, abs=0.001)

    def test_clustering_random_ratio(self):
        baseline = (2 * REFERENCE_NONSELF_EDGES / REFERENCE_NODE_COUNT) / (
            REFERENCE_NODE_COUNT
        )
        assert round(0.373 / baseline) == 47

    def test_dunbar_layer_bins(self):
        counts = dunbar_bins(REFERENCE_API_HISTOGRAM, (6, 12, 15, 22))
        assert counts == [193, 41, 44]

    def test_dunbar_bin_covering_everything(self):
        assert dunbar_bins(REFERENCE_API_HISTOGRAM, (0, 40)) == [
            REFERENCE_NODE_COUNT
        ]

    def test_tag_census_ratios(self):
        ttr, max_entropy = tag_stats_from_counts(
            REFERENCE_ASSIGNMENTS, REFERENCE_UNIQUE_TAGS
        )
        assert ttr == pytest.approx(0.301, abs=0.002)
        assert max_entropy == pytest.approx(8.11, abs=0.01)


class TestOracleEquivalence:
    def test_random_graphs_match_brute_force(self):
        rng = random.Random(20260814)
        for _ in range(30):
            n, edges = random_edge_list(rng, max_nodes=50)
            graph = graph_from(n, edges)
            brute = BruteGraph(n)
            for a, b in edges:
                brute.add_edge(a, b)

            assert degree_histogram(graph, "nonself") == brute.degree_histogram()
            census = components(graph)
            assert list(census.sizes) == brute.component_sizes()
            triads = clustering(graph)
            assert triads.triangles == brute.triangle_count()
            assert triads.connected_triples == brute.connected_triples()
            locals_by_vertex = [
                (
                    len(graph.adjacency[i]),
                    brute.local_clustering()[i],
                )
                for i in range(n)
            ]
            avg_all = sum(c for _, c in locals_by_vertex) / n
            assert triads.avg_all == pytest.approx(avg_all, abs=1e-12)

    def test_self_loops_never_enter_nonself_metrics(self):
        graph = graph_from(3, [(0, 1), (1, 1), (2, 2)])
        assert graph.edge_count_nonself == 1
        assert graph.self_loop_count == 2
        assert len(graph.adjacency[1]) == 1
        assert graph.self_loop_ids == {1, 2}
        # API histogram: v0 has 1, v1 has 3, v2 has 2 (self-loop bonus)
        assert degree_histogram(graph, "api") == {1: 1, 2: 1, 3: 1}


class TestComponentsAndMonotonicity:
    def test_two_edges_plus_isolate(self):
        census = components(graph_from(5, [(0, 1), (2, 3)]))
        assert list(census.sizes) == [2, 2, 1]
        assert census.singletons == 1
        assert census.pairs == 2

    def test_path_is_one_component(self):
        census = components(graph_from(50, [(i, i + 1) for i in range(49)]))
        assert census.count == 1
        assert census.giant_fraction == 1.0

    def test_adding_edge_is_monotone(self):
        rng = random.Random(99)
        for _ in range(20):
            n, edges = random_edge_list(rng, max_nodes=30)
            nonself = [(a, b) for a, b in edges if a != b]
            graph = graph_from(n, nonself)
            before = components(graph)
            candidates = [
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if b not in graph.adjacency[a]
            ]
            if not candidates:
                continue
            extra = rng.choice(candidates)
            bigger = graph_from(n, nonself + [extra])
            after = components(bigger)
            assert after.giant_fraction >= before.giant_fraction
            assert after.count <= before.count


class TestClusteringShapes:
    def test_triangle(self):
        triads = clustering(graph_from(3, [(0, 1), (1, 2), (0, 2)]))
        assert triads.avg_all == 1.0
        assert triads.triangles == 1
        assert triads.open_triples == 0
        assert triads.transitivity_standard == 1.0
        assert math.isinf(triads.transitivity_open_ratio)

    def test_path(self):
        triads = clustering(graph_from(3, [(0, 1), (1, 2)]))
        assert triads.avg_all == 0.0
        assert triads.triangles == 0
        assert triads.open_triples == 1
        assert triads.transitivity_open_ratio == 0.0

    def test_transitivity_identities_on_random_graphs(self):
        rng = random.Random(5)
        for _ in range(15):
            n, edges = random_edge_list(rng, max_nodes=40)
            triads = clustering(graph_from(n, edges))
            t, p2 = triads.triangles, triads.connected_triples
            assert triads.open_triples == p2 - 3 * t
            if p2:
                assert triads.transitivity_standard == pytest.approx(3 * t / p2)
            if triads.open_triples:
                assert triads.transitivity_open_ratio == pytest.approx(
                    t / triads.open_triples
                )
                assert triads.transitivity_standard == pytest.approx(
                    3 * t / (3 * t + triads.open_triples)
                )


class TestDensityAndBaseline:
    def test_complete_graph(self):
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        assert density(graph_from(4, edges)) == 1.0

    def test_empty_graph(self):
        assert density(graph_from(10, [])) == 0.0

    def test_degenerate(self):
        with pytest.raises(DegenerateGraphError):
            density(graph_from(1, []))

    def test_mean_degree_identity(self):
        rng = random.Random(31)
        for _ in range(10):
            n, edges = random_edge_list(rng, max_nodes=40)
            graph = graph_from(n, edges)
            stats = degree_stats(graph, "nonself")
            assert stats.mean == pytest.approx(
                2 * graph.edge_count_nonself / n, abs=1e-12
            )

    def test_baseline_empty(self):
        assert random_clustering_baseline(graph_from(5, [])) == 0.0


class TestAddressDeltas:
    def test_adjacent_addresses(self):
        stats = address_delta_histogram(graph_from(4, [(0, 1), (1, 3)]))
        assert stats.histogram == {1: 1, 2: 1}
        assert stats.mean_delta == 1.5

    def test_self_loops_never_enter(self):
        stats = address_delta_histogram(graph_from(3, [(1, 1), (0, 2)]))
        assert stats.histogram == {2: 1}

    def test_mixed_network_excluded_and_counted(self):
        addresses = [VirtualAddress(0, 1), VirtualAddress(0, 2), VirtualAddress(1, 3)]
        graph = TrustGraph(addresses, [set() for _ in addresses])
        graph.link(0, 1)
        graph.link(1, 2)
        stats = address_delta_histogram(graph)
        assert stats.histogram == {1: 1}
        assert stats.excluded_mixed_network == 1

    def test_within_fraction(self):
        stats = address_delta_histogram(
            graph_from(30, [(0, 1), (0, 2), (0, 25)]), within=10
        )
        assert stats.within_fraction == pytest.approx(2 / 3)


class TestDunbarValidation:
    def test_boundaries_must_increase(self):
        with pytest.raises(BadBoundariesError):
            dunbar_bins({1: 1}, (5, 5, 10))

    def test_needs_two_boundaries(self):
        with pytest.raises(BadBoundariesError):
            dunbar_bins({1: 1}, (5,))

    def test_half_open_semantics(self):
        hist = {5: 1, 6: 2, 11: 3, 12: 4}
        assert dunbar_bins(hist, (6, 12)) == [5]


class TestHubTable:
    def test_ranking_and_share(self):
        # star: node 0 connected to 1..5; plus an edge among leaves
        edges = [(0, i) for i in range(1, 6)] + [(1, 2), (0, 0)]
        snap = snapshot_from(6, edges, tags={0: ("analytics",)})
        graph = build_graph(snap)
        table = hub_table(graph, snap, top_n=3)
        assert table.rows[0].address == addr(0).to_text()
        assert table.rows[0].degree_api == 7  # 5 neighbors + self-loop bonus
        assert table.rows[0].tags == ("analytics",)
        # top5 = nodes 0,1,2 and two of the remaining leaves
        assert table.top5_degree_sum == 7 + 2 + 2 + 1 + 1
        assert table.top5_incident_edges == 6
        assert table.top5_share == 1.0

    def test_tie_break_by_address(self):
        edges = [(0, 1), (2, 3)]
        graph = build_graph(snapshot_from(4, edges))
        table = hub_table(graph, None, top_n=4)
        assert [row.address for row in table.rows] == [
            addr(i).to_text() for i in range(4)
        ]


class TestTagStats:
    def test_small_distribution(self):
        snap = snapshot_from(3, [], tags={0: ("a",), 1: ("a", "b")})
        stats = tag_stats(snap)
        assert stats.assignments_total == 3
        assert stats.unique_tags == 2
        assert stats.type_token_ratio == pytest.approx(2 / 3)
        assert stats.shannon_entropy_bits == pytest.approx(0.9183, abs=1e-4)
        assert stats.agents_with_tags == 2
        assert stats.max_tags_per_agent == 2

    def test_empty(self):
        stats = tag_stats(snapshot_from(4, []))
        assert stats.type_token_ratio == 0.0
        assert stats.shannon_entropy_bits == 0.0
        assert stats.max_entropy_bits == 0.0
        assert stats.top_k == ()

    def test_entropy_bounded_by_max(self):
        rng = random.Random(2)
        for _ in range(20):
            freqs = [rng.randint(1, 50) for _ in range(rng.randint(1, 30))]
            h = entropy_bits(freqs)
            assert 0.0 <= h <= math.log2(len(freqs)) + 1e-12

    def test_cluster_membership_counts_agent_once_per_cluster(self):
        snap = snapshot_from(
            3,
            [],
            tags={
                0: ("analytics", "reporting"),  # one agent, two matching tags
                1: ("documentation",),  # in two clusters at once
            },
        )
        stats = tag_stats(snap)
        assert stats.cluster_sizes["data-analytics"] == 2
        assert stats.cluster_sizes["engineering-development"] == 1
        assert stats.cluster_sizes["wellness-lifestyle"] == 0

    def test_top_k_ordering(self):
        snap = snapshot_from(
            4, [], tags={0: ("b", "a"), 1: ("a", "b"), 2: ("c",)}
        )
        stats = tag_stats(snap)
        assert stats.top_k == (("a", 2), ("b", 2), ("c", 1))


class TestTailFit:
    def test_power_law_exponent_recovery(self):
        rng = random.Random(7)
        hist = tail_sampler_power_law(rng, gamma=2.5, k_min=10, size=10_000)
        fit = fit_heavy_tail(hist, k_min=10)
        assert fit.gamma == pytest.approx(2.5, abs=0.15)
        assert fit.best_model == "power-law"
        assert fit.tail_sample_size == 10_000

    def test_exponential_tail_identified(self):
        rng = random.Random(8)
        hist = tail_sampler_exponential(rng, rate=0.2, k_min=10, size=10_000)
        fit = fit_heavy_tail(hist, k_min=10)
        assert fit.best_model == "exponential"

    def test_lognormal_tail_identified(self):
        rng = random.Random(9)
        hist = tail_sampler_lognormal(rng, mu=2.0, sigma=0.6, k_min=10, size=10_000)
        fit = fit_heavy_tail(hist, k_min=10)
        assert fit.best_model == "log-normal"

    def test_error_shrinks_with_sample_size(self):
        rng = random.Random(10)
        errors = []
        for size in (1_000, 100_000):
            hist = tail_sampler_power_law(rng, gamma=2.1, k_min=10, size=size)
            fit = fit_heavy_tail(hist, k_min=10)
            errors.append(abs(fit.gamma - 2.1))
        assert errors[1] < errors[0]

    def test_insufficient_tail(self):
        with pytest.raises(InsufficientTailError):
            fit_heavy_tail({12: 3}, k_min=10)

    def test_gamma_above_one(self):
        rng = random.Random(11)
        for gamma in (1.8, 2.5, 3.5):
            hist = tail_sampler_power_law(rng, gamma=gamma, k_min=10, size=2_000)
            assert fit_heavy_tail(hist, k_min=10).gamma > 1.0


def random_snapshot() -> StatsSnapshot:
    rng = random.Random(17)
    n, edges = random_edge_list(rng, max_nodes=40)
    return snapshot_from(n, edges, tags={0: ("analytics",), 1: ("writing",)})


def absent_endpoint_snapshot() -> StatsSnapshot:
    """Edges naming addresses missing from the node list, built in code."""
    snap = snapshot_from(3, [(0, 1)])
    snap.trust_edges.extend(
        [(addr(1).to_text(), addr(5).to_text()), (addr(7).to_text(),) * 2]
    )
    return snap


def noncanonical_node_snapshot() -> StatsSnapshot:
    """A lowercase-hex node and its canonical edge text are one vertex."""
    snap = snapshot_from(12, [(9, 10), (10, 11), (9, 9)])
    node = snap.nodes[9]
    assert node.address.endswith("A")
    snap.nodes[9] = NodeView(
        address=node.address.lower(),
        tags=node.tags,
        online=node.online,
        trust_links=node.trust_links,
    )
    return snap


class TestReportAndAudit:
    def make_snapshot(self):
        return random_snapshot()

    def test_report_is_deterministic_and_order_independent(self):
        snap = self.make_snapshot()
        report_a = analyze_snapshot(snap)
        shuffled = StatsSnapshot(
            generated_at=snap.generated_at,
            requests_served=snap.requests_served,
            networks=snap.networks,
            nodes=snap.nodes,
            trust_edges=list(reversed(snap.trust_edges)),
            summary_trust_links=snap.summary_trust_links,
            requests_per_agent=snap.requests_per_agent,
        )
        report_b = analyze_snapshot(shuffled)
        assert report_a == report_b

    def test_clean_snapshot_yields_zero_findings(self):
        assert consistency_audit(self.make_snapshot()) == []

    def test_summary_drift_is_one_finding(self):
        snap = self.make_snapshot()
        drifted = StatsSnapshot(
            generated_at=snap.generated_at,
            requests_served=snap.requests_served,
            networks=snap.networks,
            nodes=snap.nodes,
            trust_edges=snap.trust_edges,
            summary_trust_links=len(snap.trust_edges) + 3,
            requests_per_agent=snap.requests_per_agent,
        )
        findings = consistency_audit(drifted)
        assert len(findings) == 1
        assert findings[0].check == "summary-vs-list"
        assert findings[0].delta == 3

    def test_corrupted_trust_links_is_one_finding(self):
        snap = self.make_snapshot()
        nodes = list(snap.nodes)
        broken = NodeView(
            address=nodes[0].address,
            tags=nodes[0].tags,
            online=nodes[0].online,
            trust_links=nodes[0].trust_links + 1,
        )
        corrupted = StatsSnapshot(
            generated_at=snap.generated_at,
            requests_served=snap.requests_served,
            networks=snap.networks,
            nodes=[broken] + nodes[1:],
            trust_edges=snap.trust_edges,
            summary_trust_links=snap.summary_trust_links,
            requests_per_agent=snap.requests_per_agent,
        )
        findings = consistency_audit(corrupted)
        assert len(findings) == 1
        assert findings[0].check == "trust-links-identity"
        assert findings[0].delta == 1

    def test_report_fields_recomputable(self):
        # (snapshot, expected vertex, non-self edge and self-loop counts)
        cases = [
            (random_snapshot(), (35, 75, 5)),
            (noncanonical_node_snapshot(), (12, 2, 1)),
        ]
        for snap, counts in cases:
            report = analyze_snapshot(snap)
            graph = build_graph(snap)
            assert (
                graph.node_count,
                graph.edge_count_nonself,
                graph.self_loop_count,
            ) == counts
            assert report.edge_count_nonself == graph.edge_count_nonself
            assert report.self_loop_count == graph.self_loop_count
            assert report.mean_degree_nonself == pytest.approx(
                2 * graph.edge_count_nonself / graph.node_count
            )
            assert sum(report.component_sizes) == graph.node_count

    def test_code_built_snapshot_is_checked_as_the_reader_checks(self):
        """What from_dict refuses, build_graph refuses with the same message."""
        duplicate = noncanonical_node_snapshot()  # nodes[9] is written in lower case
        duplicate.nodes[11] = replace(
            duplicate.nodes[11], address=duplicate.nodes[9].address.upper()
        )
        cases = [
            (absent_endpoint_snapshot(), DanglingEdgeError,
             f"trust_edges[1] references unknown node {addr(5)}"),
            (duplicate, SchemaViolationError, f"duplicate node address {addr(9)}"),
        ]
        for snap, error, message in cases:
            calls = [
                (StatsSnapshot.from_dict, snap.to_dict()),
                (build_graph, snap),
                (analyze_snapshot, snap),
            ]
            for call, argument in calls:
                with pytest.raises(error) as raised:
                    call(argument)
                assert str(raised.value) == message

    def test_render_table_contains_headline_rows(self):
        table = render_table(analyze_snapshot(self.make_snapshot()))
        for label in (
            "Total registered agents",
            "Giant component",
            "Avg. clustering coefficient",
            "Global transitivity",
            "Graph density (non-self)",
            "Modal trust degree",
        ):
            assert label in table

    def test_report_to_dict_round_trips_histogram_keys(self):
        report = analyze_snapshot(self.make_snapshot())
        doc = report.to_dict()
        assert all(isinstance(k, str) for k in doc["degree_histogram_api"])
        assert doc["node_count"] == report.node_count
