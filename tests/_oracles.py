"""Independent brute-force implementations used as test oracles.

The graph oracles work on a dense adjacency matrix with exhaustive
enumeration — deliberately naive, sharing no code with the package under
test. The snapshot oracle is the general-purpose JSON encoder that the
snapshot writer must match byte for byte, over the document form built here.
The trace and event-log oracles are whole lists of lines, against which the
chunked line writers are checked. The tail-fit oracle is a table of scipy
fits recorded before the fit was ported to pure math. The tag-draw oracle
rebuilds the list of entries left before every pick. record_trust stores a
trust pair directly, as the relay does on a CONFIRM, for tests that build a
registry's edges without handshakes.
"""

from __future__ import annotations

import json
import math
import random


def snapshot_document(snapshot) -> dict:
    """The snapshot as a JSON document, fields in the order of the contract."""
    return {
        "generated_at": snapshot.generated_at,
        "requests_served": snapshot.requests_served,
        "requests_per_agent": snapshot.requests_per_agent,
        "networks": [net._asdict() for net in snapshot.networks],
        "nodes": [{**node._asdict(), "tags": list(node.tags)} for node in snapshot.nodes],
        "trust_edges": [{"a": a, "b": b} for a, b in snapshot.trust_edges],
        "summary_trust_links": snapshot.summary_trust_links,
    }


def reference_snapshot_json(snapshot) -> str:
    """The snapshot document as json.dumps lays out any indent-2 document."""
    return json.dumps(snapshot_document(snapshot), indent=2, separators=(",", ": ")) + "\n"


def trace_lines(trace) -> list[str]:
    """Every line of a growth trace, in one list."""
    return [event.to_line() for event in trace.events]


def event_lines(result) -> list[str]:
    """Every line of a scenario's event log, in one list, by json.dumps."""
    return [json.dumps(event, separators=(",", ":")) for event in result.events]


def record_trust(registry, a, b) -> bool:
    """Store the trust pair {a, b} as one request; False when already present."""
    registry.requests_served += 1
    return registry._record_trust_pair(a, b)


class BruteGraph:
    """Dense-matrix graph over integer vertices 0..n-1 (non-self edges)."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.matrix = [[0] * n for _ in range(n)]

    def add_edge(self, a: int, b: int) -> None:
        if a != b:
            self.matrix[a][b] = 1
            self.matrix[b][a] = 1

    def degrees(self) -> list[int]:
        return [sum(row) for row in self.matrix]

    def degree_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for k in self.degrees():
            hist[k] = hist.get(k, 0) + 1
        return dict(sorted(hist.items()))

    def triangle_count(self) -> int:
        count = 0
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if not self.matrix[i][j]:
                    continue
                for k in range(j + 1, self.n):
                    if self.matrix[j][k] and self.matrix[i][k]:
                        count += 1
        return count

    def local_clustering(self) -> list[float]:
        values = []
        for v in range(self.n):
            neighbors = [u for u in range(self.n) if self.matrix[v][u]]
            k = len(neighbors)
            pairs = k * (k - 1) // 2
            if pairs == 0:
                values.append(0.0)
                continue
            closed = 0
            for i in range(k):
                for j in range(i + 1, k):
                    if self.matrix[neighbors[i]][neighbors[j]]:
                        closed += 1
            values.append(closed / pairs)
        return values

    def connected_triples(self) -> int:
        return sum(k * (k - 1) // 2 for k in self.degrees())

    def component_sizes(self) -> list[int]:
        seen = [False] * self.n
        sizes = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            size = 0
            while stack:
                v = stack.pop()
                size += 1
                for u in range(self.n):
                    if self.matrix[v][u] and not seen[u]:
                        seen[u] = True
                        stack.append(u)
            sizes.append(size)
        return sorted(sizes, reverse=True)


def random_edge_list(
    rng: random.Random, max_nodes: int = 50
) -> tuple[int, list[tuple[int, int]]]:
    """A random graph as (n, edges), self-loops included occasionally."""
    n = rng.randint(2, max_nodes)
    p = rng.uniform(0.02, 0.30)
    edges: list[tuple[int, int]] = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                edges.append((a, b))
        if rng.random() < 0.15:
            edges.append((a, a))
    return n, edges


def reference_tag_draw(model, rng: random.Random) -> tuple[str, ...]:
    """TagModel.draw by successive weighted sampling without replacement.

    Before each pick it rebuilds the list of entries not yet picked and sums
    their weights; one random() scaled to that sum is walked along the running
    sum, and the first entry whose running sum passes it is picked (the last
    entry if rounding leaves none). The untagged test and the count draw are
    the model's own.
    """
    if rng.random() < model.untagged_probability:
        return ()
    count = rng.choices((1, 2, 3), weights=model.count_distribution)[0]
    left = list(model.vocabulary)
    picked = []
    for _ in range(min(count, len(left))):
        x = rng.random() * sum(weight for _, weight in left)
        running = 0.0
        for index, (_, weight) in enumerate(left):
            running += weight
            if running > x:
                break
        picked.append(left.pop(index)[0])
    return tuple(picked)


def tail_sampler_power_law(
    rng: random.Random, gamma: float, k_min: int, size: int
) -> dict[int, int]:
    """Discrete power-law tail via inverse transform on the shifted
    continuous Pareto, rounded to the nearest integer (so the half-unit
    offset convention holds exactly)."""
    x0 = k_min - 0.5
    hist: dict[int, int] = {}
    for _ in range(size):
        u = rng.random()
        x = x0 * (1.0 - u) ** (-1.0 / (gamma - 1.0))
        k = int(x + 0.5)
        hist[k] = hist.get(k, 0) + 1
    return hist


def tail_sampler_exponential(
    rng: random.Random, rate: float, k_min: int, size: int
) -> dict[int, int]:
    x0 = k_min - 0.5
    hist: dict[int, int] = {}
    for _ in range(size):
        x = x0 - math.log(1.0 - rng.random()) / rate
        k = int(x + 0.5)
        hist[k] = hist.get(k, 0) + 1
    return hist


def tail_sampler_lognormal(
    rng: random.Random, mu: float, sigma: float, k_min: int, size: int
) -> dict[int, int]:
    """Truncated log-normal tail by rejection."""
    x0 = k_min - 0.5
    hist: dict[int, int] = {}
    drawn = 0
    while drawn < size:
        x = rng.lognormvariate(mu, sigma)
        if x < x0:
            continue
        k = int(x + 0.5)
        hist[k] = hist.get(k, 0) + 1
        drawn += 1
    return hist


# The order of the fields in a recorded scipy tail fit.
SCIPY_FIT_FIELDS = (
    "best_model", "gamma", "loglik_powerlaw", "loglik_exponential",
    "loglik_lognormal", "lognormal_mu", "lognormal_sigma",
)


def assert_matches_scipy_fit(
    fit: dict, recorded: tuple, lognormal_abs: float = 1e-6
) -> None:
    """A tail fit (PowerLawFit fields) against a fit scipy 1.17 and numpy 2.4 made.

    The chosen model must be equal. Summation order moves gamma and the two
    closed-form log-likelihoods by a few ulps; where the simplex stops moves
    the log-normal parameters and log-likelihood.
    """
    expected = dict(zip(SCIPY_FIT_FIELDS, recorded))
    assert fit["best_model"] == expected["best_model"]
    for field, rel_tol, abs_tol in (
        ("gamma", 1e-12, 0.0),
        ("loglik_powerlaw", 1e-12, 0.0),
        ("loglik_exponential", 1e-12, 0.0),
        ("loglik_lognormal", 0.0, lognormal_abs),
        ("lognormal_mu", 1e-3, 0.0),
        ("lognormal_sigma", 1e-3, 0.0),
    ):
        close = math.isclose(fit[field], expected[field], rel_tol=rel_tol, abs_tol=abs_tol)
        assert close, (field, fit[field], expected[field])
