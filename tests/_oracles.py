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

Shared reference data closes the module: the census of the observed
626-agent network, the RFC 7748 and AES-256-GCM vectors, and the hypothesis
strategies for JSON values that the reader fuzz tests draw from.
"""

from __future__ import annotations

import json
import math
import random

from hypothesis import strategies as st


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


# --- reference data ---

# Frozen reference census of the observed 626-agent network (API-degree
# histogram): the fixed reference the analyzer must reproduce statistics from.
REFERENCE_API_HISTOGRAM = {
    0: 9, 1: 38, 2: 76, 3: 102, 4: 70, 5: 50, 6: 51, 7: 39, 8: 35, 9: 23,
    10: 21, 11: 24, 12: 19, 13: 13, 14: 9, 15: 11, 16: 8, 17: 8, 18: 6,
    19: 5, 20: 4, 21: 2, 28: 1, 29: 1, 39: 1,
}

REFERENCE_NODE_COUNT = 626
REFERENCE_NONSELF_EDGES = 1567
REFERENCE_SELF_LOOPS = 401
REFERENCE_TRIANGLES = 5061
REFERENCE_OPEN_TRIPLES = 13168
REFERENCE_ASSIGNMENTS = 917
REFERENCE_UNIQUE_TAGS = 276

# RFC 7748 sections 5.2 and 6.1 test vectors.
X25519_SCALARMULT_VECTORS = [
    (
        "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
        "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552",
    ),
    (
        "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
        "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
        "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957",
    ),
]

X25519_DH_VECTOR = {
    "a_private": "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
    "a_public": "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a",
    "b_private": "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
    "b_public": "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f",
    "shared": "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742",
}

# AES-256-GCM canonical vectors (zero-key cases and the feffe992... case)
GCM_VECTORS = [
    {
        "key": "00" * 32,
        "iv": "00" * 12,
        "plaintext": "",
        "aad": "",
        "ciphertext": "",
        "tag": "530f8afbc74536b9a963b4f1c4cb738b",
    },
    {
        "key": "00" * 32,
        "iv": "00" * 12,
        "plaintext": "00" * 16,
        "aad": "",
        "ciphertext": "cea7403d4d606b6e074ec5d3baf39d18",
        "tag": "d0d1c8a799996bf0265b98b5d48ab919",
    },
    {
        "key": "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
        "iv": "cafebabefacedbaddecaf888",
        "plaintext": (
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
        ),
        "aad": "",
        "ciphertext": (
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
            "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad"
        ),
        "tag": "b094dac5d93471bdec1a502270e3cc6c",
    },
    {
        "key": "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
        "iv": "cafebabefacedbaddecaf888",
        "plaintext": (
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
        ),
        "aad": "feedfacedeadbeeffeedfacedeadbeefabaddad2",
        "ciphertext": (
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
            "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
        ),
        "tag": "76fc6ece0f4e1768cddf8853bb2d551b",
    },
]


# --- hypothesis strategies ---

# Any JSON value, nested up to 8 leaves.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=8,
)
# Numbers a JSON text may hold, integers beyond a float's range included.
numbers = (
    st.integers()
    | st.integers(min_value=2**1024).flatmap(lambda i: st.sampled_from([i, -i]))
    | st.floats()
)
