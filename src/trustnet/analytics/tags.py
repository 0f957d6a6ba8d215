"""Capability-tag statistics: diversity, entropy, and thematic clusters."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from ..snapshot import StatsSnapshot

# Thematic groupings of related capability tags. Cluster membership counts
# an agent once per cluster (an agent with two matching tags still counts
# once), and one agent may belong to several clusters. "documentation"
# intentionally appears in two clusters.
DEFAULT_TAG_CLUSTERS: dict[str, tuple[str, ...]] = {
    "data-analytics": (
        "analytics",
        "reporting",
        "sentiment-analysis",
        "research",
        "documentation",
    ),
    "wellness-lifestyle": (
        "fitness",
        "meditation",
        "mindfulness",
        "nutrition",
        "wellness",
        "recipes",
        "coaching",
    ),
    "career-professional": (
        "resume-review",
        "interview-prep",
        "career-coaching",
        "skill-assessment",
        "learning-paths",
        "onboarding",
    ),
    "engineering-development": (
        "code-review",
        "debugging",
        "api-management",
        "documentation",
        "task-management",
    ),
}
TOP_TAGS = 15


@dataclass(frozen=True)
class TagStats:
    """Tag census over one snapshot."""

    agents_with_tags: int
    assignments_total: int
    unique_tags: int
    mean_tags_per_agent: float
    max_tags_per_agent: int
    type_token_ratio: float
    shannon_entropy_bits: float
    max_entropy_bits: float
    singleton_tag_count: int
    top_k: tuple[tuple[str, int], ...]
    cluster_sizes: dict[str, int]


def entropy_bits(frequencies: Sequence[int]) -> float:
    """Shannon entropy of a frequency distribution, in bits."""
    total = sum(frequencies)
    if total == 0:
        return 0.0
    result = 0.0
    for count in frequencies:
        if count > 0:
            p = count / total
            result -= p * math.log2(p)
    return result


def tag_stats(snapshot: StatsSnapshot) -> TagStats:
    """All tag statistics; entropy is over assignment frequencies.

    top_k holds the TOP_TAGS most assigned tags, and cluster_sizes counts
    the agents in each of DEFAULT_TAG_CLUSTERS.
    """
    counts: Counter[str] = Counter()
    agents_with_tags = 0
    max_tags = 0
    for node in snapshot.nodes:
        if node.tags:
            agents_with_tags += 1
            max_tags = max(max_tags, len(node.tags))
            counts.update(node.tags)
    assignments = sum(counts.values())
    unique = len(counts)
    node_count = len(snapshot.nodes)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    cluster_sizes = {}
    for name, members in DEFAULT_TAG_CLUSTERS.items():
        member_set = set(members)
        cluster_sizes[name] = sum(
            1 for node in snapshot.nodes if member_set.intersection(node.tags)
        )
    type_token_ratio, max_entropy_bits = tag_stats_from_counts(assignments, unique)
    return TagStats(
        agents_with_tags=agents_with_tags,
        assignments_total=assignments,
        unique_tags=unique,
        mean_tags_per_agent=assignments / node_count if node_count else 0.0,
        max_tags_per_agent=max_tags,
        type_token_ratio=type_token_ratio,
        shannon_entropy_bits=entropy_bits(list(counts.values())),
        max_entropy_bits=max_entropy_bits,
        singleton_tag_count=sum(1 for count in counts.values() if count == 1),
        top_k=tuple(ranked[:TOP_TAGS]),
        cluster_sizes=cluster_sizes,
    )


def tag_stats_from_counts(
    assignments_total: int, unique_tags: int
) -> tuple[float, float]:
    """(type_token_ratio, max_entropy_bits) from census totals alone."""
    ttr = unique_tags / assignments_total if assignments_total else 0.0
    max_entropy = math.log2(unique_tags) if unique_tags else 0.0
    return ttr, max_entropy
