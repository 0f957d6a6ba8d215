"""Tests for the generative growth model."""

import copy
import json
import math
import random
import threading
from collections import Counter
from dataclasses import replace
from statistics import mean

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import json_values, reference_tag_draw, snapshot_document, trace_lines
from trustnet.errors import (
    ConfigInvalidError,
    SchemaViolationError,
    TrustNetError,
    UnknownParameterError,
    UnknownPresetError,
)
from trustnet.growth import (
    MECHANISMS,
    AttachmentGraph,
    GrowthConfig,
    GrowthEvent,
    GrowthTrace,
    LinkAttempt,
    MechanismMix,
    TagModel,
    default_tag_model,
    default_tag_vocabulary,
    fixed_choice,
    generate,
    geometric,
    one_plus_poisson,
    pick_target,
    poisson,
    preset,
    preset_names,
    set_parameter,
    sweep,
)
from trustnet.analytics import analyze_snapshot, build_graph, clustering
from trustnet.overlay import VirtualAddress
from trustnet.snapshot import StatsSnapshot, compact_json


def small_config(**overrides) -> GrowthConfig:
    base = dict(n=60, seed=7)
    base.update(overrides)
    return GrowthConfig(**base)


class TestSamplers:
    def test_poisson_mean(self):
        rng = random.Random(0)
        draws = [poisson(rng, 3.0) for _ in range(20_000)]
        assert mean(draws) == pytest.approx(3.0, abs=0.05)

    def test_poisson_zero_mean(self):
        rng = random.Random(0)
        assert poisson(rng, 0.0) == 0

    def test_one_plus_poisson_minimum(self):
        rng = random.Random(1)
        draws = [one_plus_poisson(rng, 1.6) for _ in range(5_000)]
        assert min(draws) >= 1
        assert mean(draws) == pytest.approx(1.6, abs=0.05)

    def test_geometric_mean_and_minimum(self):
        rng = random.Random(2)
        draws = [geometric(rng, 6.0) for _ in range(20_000)]
        assert min(draws) >= 1
        assert mean(draws) == pytest.approx(6.0, abs=0.15)

    def test_geometric_degenerate_mean(self):
        rng = random.Random(3)
        assert geometric(rng, 1.0) == 1
        assert geometric(rng, 0.5) == 1


class TestTagModel:
    def test_untagged_probability_one_gives_no_tags(self):
        model = TagModel(vocabulary=(("a", 1.0),), untagged_probability=1.0)
        rng = random.Random(0)
        assert all(model.draw(rng) == () for _ in range(50))

    def test_untagged_probability_zero_always_tags(self):
        model = default_tag_model(untagged_probability=0.0)
        rng = random.Random(0)
        draws = [model.draw(rng) for _ in range(200)]
        assert all(1 <= len(tags) <= 3 for tags in draws)

    def test_no_duplicate_tags_within_agent(self):
        model = default_tag_model(untagged_probability=0.0)
        rng = random.Random(1)
        for _ in range(300):
            tags = model.draw(rng)
            assert len(tags) == len(set(tags))

    def test_count_capped_by_vocabulary(self):
        model = TagModel(
            vocabulary=(("only", 5.0),),
            untagged_probability=0.0,
            count_distribution=(0.0, 0.0, 1.0),
        )
        rng = random.Random(2)
        assert model.draw(rng) == ("only",)

    def test_heavier_tags_drawn_more_often(self):
        model = TagModel(
            vocabulary=(("heavy", 50.0), ("light", 1.0)),
            untagged_probability=0.0,
            count_distribution=(1.0, 0.0, 0.0),
        )
        rng = random.Random(3)
        draws = [model.draw(rng)[0] for _ in range(500)]
        assert draws.count("heavy") > 400

    def test_default_vocabulary_census_scale(self):
        # the default vocabulary is tuned for a 626-agent census: roughly
        # 276 unique tags, 131 singletons, 917 assignments
        model = default_tag_model()
        uniques, singles, assignments = [], [], []
        for seed in range(5):
            rng = random.Random(seed)
            counts: dict[str, int] = {}
            for _ in range(626):
                for tag in model.draw(rng):
                    counts[tag] = counts.get(tag, 0) + 1
            uniques.append(len(counts))
            singles.append(sum(1 for c in counts.values() if c == 1))
            assignments.append(sum(counts.values()))
        assert mean(uniques) == pytest.approx(276, abs=20)
        assert mean(singles) == pytest.approx(131, abs=20)
        assert mean(assignments) == pytest.approx(917, abs=45)

    def test_vocabulary_head_weights(self):
        vocabulary = dict(default_tag_vocabulary())
        assert vocabulary["analytics"] == 72.0
        assert vocabulary["writing"] == 43.0
        assert len(vocabulary) > 400


# 1e300 absorbs every light weight beside it in the cumulative sums.
tag_weights = st.sampled_from([1.0, 3.0, 1e300]) | st.floats(0.01, 100.0)


@given(
    vocabulary=st.lists(
        st.tuples(st.text("abc", max_size=2), tag_weights), min_size=1, max_size=6
    ),
    untagged=st.sampled_from([0.0, 0.5]),
    counts=st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(lambda c: sum(c) > 0),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=200, deadline=None)
def test_tag_draw_equals_reference(vocabulary, untagged, counts, seed):
    model = TagModel(tuple(vocabulary), untagged, counts)
    rng, twin = random.Random(seed), random.Random(seed)
    for _ in range(10):
        assert model.draw(rng) == reference_tag_draw(model, twin)
    assert rng.getstate() == twin.getstate()


def test_tag_draw_ordered_pair_law():
    # P(a then b) = w_a / W * w_b / (W - w_a). Each of the 12 frequencies over
    # 40,000 seeded draws must lie within 5 standard errors of it.
    weights = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
    model = TagModel(tuple(weights.items()), 0.0, (0.0, 1.0, 0.0))
    rng = random.Random(21)
    draws = 40_000
    seen = Counter(model.draw(rng) for _ in range(draws))
    total = sum(weights.values())
    expected = {
        (a, b): wa / total * wb / (total - wa)
        for a, wa in weights.items()
        for b, wb in weights.items()
        if a != b
    }
    assert set(seen) == set(expected)
    for pair, p in expected.items():
        error = 5 * math.sqrt(p * (1 - p) / draws)
        assert seen[pair] / draws == pytest.approx(p, abs=error), pair


def numbered_model(weights, count: int, untagged: float = 0.0) -> TagModel:
    """Tags t0, t1, ... with these weights; a tagged draw asks for count tags."""
    vocabulary = tuple((f"t{i}", weight) for i, weight in enumerate(weights))
    return TagModel(vocabulary, untagged, tuple(float(c == count) for c in (1, 2, 3)))


class CountingRandom(random.Random):
    """A Random that counts its random() calls, rng.choices' included."""

    calls = 0

    def random(self) -> float:
        self.calls += 1
        return super().random()


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("size", [1, 2, 3, 5])
def test_tag_draw_makes_one_random_call_per_tag(count, size):
    weights = [float(i + 1) for i in range(size)]
    tagged = numbered_model(weights, count)
    untagged = numbered_model(weights, count, untagged=1.0)
    rng = CountingRandom(count * 10 + size)
    for _ in range(50):
        before = rng.calls
        assert len(tagged.draw(rng)) == min(count, size)
        assert rng.calls - before == 2 + min(count, size)
        before = rng.calls
        assert untagged.draw(rng) == ()
        assert rng.calls - before == 1


def test_default_tag_draw_makes_one_random_call_per_tag():
    model = default_tag_model()
    rng = CountingRandom(5)
    for _ in range(2_000):
        before = rng.calls
        tags = model.draw(rng)
        assert rng.calls - before == (2 + len(tags) if tags else 1)


class ScriptedRandom(random.Random):
    """A Random whose random() returns the given values in turn."""

    def __init__(self, values) -> None:
        super().__init__(0)
        self.values = iter(values)

    def random(self) -> float:
        return next(self.values)


TOP = 1 - 2**-53  # the largest random()


# The first two values pass the untagged test and draw the count. A random()
# of 0.0 puts each later pick exactly on a picked entry's lower bound; TOP puts
# each pick at the top of the weight left; in the last case the carry past
# entry 0 rounds x up to the end of the cumulative weights.
@pytest.mark.parametrize(
    "weights, values, expected",
    [
        ((1.0, 1.0, 2.0), [0.5] * 2 + [0.0] * 3, ("t0", "t1", "t2")),
        ((1.0, 1.0, 2.0), [0.5] * 2 + [TOP] * 3, ("t2", "t1", "t0")),
        ((2.0, 2.0), [0.5, 0.5, 0.0, TOP], ("t0", "t1")),
    ],
    ids=["zero", "top", "carry-past-the-end"],
)
def test_tag_draw_at_the_ends_of_random(weights, values, expected):
    model = numbered_model(weights, len(expected))
    assert model.draw(ScriptedRandom(values)) == expected
    assert reference_tag_draw(model, ScriptedRandom(values)) == expected


@pytest.mark.parametrize(
    "weights, count",
    [
        ((1e300, 0.01), 2),
        ((0.01, 1e300), 2),
        ((1e300, 0.5, 0.5), 3),
        ((5e-324, 1.0), 2),
        ((1.0, 5e-324), 2),
        ((1.0,), 3),
    ],
    ids=["heavy-light", "light-heavy", "heavy-light-light", "subnormal-first",
         "subnormal-last", "one-entry-count-3"],
)
def test_tag_draw_is_bounded_when_rounding_hides_entries(weights, count):
    """Entries with zero width in the cumulative sums still come out distinct."""
    model = numbered_model(weights, count)
    rng = CountingRandom(3)
    draws = []

    def run() -> None:
        draws.extend(model.draw(rng) for _ in range(2_000))

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    picks = min(count, len(weights))
    assert len(draws) == 2_000 and rng.calls == 2_000 * (2 + picks)
    assert all(len(set(tags)) == len(tags) == picks for tags in draws)


class TestMechanismMix:
    def test_default_sums_to_one(self):
        MechanismMix().validate()

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigInvalidError):
            MechanismMix(propinquity=-0.1, preferential=0.5, triadic=0.5,
                         uniform=0.1).validate()

    def test_bad_sum_rejected(self):
        with pytest.raises(ConfigInvalidError):
            MechanismMix(propinquity=0.5, preferential=0.5, triadic=0.5,
                         uniform=0.5).validate()

    def test_with_weight_renormalizes_proportionally(self):
        mix = MechanismMix()  # 0.35 / 0.25 / 0.35 / 0.05
        updated = mix.with_weight("triadic", 0.5)
        assert updated.triadic == 0.5
        assert sum(updated.weights()) == pytest.approx(1.0, abs=1e-12)
        # the other three keep their relative proportions
        assert updated.propinquity / updated.preferential == pytest.approx(
            mix.propinquity / mix.preferential
        )

    def test_with_weight_to_one_zeroes_rest(self):
        updated = MechanismMix().with_weight("uniform", 1.0)
        assert updated.uniform == 1.0
        assert updated.propinquity == updated.preferential == updated.triadic == 0.0

    def test_with_weight_unknown_mechanism(self):
        with pytest.raises(UnknownParameterError):
            MechanismMix().with_weight("gravity", 0.5)

    def test_with_weight_out_of_range(self):
        with pytest.raises(ConfigInvalidError):
            MechanismMix().with_weight("triadic", 1.5)

    def test_dict_round_trip(self):
        mix = MechanismMix(propinquity=0.1, preferential=0.2, triadic=0.3,
                           uniform=0.4)
        assert MechanismMix.from_dict(mix.to_dict()) == mix

    def test_from_dict_unknown_key(self):
        with pytest.raises(ConfigInvalidError):
            MechanismMix.from_dict({"propinquity": 1.0, "teleport": 0.0})

    def test_draw_is_one_weighted_choice(self):
        mix = MechanismMix(propinquity=0.1, preferential=0.2, triadic=0.3,
                           uniform=0.4)
        rng, twin = random.Random(5), random.Random(5)
        for _ in range(50):
            expected = twin.choices(MECHANISMS, weights=mix.weights())[0]
            assert mix.draw(rng) == expected

    def test_draw_never_picks_zero_weight(self):
        mix = MechanismMix(propinquity=0.0, preferential=0.0, triadic=1.0,
                           uniform=0.0)
        rng = random.Random(0)
        assert {mix.draw(rng) for _ in range(100)} == {"triadic"}


# Zero weights first and last, where bisect must step past or stop short of them.
mix_weight = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
mix_weights = st.tuples(*[mix_weight] * 4).filter(lambda w: sum(w) > 0)


@given(weights=mix_weights, seed=st.integers(0, 2**32))
@example(weights=(0.0, 0.3, 0.7, 0.0), seed=0)
@example(weights=(0.0, 0.0, 0.0, 1.0), seed=1)
@settings(max_examples=200, deadline=None)
def test_fixed_weight_draws_equal_random_choices(weights, seed):
    """MechanismMix.draw and the tag-count draw pick what rng.choices picks."""
    total = sum(weights)
    mix = MechanismMix(*(w / total for w in weights))
    counts = default_tag_model().count_distribution
    draw_count = fixed_choice((1, 2, 3), counts)
    rng, twin = random.Random(seed), random.Random(seed)
    for _ in range(20):
        assert mix.draw(rng) == twin.choices(MECHANISMS, weights=mix.weights())[0]
        assert draw_count(rng) == twin.choices((1, 2, 3), weights=counts)[0]
    for population, some in ((MECHANISMS, weights), ((1, 2, 3), weights[:3])):
        if sum(some) > 0:
            draw = fixed_choice(population, some)
            assert draw(rng) == twin.choices(population, weights=some)[0]
    assert rng.random() == twin.random()


def test_fixed_choice_refuses_weights_random_choices_refuses():
    for weights in ((0.0, 0.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError):
            random.Random(0).choices("ab", weights=weights)
        with pytest.raises(ValueError):
            fixed_choice("ab", weights)


def attachment_graph() -> AttachmentGraph:
    """Nodes 1-6 attachable; newcomer 7 already linked to 2; 8 neighborless."""
    graph = AttachmentGraph()
    for node in range(1, 9):
        graph.add_node(node)
    for a, b in [(1, 2), (1, 3), (2, 4), (3, 5), (2, 6), (4, 5), (7, 2)]:
        graph.connect(a, b)
    graph.attachable.extend(range(1, 7))
    return graph


class FixedRandom(random.Random):
    """A stream whose every random() is one value."""

    def __init__(self, value: float) -> None:
        super().__init__(0)
        self.value = value

    def random(self) -> float:
        return self.value


RECENT = [5, 6]
TWO_HOP_OF_7 = [1, 4, 6]  # neighbors of 2, minus 7 itself


def drawn(mechanism, exclude=frozenset(), node=7, seed=3, count=400) -> set:
    graph = attachment_graph()
    rng = random.Random(seed)
    return {
        pick_target(mechanism, rng, node, graph, RECENT, graph.attachable, exclude)
        for _ in range(count)
    }


class TestPickTarget:
    @pytest.mark.parametrize(
        "mechanism, candidates",
        [
            ("propinquity", set(RECENT)),
            ("uniform", set(range(1, 7))),
            ("preferential", set(range(1, 7))),
            ("triadic", set(TWO_HOP_OF_7)),
        ],
    )
    def test_candidate_sets(self, mechanism, candidates):
        assert drawn(mechanism) == candidates
        assert drawn(mechanism, exclude={6}) == candidates - {6}

    @pytest.mark.parametrize(
        "mechanism, node, recent, pool, exclude",
        [
            ("propinquity", 7, [], [1, 2], frozenset()),
            ("propinquity", 7, [5, 6], [1, 2], {5, 6}),
            ("uniform", 7, [5], [], frozenset()),
            ("preferential", 7, [5], [], frozenset()),
            ("preferential", 7, [5], [1, 2], {1, 2}),
            ("triadic", 8, [5], [1, 2], frozenset()),
            ("triadic", 7, [5], [1, 2], set(TWO_HOP_OF_7)),
        ],
    )
    def test_empty_candidates_return_none_without_a_draw(
        self, mechanism, node, recent, pool, exclude
    ):
        rng = random.Random(11)
        before = rng.getstate()
        graph = attachment_graph()
        assert pick_target(mechanism, rng, node, graph, recent, pool, exclude) is None
        assert rng.getstate() == before

    def test_preferential_weights_degree_plus_one(self):
        graph = attachment_graph()
        pool = graph.attachable
        rng, twin = random.Random(9), random.Random(9)
        weights = [graph.degree[v] + 1 for v in pool]
        assert weights == [3, 5, 3, 3, 3, 2]
        for _ in range(100):
            expected = twin.choices(pool, weights=weights)[0]
            assert pick_target("preferential", rng, 7, graph, RECENT, pool) == expected

    @pytest.mark.parametrize("value", [1 - 2**-53, 1.0])
    def test_preferential_top_draw_is_the_last_node(self, value):
        # 1 - 2**-53 is the largest random(); 1.0 lands on the total itself,
        # where random.choices caps the index at len - 1.
        graph = attachment_graph()
        stub = FixedRandom(value)
        pool = graph.attachable
        assert pick_target("preferential", stub, 7, graph, RECENT, pool) == 6
        assert pick_target("preferential", stub, 7, graph, RECENT, pool[:]) == 6

    def test_triadic_draws_from_sorted_two_hop(self):
        graph = attachment_graph()
        rng, twin = random.Random(9), random.Random(9)
        for _ in range(100):
            expected = twin.choice(TWO_HOP_OF_7)
            assert pick_target("triadic", rng, 7, graph, RECENT, [1]) == expected

    def test_uniform_and_propinquity_are_one_choice(self):
        graph = attachment_graph()
        rng, twin = random.Random(4), random.Random(4)
        for _ in range(50):
            assert pick_target("uniform", rng, 7, graph, RECENT, [1, 3]) == (
                twin.choice([1, 3])
            )
            assert pick_target("propinquity", rng, 7, graph, RECENT, [1]) == (
                twin.choice(RECENT)
            )

    def test_unknown_mechanism(self):
        graph = attachment_graph()
        with pytest.raises(UnknownParameterError):
            pick_target("gravity", random.Random(0), 7, graph, RECENT, [1])


# Operations on an AttachmentGraph, each with two free indices; connect is
# listed twice so that degrees grow between draws.
graph_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "connect", "connect", "append", "extend", "draw"]),
        st.integers(0, 50),
        st.integers(0, 50),
    ),
    min_size=20,
    max_size=120,
)


@pytest.mark.parametrize(
    "make_node", [int, lambda i: VirtualAddress(0, i)], ids=["int", "address"]
)
@given(ops=graph_ops, seed=st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_tree_draw_equals_choices(make_node, ops, seed):
    """Preferential draws over ``attachable``, however it and the degrees grew,
    pick what random.choices picks from the same stream."""
    graph = AttachmentGraph()
    nodes, waiting = [], []  # every node; those not yet attachable
    rng, twin = random.Random(seed), random.Random(seed)
    for op, i, j in ops:
        if op == "add" or not nodes:
            nodes.append(make_node(len(nodes) + 1))
            graph.add_node(nodes[-1])
            waiting.append(nodes[-1])
        elif op == "connect":
            graph.connect(nodes[i % len(nodes)], nodes[j % len(nodes)])
        elif op == "append" and waiting:
            graph.attachable.append(waiting.pop(i % len(waiting)))
        elif op == "extend":
            graph.attachable.extend(waiting[:i])
            del waiting[:i]
        elif op == "draw" and graph.attachable:
            pool = graph.attachable
            weights = [graph.degree[v] + 1 for v in pool]
            for _ in range(1 + j % 8):
                expected = twin.choices(pool, weights=weights)[0]
                got = pick_target("preferential", rng, nodes[0], graph, [], pool)
                assert got == expected
            assert rng.getstate() == twin.getstate()


class TestGrowthConfig:
    def test_defaults_validate(self):
        GrowthConfig().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 1},
            {"self_loop_probability": 1.5},
            {"isolate_probability": -0.1},
            {"untagged_probability": 2.0},
            {"stub_mean": 0.5},
            {"window": 0},
            {"session_mean": -1.0},
            {"connector_fraction": 1.5},
            {"connector_stub_mean": -2.0},
            {"connector_fraction": 0.1, "connector_stub_mean": 0.5},
            {"untagged_probability": -0.5},
            {"isolate_probability": 1.01},
            {"mix": MechanismMix(propinquity=0.5)},
            {"n": "10"},
            {"n": 10.0},
            {"n": True},
            {"window": 2.5},
            {"seed": 1.5},
            {"seed": "7"},
            {"stub_mean": "3"},
            {"self_loop_probability": None},
            {"connector_fraction": False},
            {"untagged_probability": "0.4"},
            {"mix": MechanismMix(propinquity=0.7, preferential=-0.1)},
            {"stub_mean": float("nan")},
            {"session_mean": float("inf")},
            {"connector_stub_mean": 10**400},
            {"seed": -1},
            {"seed": 2**64},
            {"mix": None},
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigInvalidError):
            GrowthConfig(**overrides).validate()

    @pytest.mark.parametrize(
        "doc",
        [
            {"mix": {"triadic": "x"}},
            {"tags_per_tagged": ["a", 1, 1]},
            {"tags_per_tagged": 5},
            {"tag_vocabulary": [["a", "x"]]},
            {"tag_vocabulary": [1]},
            {"tags_per_tagged": [1, float("nan"), 1]},
            {"stub_mean": float("nan")},
            {"session_mean": 10**400},
        ],
    )
    def test_invalid_documents_rejected(self, doc):
        with pytest.raises(ConfigInvalidError):
            GrowthConfig.from_dict(doc)

    def test_dict_round_trip(self):
        config = small_config(session_mean=5.0, connector_fraction=0.05,
                              connector_stub_mean=10.0)
        rebuilt = GrowthConfig.from_dict(config.to_dict())
        assert rebuilt.to_dict() == config.to_dict()

    def test_from_dict_unknown_field(self):
        with pytest.raises(ConfigInvalidError):
            GrowthConfig.from_dict({"n": 10, "gravity": True})

    def test_from_dict_non_object(self):
        with pytest.raises(ConfigInvalidError):
            GrowthConfig.from_dict([1, 2, 3])


class TestPresets:
    def test_paper_preset_exists(self):
        assert "paper-2026" in preset_names()

    def test_paper_preset_fields(self):
        config = preset("paper-2026")
        assert config.n == 626
        assert config.self_loop_probability == 0.64
        assert config.untagged_probability == 0.42
        config.validate()

    def test_unknown_preset(self):
        with pytest.raises(UnknownPresetError):
            preset("paper-1999")


# Quotes, backslashes, control characters, non-ASCII and lone surrogates.
trace_text = st.text(st.sampled_from('a"\\\n\x00\u00e9\u2603\ud800') | st.characters(),
                     max_size=6)
link_attempts = st.builds(
    LinkAttempt,
    mechanism=st.sampled_from(MECHANISMS) | trace_text,
    target=st.none() | trace_text,
    accepted=st.booleans(),
)
growth_events = st.builds(
    GrowthEvent,
    index=st.integers(0, 2**64),
    address=trace_text,
    self_loop=st.booleans(),
    isolate=st.booleans(),
    attempts=st.lists(link_attempts, max_size=4).map(tuple),
    tags=st.lists(trace_text, max_size=3).map(tuple),
)


def event_dict(event: GrowthEvent) -> dict:
    return {
        "index": event.index,
        "address": event.address,
        "self_loop": event.self_loop,
        "isolate": event.isolate,
        "attempts": [
            {"mechanism": a.mechanism, "target": a.target, "accepted": a.accepted}
            for a in event.attempts
        ],
        "tags": list(event.tags),
    }


def as_read(event: GrowthEvent) -> GrowthEvent:
    """The event a JSON reader gets back from its line: each text through
    json.loads(json.dumps(text)), which reads a high-then-low pair of lone
    surrogates as the one character their two escapes spell."""

    def text(value):
        return value if value is None else json.loads(json.dumps(value))

    return event._replace(
        address=text(event.address),
        attempts=tuple(
            attempt._replace(mechanism=text(attempt.mechanism), target=text(attempt.target))
            for attempt in event.attempts
        ),
        tags=tuple(map(text, event.tags)),
    )


SURROGATE_PAIR = chr(0xD800) + chr(0xDC00)  # written "\ud800\udc00", read as U+10000


@given(event=growth_events)
@example(event=GrowthEvent(1, "0:0000.0000.0001", True, True, (), ()))
@example(event=GrowthEvent(2, "x", False, False,
                           (LinkAttempt("triadic", None, False),), ('"q\\',)))
@example(event=GrowthEvent(3, SURROGATE_PAIR, False, False,
                           (LinkAttempt(SURROGATE_PAIR, SURROGATE_PAIR, True),),
                           ("a" + SURROGATE_PAIR,)))
@settings(max_examples=300, deadline=None)
def test_trace_writer_matches_compact_json(event):
    line = event.to_line()
    assert line == compact_json(event_dict(event))
    assert GrowthEvent.from_line(line) == as_read(event)


TRACE_DOC = event_dict(GrowthEvent(
    3, "0:0000.0000.0004", True, False,
    (LinkAttempt("triadic", "0:0000.0000.0001", True), LinkAttempt("uniform", None, False)),
    ("coding", "writing"),
))


def trace_key_paths(doc, prefix=()) -> list[tuple]:
    """Every object key of a trace line's document, through the attempts list too."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    paths = []
    for key, value in items:
        if isinstance(doc, dict):
            paths.append(prefix + (key,))
        if isinstance(value, (dict, list)):
            paths.extend(trace_key_paths(value, prefix + (key,)))
    return paths


@given(data=st.data())
@settings(max_examples=500)
def test_trace_reader_raises_only_trustnet_errors(data):
    """One key, at any depth, replaced by any JSON value: an event that
    round-trips through to_line, or a TrustNetError, never another exception."""
    path = data.draw(st.sampled_from(trace_key_paths(TRACE_DOC)))
    doc = copy.deepcopy(TRACE_DOC)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(json_values)
    try:
        event = GrowthEvent.from_line(json.dumps(doc))
    except TrustNetError:
        return
    assert GrowthEvent.from_line(event.to_line()) == event


@pytest.mark.parametrize(
    "line",
    ["{}", "[]", "7", json.dumps(dict(TRACE_DOC, attempts=[1])),
     json.dumps(dict(TRACE_DOC, tags="coding")), json.dumps(dict(TRACE_DOC, isolate=0))],
)
def test_bad_trace_line_is_a_schema_violation(line):
    with pytest.raises(SchemaViolationError, match="growth trace line"):
        GrowthEvent.from_line(line)


def test_trace_read_names_the_bad_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    good = json.dumps(TRACE_DOC).encode()
    path.write_bytes(good + b"\n\n" + good[:-1] + b', "index": -1}\n')
    with pytest.raises(SchemaViolationError, match="growth trace line 3.index may not be"):
        GrowthTrace.read(path)
    path.write_bytes(good + b"\n" + b'{"address": "\xff"}\n')
    with pytest.raises(SchemaViolationError, match="growth trace line 2 is not valid JSON"):
        GrowthTrace.read(path)
    path.write_bytes(good + b"\n\n")
    assert GrowthTrace.read(path).events == [GrowthEvent.from_line(good)]


class TestGenerate:
    def test_deterministic_for_fixed_seed(self):
        config = small_config()
        first_snapshot, first_trace = generate(config)
        second_snapshot, second_trace = generate(config)
        assert first_snapshot.to_json() == second_snapshot.to_json()
        assert trace_lines(first_trace) == trace_lines(second_trace)

    def test_different_seeds_differ(self):
        a, _ = generate(small_config(seed=1))
        b, _ = generate(small_config(seed=2))
        assert a.to_json() != b.to_json()

    def test_snapshot_equals_trace_replay(self):
        snapshot, trace = generate(small_config())
        assert trace.replay().to_json() == snapshot.to_json()

    def test_generate_parses_no_address(self, monkeypatch):
        """Replay keeps event order, which is address order; no text is parsed."""
        parsed = []
        from_text = VirtualAddress.from_text

        def counted(cls, text):
            parsed.append(text)
            return from_text(text)

        monkeypatch.setattr(VirtualAddress, "from_text", classmethod(counted))
        snapshot, _ = generate(replace(preset("paper-2026"), n=2000))
        assert parsed == []
        assert [node.address for node in snapshot.nodes] == [
            VirtualAddress(0, i).to_text() for i in range(1, 2001)
        ]

    def test_trace_file_round_trip(self, tmp_path):
        snapshot, trace = generate(small_config())
        path = tmp_path / "growth.jsonl"
        trace.write(path)
        reread = GrowthTrace.read(path)
        assert trace_lines(reread) == trace_lines(trace)
        assert reread.replay().to_json() == snapshot.to_json()

    def test_two_nodes_forced_edge(self):
        # with isolates off and propinquity only, the second arrival links
        # to the first every time
        config = GrowthConfig(
            n=2,
            isolate_probability=0.0,
            mix=MechanismMix(propinquity=1.0, preferential=0.0, triadic=0.0,
                             uniform=0.0),
            seed=5,
        )
        snapshot, _ = generate(config)
        pairs = [(a, b) for a, b in snapshot.trust_edges if a != b]
        assert pairs == [("0:0000.0000.0001", "0:0000.0000.0002")]

    def test_self_loop_probability_one(self):
        snapshot, _ = generate(small_config(self_loop_probability=1.0))
        loops = {a for a, b in snapshot.trust_edges if a == b}
        assert len(loops) == 60

    def test_self_loop_probability_zero(self):
        snapshot, _ = generate(small_config(self_loop_probability=0.0))
        assert all(a != b for a, b in snapshot.trust_edges)

    def test_all_isolates_means_no_nonself_edges(self):
        snapshot, _ = generate(
            small_config(isolate_probability=1.0, self_loop_probability=0.0)
        )
        assert snapshot.trust_edges == []

    def test_isolate_intent_nodes_receive_no_links(self):
        _, trace = generate(small_config(isolate_probability=0.4, seed=11))
        isolate_addresses = {e.address for e in trace.events if e.isolate}
        assert isolate_addresses  # the draw actually fired at this seed
        for event in trace.events:
            for attempt in event.attempts:
                assert attempt.target not in isolate_addresses

    def test_no_duplicate_edges(self):
        snapshot, _ = generate(small_config(n=120, stub_mean=3.0))
        pairs = list(snapshot.trust_edges)
        assert len(pairs) == len(set(pairs))

    def test_summary_matches_edge_list(self):
        snapshot, _ = generate(small_config(n=120))
        assert snapshot.summary_trust_links == len(snapshot.trust_edges)

    def test_generated_snapshot_loads_and_audits_clean(self):
        from trustnet.analytics import consistency_audit

        snapshot, _ = generate(small_config(n=120, stub_mean=2.5))
        reloaded = StatsSnapshot.from_dict(snapshot_document(snapshot))
        assert consistency_audit(reloaded) == []

    def test_mechanism_attribution_respects_zero_weight(self):
        mix = MechanismMix(propinquity=0.6, preferential=0.4, triadic=0.0,
                           uniform=0.0)
        _, trace = generate(small_config(n=150, mix=mix))
        used = {a.mechanism for e in trace.events for a in e.attempts}
        assert "triadic" not in used
        assert "uniform" not in used

    def test_connector_class_creates_hubs(self):
        plain, _ = generate(small_config(n=300, seed=3))
        hubby, _ = generate(
            small_config(n=300, seed=3, connector_fraction=0.05,
                         connector_stub_mean=25.0)
        )
        def max_degree(snapshot):
            graph = build_graph(snapshot)
            return max(len(adjacent) for adjacent in graph.adjacency)
        assert max_degree(hubby) > max_degree(plain)

    def test_requests_served_scales_with_population(self):
        snapshot, trace = generate(small_config())
        sent = sum(
            1 for e in trace.events for a in e.attempts if a.target is not None
        )
        assert snapshot.requests_served == 60 * 235 + sent


class TestStructuralResponses:
    """Directional effects of the mechanism knobs, averaged over seeds."""

    SEEDS = range(10)

    @staticmethod
    def _mean_over_seeds(config, metric):
        values = []
        for seed in TestStructuralResponses.SEEDS:
            snapshot, _ = generate(replace(config, seed=seed))
            values.append(metric(snapshot))
        return mean(values)

    def test_triadic_weight_raises_clustering(self):
        def avg_clustering(snapshot):
            return clustering(build_graph(snapshot)).avg_all

        low = GrowthConfig(
            n=220, stub_mean=2.5,
            mix=MechanismMix(propinquity=0.55, preferential=0.35,
                             triadic=0.05, uniform=0.05),
        )
        high = GrowthConfig(
            n=220, stub_mean=2.5,
            mix=MechanismMix(propinquity=0.30, preferential=0.05,
                             triadic=0.60, uniform=0.05),
        )
        assert self._mean_over_seeds(high, avg_clustering) > self._mean_over_seeds(
            low, avg_clustering
        )

    def test_preferential_weight_raises_max_degree(self):
        def max_degree(snapshot):
            graph = build_graph(snapshot)
            return max(len(adjacent) for adjacent in graph.adjacency)

        low = GrowthConfig(
            n=220, stub_mean=2.5,
            mix=MechanismMix(propinquity=0.60, preferential=0.05,
                             triadic=0.05, uniform=0.30),
        )
        high = GrowthConfig(
            n=220, stub_mean=2.5,
            mix=MechanismMix(propinquity=0.15, preferential=0.80,
                             triadic=0.025, uniform=0.025),
        )
        assert self._mean_over_seeds(high, max_degree) > self._mean_over_seeds(
            low, max_degree
        )

    def test_small_window_shrinks_address_deltas(self):
        from trustnet.analytics import address_delta_histogram

        def mean_delta(snapshot):
            return address_delta_histogram(build_graph(snapshot)).mean_delta

        propinquity_only = MechanismMix(propinquity=1.0, preferential=0.0,
                                        triadic=0.0, uniform=0.0)
        near = GrowthConfig(n=220, window=2, mix=propinquity_only)
        far = GrowthConfig(n=220, window=100, mix=propinquity_only)
        assert self._mean_over_seeds(near, mean_delta) < self._mean_over_seeds(
            far, mean_delta
        )

    def test_sessions_fragment_the_graph(self):
        from trustnet.analytics import components

        def giant_fraction(snapshot):
            graph = build_graph(snapshot)
            return components(graph).giant_fraction

        merged = GrowthConfig(n=220, isolate_probability=0.0, session_mean=0.0)
        burst = GrowthConfig(n=220, isolate_probability=0.0, session_mean=6.0)
        assert self._mean_over_seeds(burst, giant_fraction) < self._mean_over_seeds(
            merged, giant_fraction
        )


class TestSetParameterAndSweep:
    def test_set_plain_field(self):
        config = set_parameter(small_config(), "stub_mean", "2.5")
        assert config.stub_mean == 2.5

    def test_set_integer_fields_coerced(self):
        config = set_parameter(small_config(), "n", "80")
        assert config.n == 80 and isinstance(config.n, int)
        config = set_parameter(config, "window", 4.0)
        assert config.window == 4

    def test_set_float_field_read_as_int(self):
        config = GrowthConfig.from_dict({"n": 50, "stub_mean": 3})
        assert set_parameter(config, "stub_mean", "2").stub_mean == 2.0

    def test_set_mix_component_renormalizes(self):
        config = set_parameter(small_config(), "mix.triadic", 0.7)
        assert config.mix.triadic == 0.7
        assert sum(config.mix.weights()) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_parameter(self):
        with pytest.raises(UnknownParameterError):
            set_parameter(small_config(), "gravity", 1.0)

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigInvalidError):
            set_parameter(small_config(), "isolate_probability", 1.5)

    @pytest.mark.parametrize(
        "parameter, value",
        [
            ("window", "2.5"),
            ("window", 2.5),
            ("n", "abc"),
            ("n", "3.0"),
            ("seed", float("inf")),
            ("stub_mean", "x"),
            ("session_mean", "inf"),
            ("stub_mean", "nan"),
            ("stub_mean", 1e999),
            ("mix.triadic", "nan"),
            ("mix.triadic", "x"),
            ("mix", "1"),
            ("tags_per_tagged", 1.0),
        ],
    )
    def test_non_number_values_rejected(self, parameter, value):
        with pytest.raises(ConfigInvalidError):
            set_parameter(small_config(), parameter, value)

    def test_sweep_shape_and_types(self):
        rows = sweep(small_config(n=40), "stub_mean", [1.5, 2.5], seeds=[0, 1])
        assert len(rows) == 4
        values = [(value, seed) for value, seed, _ in rows]
        assert values == [(1.5, 0), (1.5, 1), (2.5, 0), (2.5, 1)]
        for _, _, report in rows:
            assert report.node_count == 40

    def test_sweep_empty_values(self):
        assert sweep(small_config(), "stub_mean", [], seeds=[0]) == []

    def test_sweep_responds_to_parameter(self):
        rows = sweep(small_config(n=120), "self_loop_probability", [0.0, 1.0],
                     seeds=[0, 1, 2])
        loops = {value: [] for value in (0.0, 1.0)}
        for value, _, report in rows:
            loops[value].append(report.self_loop_count)
        assert mean(loops[0.0]) == 0
        assert mean(loops[1.0]) == 120


class TestPresetBands:
    """The shipped preset's structural texture at a reduced seed budget."""

    def test_preset_bands_three_seeds(self):
        config = preset("paper-2026")
        self_loops, nonself, giants, gammas = [], [], [], []
        for seed in range(3):
            snapshot, _ = generate(replace(config, seed=seed))
            report = analyze_snapshot(snapshot)
            self_loops.append(report.self_loop_count / config.n)
            nonself.append(report.mean_degree_nonself)
            giants.append(report.component_census.giant_size / config.n)
            if report.powerlaw_fit is not None:
                gammas.append(report.powerlaw_fit.gamma)
        assert 0.55 <= mean(self_loops) <= 0.73
        assert 3.5 <= mean(nonself) <= 6.5
        assert 0.5 <= mean(giants) <= 0.85
        assert gammas and 1.6 <= mean(gammas) <= 2.9
