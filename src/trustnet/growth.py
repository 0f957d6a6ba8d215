"""Generative growth model producing snapshot-shaped trust networks.

Nodes arrive sequentially and receive sequential addresses. Each arrival
independently draws a self-loop, may be an intentional isolate, and otherwise
spends a Poisson-distributed number of link stubs. Each stub picks one of
four attachment mechanisms:

    propinquity   uniform among the most recent arrivals (the "window")
    preferential  proportional to current non-self degree + 1, in O(log n)
    triadic       uniform among neighbors-of-neighbors
    uniform       uniform among all prior attached nodes

Duplicate pairs are rejected (consuming the stub). Tags come from a weighted
vocabulary with a Zipf-like tail so that type/token statistics resemble an
organically grown capability market.

Fixed-weight draws (a stub's mechanism, a tag count) bisect cumulative sums
cached per frozen mix or tag model, each node's address text is formatted
once, and the trace is written by template (``GrowthEvent.to_line``), in
chunks of lines (``snapshot.write_lines``).

Three deliberate structural choices keep fragmentation possible (without them
every non-isolate attaches to one giant cluster and small detached
communities can never form):

  * ``session_mean > 0`` partitions arrivals into bursts ("sessions") and
    scopes the propinquity window to the current session;
  * the triadic fallback to preferential fires only for nodes that already
    have at least one neighbor — a neighborless node's triadic stub fails
    instead of silently bridging into the global graph;
  * intentional isolates are excluded from every target pool.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import (
    Any, Callable, ClassVar, Iterable, NamedTuple, Optional, Sequence, Union, get_type_hints,
)

from .errors import (
    ConfigInvalidError,
    UnknownParameterError,
    UnknownPresetError,
)
from .overlay import VirtualAddress
from .snapshot import (
    BACKBONE,
    NodeView,
    StatsSnapshot,
    is_number,
    read_bool,
    read_count,
    read_fields,
    read_json,
    read_list_of,
    read_object,
    read_optional_string,
    read_string,
    read_strings,
    write_lines,
)

MECHANISMS = ("propinquity", "preferential", "triadic", "uniform")

# Nominal heartbeats per agent folded into the synthesized requests_served
# figure (about a two-hour observation window at one heartbeat per 30 s),
# tuned so the shipped preset lands near the observed per-agent request rate.
NOMINAL_HEARTBEATS_PER_AGENT = 234

# Share of agents that register without tags, the default of every config.
UNTAGGED_PROBABILITY = 0.42


# --- small samplers (single shared random.Random stream) ---


def poisson(rng: random.Random, mean: float) -> int:
    """Knuth's product-of-uniforms Poisson sampler."""
    if mean <= 0:
        return 0
    threshold = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def one_plus_poisson(rng: random.Random, mean: float) -> int:
    """Draw from 1 + Poisson(mean - 1); mean must be >= 1."""
    return 1 + poisson(rng, mean - 1.0)


def fixed_choice(
    population: Sequence, weights: Iterable[float]
) -> Callable[[random.Random], Any]:
    """Return draw(rng), which picks what ``rng.choices(population, weights)[0]``
    would: the same one ``random()`` and ``bisect_right`` (Python 3.10-3.13),
    over cumulative sums built once. A total that is not positive and finite
    raises ValueError, as in ``random.choices``."""
    cum = list(accumulate(weights))
    total, hi = cum[-1] + 0.0, len(cum) - 1
    if not 0.0 < total < math.inf:
        raise ValueError("total of weights must be positive and finite")

    def draw(rng: random.Random) -> Any:
        return population[bisect_right(cum, rng.random() * total, 0, hi)]

    return draw


def geometric(rng: random.Random, mean: float) -> int:
    """Geometric sample >= 1 with the given mean (inverse transform)."""
    if mean <= 1.0:
        return 1
    success = 1.0 / mean
    u = rng.random()
    return 1 + int(math.log1p(-u) / math.log1p(-success))


# --- tag model ---

# Head of the capability vocabulary with observed-scale weights; the weight
# of a tag is its expected assignment count in a 626-agent population.
HEAD_TAGS: tuple[tuple[str, float], ...] = (
    ("analytics", 72.0),
    ("writing", 43.0),
    ("scheduling", 25.0),
    ("recipes", 16.0),
    ("communication", 12.0),
    ("onboarding", 12.0),
    ("code-review", 12.0),
    ("skill-assessment", 11.0),
    ("learning-paths", 11.0),
    ("reminders", 11.0),
    ("resume-review", 10.0),
    ("interview-prep", 10.0),
    ("deal-finding", 10.0),
    ("debugging", 10.0),
    ("sentiment-analysis", 9.0),
)

# Named mid-tail tags (plausible capability names, including the thematic
# cluster members the analyzer groups); synthetic cap-NNN tags fill the rest.
NAMED_TAIL_TAGS: tuple[str, ...] = (
    "reporting",
    "research",
    "documentation",
    "fitness",
    "meditation",
    "mindfulness",
    "nutrition",
    "wellness",
    "coaching",
    "career-coaching",
    "api-management",
    "task-management",
    "translation",
    "summarization",
    "budgeting",
    "travel-planning",
    "email-triage",
    "note-taking",
    "data-entry",
    "proofreading",
    "tutoring",
    "legal-research",
    "market-analysis",
    "customer-support",
)

# Two-band tail calibrated so a 626-agent census lands near 276 unique tags,
# 131 singletons, and ~917 assignments: a flat band of named mid-table tags
# sitting just above the head floor, then a long Zipf tail of synthetic tags.
NAMED_TAIL_SCALE = 11.0
NAMED_TAIL_EXPONENT = 0.05
SYNTHETIC_TAIL_SIZE = 375
SYNTHETIC_TAIL_EXPONENT = 0.35
SYNTHETIC_TAIL_SCALE = 5.69


def default_tag_vocabulary() -> tuple[tuple[str, float], ...]:
    """Head tags plus a two-band tail calibrated for a 626-agent census."""
    vocabulary = list(HEAD_TAGS)
    for i, name in enumerate(NAMED_TAIL_TAGS, start=1):
        vocabulary.append((name, NAMED_TAIL_SCALE / (i**NAMED_TAIL_EXPONENT)))
    for j in range(1, SYNTHETIC_TAIL_SIZE + 1):
        vocabulary.append(
            (f"cap-{j:03d}", SYNTHETIC_TAIL_SCALE / (j**SYNTHETIC_TAIL_EXPONENT))
        )
    return tuple(vocabulary)


@dataclass(frozen=True)
class TagModel:
    """Weighted tag sampler: 0 tags with untagged_probability, else 1-3 tags by
    successive weighted draws without replacement, one random() per tag."""

    vocabulary: tuple[tuple[str, float], ...]
    untagged_probability: float = UNTAGGED_PROBABILITY
    count_distribution: tuple[float, float, float] = (0.09, 0.29, 0.62)

    @cached_property
    def _cumulative_vocabulary(self) -> tuple[tuple, tuple, tuple[str, ...]]:
        weights = tuple(weight for _, weight in self.vocabulary)
        return weights, (0.0, *accumulate(weights)), tuple(t for t, _ in self.vocabulary)

    @cached_property
    def _draw_count(self) -> Callable[[random.Random], int]:
        return fixed_choice((1, 2, 3), self.count_distribution)

    def draw(self, rng: random.Random) -> tuple[str, ...]:
        if rng.random() < self.untagged_probability:
            return ()
        count = self._draw_count(rng)
        # Each random() is scaled to the weight left and carried past the picks,
        # which bisect then never returns (rounding is monotone). Past the end or
        # once picks hold half the weight (sums lose light entries), use the rest.
        weights, bounds, tags = self._cumulative_vocabulary
        picked, left = [], bounds[-1]
        for _ in range(min(count, len(tags))):
            x = (u := rng.random()) * left
            for p in sorted(picked):
                x += weights[p] if x >= bounds[p] else 0.0
            i = bisect_right(bounds, x) - 1
            if i == len(tags) or 2 * left < bounds[-1]:
                rest = [j for j in range(len(tags)) if j not in picked]
                part = tuple(accumulate(weights[j] for j in rest))
                i = rest[bisect_right(part, u * part[-1], 0, len(part) - 1)]
            picked.append(i)
            left -= weights[i]
        return tuple(tags[i] for i in picked)


def default_tag_model(untagged_probability: float = UNTAGGED_PROBABILITY) -> TagModel:
    return TagModel(default_tag_vocabulary(), untagged_probability)


# --- configuration documents ---


class Rule(NamedTuple):
    """A test of one field's value and the tail of the error it raises."""

    accepts: Callable[[Any], bool]
    message: str

    def apply(self, name: str, value: Any) -> None:
        if not self.accepts(value):
            raise ConfigInvalidError(f"{name} {self.message}")


# Field annotation -> the rule its values pass first. The annotations are
# strings because of ``from __future__ import annotations``.
_FIELD_TYPES = {
    "int": Rule(lambda v: isinstance(v, int) and not isinstance(v, bool), "must be an integer"),
    "float": Rule(is_number, "must be a finite number"),
    "str": Rule(lambda v: isinstance(v, str), "must be a string"),
}

# The bounds a field declares with ``ruled``.
UNIT = Rule(lambda v: 0 <= v <= 1, "must lie in [0, 1]")
NON_NEGATIVE = Rule(lambda v: v >= 0, "may not be negative")
POSITIVE = Rule(lambda v: v > 0, "must be positive")
AT_LEAST_1 = Rule(lambda v: v >= 1, "must be at least 1")
# random.Random seeds by absolute value, so -5 would grow seed 5's network.
SEED = Rule(lambda v: 0 <= v < 2**64, "must fit in 64 bits")


def ruled(rule: Rule, default: Any = MISSING) -> Any:
    """A dataclass field whose value ``ConfigDocument.validate`` tests by rule."""
    return field(default=default, metadata={"rule": rule})


class ConfigDocument:
    """Base of the config dataclasses: each read from and written to JSON.

    The JSON object form has one key per field, and ``to_dict``, ``from_dict``
    and ``read`` work from the dataclass fields alone. A key without a
    default is required and an unknown key is refused. A field annotated
    with a ConfigDocument class is read by that class's ``from_dict``; a
    JSON int for a float field is stored as a float, so ``2`` and ``2.0``
    give the same config. Errors name the document by the class's ``what``.
    ``validate`` checks each field in order: its type by ``_FIELD_TYPES``
    (any other annotation names the document class it holds, validated in
    turn), then the rule it declares with ``ruled``. Last it calls
    ``check()``, which holds the rules that relate fields.
    """

    what: ClassVar[str]

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in _FIELD_TYPES:
                _FIELD_TYPES[f.type].apply(f.name, value)
            elif type(value).__name__ != f.type:
                raise ConfigInvalidError(f"{f.name} must be a {f.type} document")
            else:
                value.validate()
            if "rule" in f.metadata:
                f.metadata["rule"].apply(f.name, value)
        self.check()

    def check(self) -> None:
        """Test the rules that relate two or more fields."""

    def to_dict(self) -> dict:
        doc = {}
        for f in fields(self):
            value = getattr(self, f.name)
            doc[f.name] = value.to_dict() if isinstance(value, ConfigDocument) else value
        return doc

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ConfigInvalidError(f"{cls.what} must be an object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigInvalidError(f"unknown {cls.what} keys {sorted(unknown)}")
        for f in fields(cls):
            if f.default is MISSING and f.default_factory is MISSING and f.name not in doc:
                raise ConfigInvalidError(f"{cls.what} requires {f.name}")
        types = get_type_hints(cls)
        kwargs = {}
        for name, value in doc.items():
            kind = types[name]
            if isinstance(kind, type) and issubclass(kind, ConfigDocument):
                value = kind.from_dict(value)
            elif kind is float and is_number(value):
                value = float(value)
            kwargs[name] = value
        config = cls(**kwargs)
        config.validate()
        return config

    @classmethod
    def read(cls, path: Union[str, Path]):
        return cls.from_dict(read_json(Path(path).read_bytes(), cls.what))


# --- configuration ---


@dataclass(frozen=True)
class MechanismMix(ConfigDocument):
    """Attachment mechanism weights; must sum to 1."""

    what = "mix"

    propinquity: float = ruled(NON_NEGATIVE, 0.35)
    preferential: float = ruled(NON_NEGATIVE, 0.25)
    triadic: float = ruled(NON_NEGATIVE, 0.35)
    uniform: float = ruled(NON_NEGATIVE, 0.05)

    def weights(self) -> tuple[float, float, float, float]:
        return (self.propinquity, self.preferential, self.triadic, self.uniform)

    @cached_property
    def draw(self) -> Callable[[random.Random], str]:
        """draw(rng) picks one mechanism name with these weights (one rng call)."""
        return fixed_choice(MECHANISMS, self.weights())

    def check(self) -> None:
        if abs(sum(self.weights()) - 1.0) > 1e-9:
            raise ConfigInvalidError(
                f"mix weights sum to {sum(self.weights())!r}, expected 1"
            )

    def with_weight(self, name: str, value: float) -> "MechanismMix":
        """Set one weight, rescaling the others to keep the sum at 1."""
        if name not in MECHANISMS:
            raise UnknownParameterError(f"unknown mechanism {name!r}")
        UNIT.apply(f"mix.{name}", value)
        others = [
            (other, weight)
            for other, weight in zip(MECHANISMS, self.weights())
            if other != name
        ]
        rest = sum(weight for _, weight in others)
        scaled = {}
        for other, weight in others:
            if rest > 0:
                scaled[other] = weight * (1.0 - value) / rest
            else:
                scaled[other] = (1.0 - value) / len(others)
        scaled[name] = value
        return MechanismMix(**scaled)


@dataclass(frozen=True)
class GrowthConfig(ConfigDocument):
    """Full parameterization of one generated network.

    Tags come from the default tag model; only its untagged share is a field.
    """

    what = "growth config"

    n: int = 626
    self_loop_probability: float = ruled(UNIT, 0.64)
    isolate_probability: float = ruled(UNIT, 0.10)
    stub_mean: float = ruled(AT_LEAST_1, 1.6)
    window: int = ruled(AT_LEAST_1, 10)
    mix: MechanismMix = field(default_factory=MechanismMix)
    untagged_probability: float = ruled(UNIT, UNTAGGED_PROBABILITY)
    seed: int = ruled(SEED, 0)
    # Mean arrival-burst size; 0 disables sessions entirely, making the
    # propinquity window global over all prior arrivals.
    session_mean: float = ruled(NON_NEGATIVE, 0.0)
    # A small population of high-budget arrivals ("connectors") whose stub
    # count is geometric with the given mean instead of 1 + Poisson; they are
    # what produces hub-scale degrees. 0 disables the class.
    connector_fraction: float = ruled(UNIT, 0.0)
    connector_stub_mean: float = ruled(NON_NEGATIVE, 0.0)

    def check(self) -> None:
        if self.n < 2:
            raise ConfigInvalidError("n must be at least 2")
        if self.connector_fraction > 0 and self.connector_stub_mean < 1:
            raise ConfigInvalidError(
                "connector_stub_mean must be at least 1 when connectors are enabled"
            )


# Shipped calibration targeting the observed 626-agent topology. Structural
# bands hit simultaneously (20-seed means): self-loop fraction ~0.64, non-self
# mean degree ~4.5, isolate fraction ~0.14, giant fraction ~0.74, clustering
# ~0.32, tail exponent ~2.5. The ingredients: arrivals come in small bursts
# (geometric sessions, mean 6) and attach almost entirely locally (propinquity
# + triadic over a 6-wide window), which keeps detached communities alive; a
# 3.5% connector class with geometric(34) link budgets attaches globally by
# degree, supplying both the giant component's density and the heavy tail.
_PRESETS: dict[str, dict] = {
    "paper-2026": {
        "n": 626,
        "self_loop_probability": 0.64,
        "isolate_probability": 0.085,
        "stub_mean": 3.0,
        "window": 6,
        "mix": {
            "propinquity": 0.585,
            "preferential": 0.01125,
            "triadic": 0.40,
            "uniform": 0.00375,
        },
        "untagged_probability": 0.42,
        "session_mean": 6.0,
        "connector_fraction": 0.035,
        "connector_stub_mean": 34.0,
        "seed": 2026,
    }
}


def preset(name: str) -> GrowthConfig:
    """Return a shipped configuration by name."""
    params = _PRESETS.get(name)
    if params is None:
        raise UnknownPresetError(
            f"unknown preset {name!r}; available: {sorted(_PRESETS)}"
        )
    return GrowthConfig.from_dict(params)


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


# --- trace ---


class LinkAttempt(NamedTuple):
    """One stub: which mechanism fired, at whom, and whether it stuck."""

    mechanism: str
    target: Optional[str]
    accepted: bool


class GrowthEvent(NamedTuple):
    """Everything that happened at one arrival.

    Trace rows are named tuples, not dataclasses: ``generate`` makes one per
    arrival and one per stub, and a tuple is built in a single call.
    """

    index: int
    address: str
    self_loop: bool
    isolate: bool
    attempts: tuple[LinkAttempt, ...]
    tags: tuple[str, ...]

    def to_line(self) -> str:
        """The bytes of snapshot.compact_json on the event's dict form (fields in
        order, an attempt as mechanism, target, accepted), by template. A lone
        high surrogate then a lone low one is written as two escapes, which any
        JSON reader, from_line too, reads as one character: chr(0xD800) +
        chr(0xDC00) comes back as chr(0x10000). Every other text reads back equal."""
        q = encode_basestring_ascii
        attempts = ",".join([
            f'{{"mechanism":{q(mechanism)},'
            f'"target":{"null" if target is None else q(target)},'
            f'"accepted":{"true" if accepted else "false"}}}'
            for mechanism, target, accepted in self.attempts
        ])
        return (
            f'{{"index":{int.__repr__(self.index)},"address":{q(self.address)},'
            f'"self_loop":{"true" if self.self_loop else "false"},'
            f'"isolate":{"true" if self.isolate else "false"},'
            f'"attempts":[{attempts}],"tags":[{",".join(map(q, self.tags))}]}}'
        )

    @classmethod
    def from_line(cls, line: Union[str, bytes], what: str = "growth trace line") -> "GrowthEvent":
        """Read one line (bytes must be UTF-8); a bad one raises SchemaViolationError."""
        doc = read_object(read_json(line, what), what)
        return cls(**read_fields(doc, _EVENT, {}, f"{what}."))


# The readers of a trace line's fields, and of an attempt's, in field order.
_ATTEMPT = {"mechanism": read_string, "target": read_optional_string, "accepted": read_bool}
_EVENT = {
    "index": read_count,
    "address": read_string,
    "self_loop": read_bool,
    "isolate": read_bool,
    "attempts": lambda value, name: tuple(
        LinkAttempt(**read_fields(raw, _ATTEMPT, {}, f"{name}[{i}]."))
        for i, raw in enumerate(read_list_of(value, name, dict))
    ),
    "tags": read_strings,
}


@dataclass
class GrowthTrace:
    """Per-arrival event log; replaying it reproduces the snapshot exactly."""

    events: list[GrowthEvent]

    def write(self, path: Union[str, Path]) -> None:
        """Write each event's to_line, ended by a newline, in chunks: no string
        holds the whole trace."""
        write_lines(path, map(GrowthEvent.to_line, self.events))

    @classmethod
    def read(cls, path: Union[str, Path]) -> "GrowthTrace":
        """Read the events of the file's non-blank lines; an error names its line."""
        return cls([
            GrowthEvent.from_line(line, f"growth trace line {number}")
            for number, line in enumerate(Path(path).read_bytes().splitlines(), 1)
            if line.strip()
        ])

    def replay(self) -> StatsSnapshot:
        """Rebuild the output snapshot from nothing but the trace.

        Nodes keep event order, which ``generate`` makes address order.
        """
        edges: list[tuple[str, str]] = []
        degree: dict[str, int] = {}
        loops: set[str] = set()
        tags: dict[str, tuple[str, ...]] = {}
        sent_requests = 0
        for _, address, self_loop, _, attempts, event_tags in self.events:
            degree.setdefault(address, 0)
            tags[address] = event_tags
            if self_loop:
                edges.append((address, address))
                loops.add(address)
            for _, target, accepted in attempts:
                if target is None:
                    continue
                sent_requests += 1
                if not accepted:
                    continue
                edges.append((address, target) if address <= target else (target, address))
                degree[address] += 1
                degree[target] += 1
        n = len(self.events)
        requests = n * (1 + NOMINAL_HEARTBEATS_PER_AGENT) + sent_requests
        nodes = [
            NodeView(
                address=address,
                tags=tags[address],
                online=True,
                trust_links=degree[address] + (2 if address in loops else 0),
            )
            for address in degree
        ]
        return StatsSnapshot(
            generated_at=0.0,
            requests_served=requests,
            networks=[BACKBONE],
            nodes=nodes,
            trust_edges=edges,
            summary_trust_links=len(edges),
            requests_per_agent=requests / n if n else 0.0,
        )


# --- generation ---


class AttachmentGraph:
    """Graph state the attachment sampler reads; nodes are any hashable ids.

    ``attachable`` is a plain list that callers extend in place, each node at
    most once. A 1-based Fenwick tree holds the weights degree + 1 of its
    entries; it takes in the entries appended since the last preferential
    draw just before the next one, and ``connect`` updates the leaves it has.
    """

    def __init__(self) -> None:
        self.adjacency: dict = {}
        self.degree: dict = {}  # len(adjacency[v]), kept for cheap weights
        self.attachable: list = []  # nodes open to new links, in arrival order
        self._slot: dict = {}  # attachable node -> its leaf in _tree
        self._tree: list[int] = [0]
        self._total = 0  # sum of the weights in _tree

    def add_node(self, node) -> None:
        self.adjacency[node] = set()
        self.degree[node] = 0

    def connect(self, a, b) -> None:
        self.adjacency[a].add(b)
        self.adjacency[b].add(a)
        for v in (a, b):
            self.degree[v] += 1
            i = self._slot.get(v)
            if i is not None:
                self._total += 1
                while i < len(self._tree):
                    self._tree[i] += 1
                    i += i & -i

    def draw_by_degree(self, rng: random.Random):
        """Draw from a non-empty ``attachable`` by degree + 1 in O(log n)."""
        tree = self._tree
        for node in self.attachable[len(tree) - 1 :]:
            i = len(tree)
            self._slot[node] = i
            weight = self.degree[node] + 1
            self._total += weight
            j = i - 1  # the leaf's range is (i - lowbit(i), i]
            while j > i - (i & -i):
                weight += tree[j]
                j -= j & -j
            tree.append(weight)
        size = len(tree) - 1
        x = rng.random() * (self._total + 0.0)
        pos, acc, step = 0, 0, 1 << (size.bit_length() - 1)
        while step:
            j = pos + step
            if j <= size and acc + tree[j] <= x:
                pos, acc = j, acc + tree[j]
            step >>= 1
        return self.attachable[min(pos, size - 1)]


def pick_target(
    mechanism: str,
    rng: random.Random,
    node,
    graph: AttachmentGraph,
    recent: Sequence,
    pool: Sequence,
    exclude: Union[set, frozenset] = frozenset(),
):
    """Draw one attachment target for ``node``, or None without a candidate.

        propinquity   uniform over ``recent``
        uniform       uniform over ``pool``
        preferential  over ``pool``, weighted by degree + 1
        triadic       uniform over sorted(two-hop neighbors - {node})

    ``exclude`` filters every candidate list first; an empty list returns
    None without drawing from ``rng``.

    A preferential draw over ``graph.attachable`` itself with nothing
    excluded walks the graph's Fenwick tree in O(log n). It returns what
    ``random.choices`` would from the same ``random()`` value x: that is
    ``bisect_right`` over the cumulative weights, and the descent keeps its
    prefix sum an exact int, whose comparison with the float x is exact too.
    A sub-pool, or a pool with ``exclude`` applied, takes the list path.
    """
    if mechanism == "propinquity":
        candidates = recent
    elif mechanism == "uniform" or mechanism == "preferential":
        candidates = pool
    elif mechanism == "triadic":
        two_hop = set().union(*(graph.adjacency[v] for v in graph.adjacency[node]))
        candidates = sorted(two_hop - {node})
    else:
        raise UnknownParameterError(f"unknown mechanism {mechanism!r}")
    if exclude:
        candidates = [v for v in candidates if v not in exclude]
    if not candidates:
        return None
    if mechanism == "preferential":
        if candidates is graph.attachable:
            return graph.draw_by_degree(rng)
        degree = graph.degree
        return rng.choices(candidates, weights=[degree[v] + 1 for v in candidates])[0]
    return rng.choice(candidates)


def generate(config: GrowthConfig) -> tuple[StatsSnapshot, GrowthTrace]:
    """Grow one network; pure function of the config (including seed)."""
    config.validate()
    rng = random.Random(config.seed)
    tag_model = default_tag_model(config.untagged_probability)
    graph = AttachmentGraph()
    events: list[GrowthEvent] = []
    texts = [""]  # texts[v]: node v's address text, formatted once on arrival
    session_pool: list[int] = []
    session_left = 0
    use_sessions = config.session_mean > 0

    for node in range(1, config.n + 1):
        address = VirtualAddress(0, node).to_text()
        texts.append(address)
        graph.add_node(node)
        if use_sessions:
            if session_left == 0:
                session_left = geometric(rng, config.session_mean)
                session_pool = []
            session_left -= 1

        self_loop = rng.random() < config.self_loop_probability
        isolate = rng.random() < config.isolate_probability
        attempts: list[LinkAttempt] = []
        if not isolate:
            connector = (
                config.connector_fraction > 0
                and rng.random() < config.connector_fraction
            )
            if connector:
                stubs = geometric(rng, config.connector_stub_mean)
            else:
                stubs = one_plus_poisson(rng, config.stub_mean)
            recent = session_pool if use_sessions else graph.attachable
            window = recent[-config.window :]
            for _ in range(stubs):
                # Connectors attach globally by degree; ordinary arrivals
                # draw a mechanism from the configured mix.
                mechanism = "preferential" if connector else config.mix.draw(rng)
                target = pick_target(
                    mechanism, rng, node, graph, window, graph.attachable
                )
                if target is None and mechanism == "triadic" and graph.adjacency[node]:
                    # Degree-weighted fallback within the node's visibility
                    # horizon, so a referral dead-end cannot silently bridge
                    # an otherwise detached community into the core. A
                    # neighborless node's triadic stub fails instead.
                    target = pick_target(
                        "preferential", rng, node, graph, window, recent
                    )
                if target is None:
                    attempts.append(LinkAttempt(mechanism, None, False))
                    continue
                accepted = target not in graph.adjacency[node]
                if accepted:
                    graph.connect(node, target)
                attempts.append(LinkAttempt(mechanism, texts[target], accepted))
        tags = tag_model.draw(rng)
        events.append(GrowthEvent(node, address, self_loop, isolate, tuple(attempts), tags))
        if not isolate:
            graph.attachable.append(node)
            if use_sessions:
                session_pool.append(node)

    trace = GrowthTrace(events)
    del graph, texts  # freed before replay builds the snapshot, to lower the peak
    return trace.replay(), trace


# --- parameter sweeps ---


def parse_scalar(name: str, kind: str, value) -> Union[int, float]:
    """Read a --set text, a sweep list entry or a sweep value for an int or float field."""
    try:
        if kind == "float":
            return float(value)
        number = int(value) if isinstance(value, str) else value
        if kind == "int" and number == int(number):  # 3.0 from a sweep, not 2.5
            return int(number)
    except (TypeError, ValueError, OverflowError):
        pass
    if kind not in ("int", "float"):
        raise ConfigInvalidError(f"{name} is not a number field")
    raise ConfigInvalidError(f"{name} {_FIELD_TYPES[kind].message}, got {value!r}")


def set_parameter(config: GrowthConfig, parameter: str, value) -> GrowthConfig:
    """Return a copy of config with one (possibly dotted) number field replaced."""
    if parameter.startswith("mix."):
        mechanism = parameter.split(".", 1)[1]
        weight = parse_scalar(parameter, "float", value)
        updated = replace(config, mix=config.mix.with_weight(mechanism, weight))
    elif parameter in GrowthConfig.__dataclass_fields__:
        kind = GrowthConfig.__dataclass_fields__[parameter].type
        updated = replace(config, **{parameter: parse_scalar(parameter, kind, value)})
    else:
        raise UnknownParameterError(f"unknown growth parameter {parameter!r}")
    updated.validate()
    return updated


def sweep(
    base: GrowthConfig,
    parameter: str,
    values: Sequence,
    seeds: Sequence[int],
):
    """Cartesian sweep: yields (value, seed, MetricsReport) rows."""
    from .analytics.report import analyze_snapshot

    rows = []
    for value in values:
        for seed in seeds:
            config = set_parameter(replace(base, seed=seed), parameter, value)
            snapshot, _ = generate(config)
            rows.append((value, seed, analyze_snapshot(snapshot)))
    return rows
