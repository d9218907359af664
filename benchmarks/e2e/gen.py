"""Seed-deterministic inputs for the end-to-end benchmark.

Everything the benchmark feeds the system is made here from ``--seed``
with vectorised NumPy: a :class:`MatrixTopicModel` over a synthetic
vocabulary, a social stream laid out as flat arrays (timestamps, token
ids, back-references, sparse topic pairs), and the query workload.  The
arrays are hashed (``input_sha256``) so two reports can be compared only
when they were fed byte-identical inputs; :class:`SocialElement` objects
and JSON events are materialised one bucket at a time by the load
generator, outside every timed region.

The module deliberately shares no code with ``repro.datasets.synthetic``
or ``repro.bench``: those are product code a later change may edit, and
the benchmark's inputs must not move with them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.element import SocialElement
from repro.core.query import KSIRQuery
from repro.topics.model import MatrixTopicModel
from repro.topics.vocabulary import Vocabulary

# Paper defaults (Section 6.1): 15-minute buckets, 24-hour window, z = 50.
BUCKET_LENGTH = 900
WINDOW_BUCKETS = 96
WINDOW_LENGTH = BUCKET_LENGTH * WINDOW_BUCKETS
NUM_TOPICS = 50
VOCABULARY_SIZE = 5000
ZIPF_EXPONENT = 0.8
#: Words carrying most of a topic's mass; the rest is a thin background so
#: every ``p_i(w)`` stays positive (no zero-weight special cases).
CORE_WORDS_PER_TOPIC = 200
BACKGROUND_MASS = 0.05
#: Share of elements that sit on two topics (mean topics/element = 1.6 < 2).
SECOND_TOPIC_SHARE = 0.6
#: Share of referencing elements that take their parent's primary topic.
TOPIC_INHERIT_SHARE = 0.7
MAX_REFERENCES = 4
#: References reach back at most this many buckets, so a parent is always
#: still inside the sliding window when its follower arrives.
REFERENCE_HORIZON_BUCKETS = WINDOW_BUCKETS - 2

QUERY_TOPIC_COUNTS = (1, 2, 3, 5)
QUERY_KS = (5, 10, 20, 50)
QUERY_ALGORITHMS = ("mtts", "mttd")


@dataclass(frozen=True)
class Shape:
    """The element shape of one dataset family (Table 3 of the paper)."""

    mean_tokens: float
    reference_density: float
    per_bucket: int


# Bucket sizes are what lets every timed phase collect >= 200 samples of its
# own metrics in ~16 s on two cores: a 9 600-element window for the
# single-node workloads, 4 800 where every query pickles its whole candidate
# support between processes, 2 400 behind the server, where every element is
# topic-inferred from raw tokens.
TWITTER = Shape(mean_tokens=5.1, reference_density=0.62, per_bucket=100)
REDDIT = Shape(mean_tokens=8.6, reference_density=0.85, per_bucket=100)
TWITTER_SHARDED = Shape(mean_tokens=5.1, reference_density=0.62, per_bucket=50)
TWITTER_SERVED = Shape(mean_tokens=5.1, reference_density=0.62, per_bucket=25)


def _zipf(count: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1, dtype=float) ** exponent
    return weights / weights.sum()


def build_topic_model(seed: int) -> MatrixTopicModel:
    """A row-stochastic ``(z, |V|)`` topic-word matrix with topical cores."""
    rng = np.random.default_rng([seed, 1])
    matrix = np.full(
        (NUM_TOPICS, VOCABULARY_SIZE), BACKGROUND_MASS / VOCABULARY_SIZE
    )
    core_weights = _zipf(CORE_WORDS_PER_TOPIC, 1.0) * (1.0 - BACKGROUND_MASS)
    for topic in range(NUM_TOPICS):
        core = rng.choice(VOCABULARY_SIZE, size=CORE_WORDS_PER_TOPIC, replace=False)
        matrix[topic, core] += core_weights
    words = [f"w{index:04d}" for index in range(VOCABULARY_SIZE)]
    return MatrixTopicModel(Vocabulary(words), matrix, normalize=True)


@dataclass
class Stream:
    """A generated stream as flat arrays (element id == array position)."""

    shape: Shape
    timestamps: np.ndarray  # (n,) int64, non-decreasing
    token_offsets: np.ndarray  # (n + 1,) int64 into token_ids
    token_ids: np.ndarray  # (total tokens,) int32 vocabulary ids
    reference_offsets: np.ndarray  # (n + 1,) int64 into reference_ids
    reference_ids: np.ndarray  # (total references,) int64 element ids
    topics: np.ndarray  # (n, 2) int32; column 1 is -1 for one-topic elements
    weights: np.ndarray  # (n, 2) float64; rows sum to 1

    @property
    def num_elements(self) -> int:
        return int(self.timestamps.shape[0])

    def end_time(self, bucket: int) -> int:
        """End time of 0-based ``bucket`` (it covers ``(end − L, end]``)."""
        return (bucket + 1) * BUCKET_LENGTH

    def bucket_bounds(self, bucket: int) -> Tuple[int, int]:
        per_bucket = self.shape.per_bucket
        return bucket * per_bucket, (bucket + 1) * per_bucket

    def active_id_range(self, bucket: int) -> Tuple[int, int]:
        """Ids that can be active once 0-based ``bucket`` is ingested.

        The window holds ``WINDOW_BUCKETS`` buckets and an in-window element
        keeps a parent up to ``REFERENCE_HORIZON_BUCKETS`` older active.
        """
        oldest = max(0, bucket - (WINDOW_BUCKETS - 1) - REFERENCE_HORIZON_BUCKETS)
        return self.bucket_bounds(oldest)[0], self.bucket_bounds(bucket)[1] - 1


def build_stream(
    seed: int, shape: Shape, num_buckets: int, model: MatrixTopicModel
) -> Stream:
    """Generate ``num_buckets`` full buckets of ``shape`` elements."""
    rng = np.random.default_rng([seed, 2])
    per_bucket = shape.per_bucket
    n = num_buckets * per_bucket
    ids = np.arange(n, dtype=np.int64)
    bucket_of = ids // per_bucket

    # Timestamps: uniform inside the bucket's (end − L, end] span, sorted, each
    # bucket's first pinned to the span start so an event-time ingestor that
    # starts on any bucket anchors its grid where pre-bucketed ingest does.
    offsets = rng.integers(1, BUCKET_LENGTH + 1, size=n)
    offsets = np.sort(offsets.reshape(num_buckets, per_bucket), axis=1)
    offsets[:, 0] = 1
    offsets = offsets.reshape(n)
    timestamps = bucket_of * BUCKET_LENGTH + offsets

    # References: a heavy-tailed (log-uniform) look-back in element positions,
    # then snapped onto sparse "hub" ids so in-degree is heavy-tailed too.
    counts = np.minimum(rng.poisson(shape.reference_density, size=n), MAX_REFERENCES)
    counts[0] = 0
    owner = np.repeat(ids, counts)
    # The look-back never passes element 0 nor, after hub snapping (which
    # moves a target at most 255 positions older), the window horizon.
    reach = np.minimum(owner, REFERENCE_HORIZON_BUCKETS * per_bucket - 256)
    look_back = np.exp(rng.random(owner.shape[0]) * np.log(reach)).astype(np.int64)
    target = owner - np.maximum(look_back, 1)
    snap = rng.random(owner.shape[0])
    target = np.where(snap < 0.15, target - target % 256, target)
    target = np.where((snap >= 0.15) & (snap < 0.5), target - target % 16, target)
    # Drop duplicate (owner, target) pairs; lexsort keeps owners grouped.
    order = np.lexsort((target, owner))
    owner, target = owner[order], target[order]
    first = np.ones(owner.shape[0], dtype=bool)
    first[1:] = (owner[1:] != owner[:-1]) | (target[1:] != target[:-1])
    owner, target = owner[first], target[first]
    reference_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=reference_offsets[1:])

    # Topics: Zipf-popular primaries; a follower usually adopts its first
    # parent's own primary (one level, so the draw stays vectorised).
    popularity = _zipf(NUM_TOPICS, ZIPF_EXPONENT)
    own_primary = rng.choice(NUM_TOPICS, size=n, p=popularity)
    primary = own_primary.copy()
    has_parent = reference_offsets[1:] > reference_offsets[:-1]
    inherit = has_parent & (rng.random(n) < TOPIC_INHERIT_SHARE)
    primary[inherit] = own_primary[target[reference_offsets[:-1][inherit]]]
    secondary = rng.choice(NUM_TOPICS, size=n, p=popularity)
    two = (rng.random(n) < SECOND_TOPIC_SHARE) & (secondary != primary)
    primary_weight = np.where(two, rng.uniform(0.55, 0.9, size=n), 1.0)
    topics = np.stack([primary, np.where(two, secondary, -1)], axis=1).astype(np.int32)
    weights = np.stack([primary_weight, 1.0 - primary_weight], axis=1)

    # Tokens: each token picks one of the element's topics by weight, then a
    # word from that topic's distribution (inverse CDF, one pass per topic).
    lengths = 1 + rng.poisson(shape.mean_tokens - 1.0, size=n)
    token_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=token_offsets[1:])
    token_owner = np.repeat(ids, lengths)
    use_second = two[token_owner] & (
        rng.random(token_owner.shape[0]) >= primary_weight[token_owner]
    )
    token_topic = np.where(use_second, secondary[token_owner], primary[token_owner])
    draws = rng.random(token_owner.shape[0])
    cdf = np.cumsum(model.topic_word_matrix, axis=1)
    token_ids = np.empty(token_owner.shape[0], dtype=np.int32)
    for topic in range(NUM_TOPICS):
        mask = token_topic == topic
        token_ids[mask] = np.minimum(
            np.searchsorted(cdf[topic], draws[mask]), VOCABULARY_SIZE - 1
        )

    stream = Stream(
        shape=shape,
        timestamps=timestamps.astype(np.int64),
        token_offsets=token_offsets,
        token_ids=token_ids,
        reference_offsets=reference_offsets,
        reference_ids=target.astype(np.int64),
        topics=topics,
        weights=weights,
    )
    check_stream(stream)
    return stream


def check_stream(stream: Stream) -> None:
    """Refuse a stream that misses the paper's stated input properties."""
    n = stream.num_elements
    mean_topics = float((stream.topics >= 0).sum()) / n
    if not mean_topics < 2.0:
        raise AssertionError(f"mean topics/element {mean_topics:.3f} is not < 2")
    density = stream.reference_ids.shape[0] / n
    target = stream.shape.reference_density
    if abs(density - target) > 0.1 * target:
        raise AssertionError(
            f"reference density {density:.3f} is off target {target} by > 10 %"
        )
    owner = np.repeat(np.arange(n), np.diff(stream.reference_offsets))
    if np.any(stream.reference_ids >= owner) or np.any(stream.reference_ids < 0):
        raise AssertionError("a reference points at a later or unknown element")
    per_bucket = stream.shape.per_bucket
    reach = owner // per_bucket - stream.reference_ids // per_bucket
    if reach.size and int(reach.max()) > REFERENCE_HORIZON_BUCKETS:
        raise AssertionError("a reference reaches outside the window horizon")
    if np.any(np.diff(stream.timestamps) < 0):
        raise AssertionError("timestamps are not non-decreasing")


class Materialiser:
    """Turns array slices into the objects the system's API accepts."""

    def __init__(self, stream: Stream, model: MatrixTopicModel) -> None:
        self._stream = stream
        self._words = model.vocabulary.words
        self._num_topics = model.num_topics

    def _fields(self, start: int, stop: int):
        stream = self._stream
        words = self._words
        token_offsets = stream.token_offsets[start : stop + 1].tolist()
        tokens = [
            words[i] for i in stream.token_ids[token_offsets[0] : token_offsets[-1]].tolist()
        ]
        reference_offsets = stream.reference_offsets[start : stop + 1].tolist()
        references = stream.reference_ids[
            reference_offsets[0] : reference_offsets[-1]
        ].tolist()
        token_base, reference_base = token_offsets[0], reference_offsets[0]
        timestamps = stream.timestamps[start:stop].tolist()
        for position in range(stop - start):
            yield (
                start + position,
                timestamps[position],
                tokens[
                    token_offsets[position] - token_base : token_offsets[position + 1]
                    - token_base
                ],
                references[
                    reference_offsets[position]
                    - reference_base : reference_offsets[position + 1]
                    - reference_base
                ],
            )

    def elements(self, bucket: int) -> List[SocialElement]:
        """One bucket as elements carrying pre-inferred sparse topic vectors."""
        start, stop = self._stream.bucket_bounds(bucket)
        count = stop - start
        vectors = np.zeros((count, self._num_topics))
        rows = np.arange(count)
        topics = self._stream.topics[start:stop]
        weights = self._stream.weights[start:stop]
        vectors[rows, topics[:, 0]] = weights[:, 0]
        two = topics[:, 1] >= 0
        vectors[rows[two], topics[two, 1]] = weights[two, 1]
        return [
            SocialElement(
                element_id=element_id,
                timestamp=timestamp,
                tokens=tokens,
                references=references,
                topic_distribution=vectors[element_id - start],
            )
            for element_id, timestamp, tokens, references in self._fields(start, stop)
        ]

    def events(self, positions: Sequence[int]) -> List[Dict[str, object]]:
        """Raw-token JSON events (no topic vector) for ``POST /ingest``."""
        events: List[Dict[str, object]] = []
        for position in positions:
            element_id, timestamp, tokens, references = next(
                self._fields(position, position + 1)
            )
            events.append(
                {
                    "element_id": element_id,
                    "timestamp": timestamp,
                    "tokens": tokens,
                    "references": references,
                }
            )
        return events


def arrival_order(
    seed: int, timestamps: np.ndarray, late_share: float, max_delay_buckets: int
) -> np.ndarray:
    """Positions of ``timestamps`` in arrival order under bounded disorder.

    ``late_share`` of the events are held back by up to
    ``max_delay_buckets`` buckets of stream time (strictly less, so an
    ingestor allowing that much lateness drops none); arrival sorts by
    ``(timestamp + delay, timestamp, position)``.
    """
    rng = np.random.default_rng([seed, 3])
    n = timestamps.shape[0]
    delay = np.where(
        rng.random(n) < late_share,
        rng.integers(1, max_delay_buckets * BUCKET_LENGTH - 1, size=n),
        0,
    )
    return np.lexsort((np.arange(n), timestamps, timestamps + delay))


@dataclass(frozen=True)
class QuerySpec:
    """One ad-hoc query of the workload."""

    vector: np.ndarray
    k: int
    algorithm: str

    def as_query(self) -> KSIRQuery:
        return KSIRQuery(k=self.k, vector=self.vector)


#: The ad-hoc queries do not follow ``--seed`` (the stream does): a query's
#: cost varies 4× inside a class with the topics drawn and a p95 rests on the
#: five or ten costliest of a run; redrawn per seed, ``push_ms_p95`` of
#: ``query_mixed`` (160 samples) spread 17-20 % between seeds while the
#: p95s with more samples spread 5-10 %.
QUERY_SEED = 2019


def build_queries(count: int) -> List[QuerySpec]:
    """``count`` queries over d ∈ {1,2,3,5} × k ∈ {5,10,20,50} × {mtts, mttd}.

    Query cost spans 40× across those 32 classes, so the mix is stratified:
    every block of 32 consecutive queries holds each class once, in one
    order that every block repeats.  A workload that asks q queries
    per cycle (q = 1 or 3, coprime to 32) then sees each class exactly once
    per 32 cycles at every position of the cycle, and the workloads' rates
    make a run a whole number of such blocks: every run has the same
    composition, down to which classes meet a cold snapshot.  (With a fresh
    order per block the number of costliest-class queries among the ~160
    cold ones is a draw around 5, right where a p95 of 160 samples sits.)  Topics are
    drawn by stream popularity so queries land on populated ranked lists;
    weights are random and normalised.
    """
    rng = np.random.default_rng([QUERY_SEED, 4])
    popularity = _zipf(NUM_TOPICS, ZIPF_EXPONENT)
    classes = [
        (d, k, algorithm)
        for d in QUERY_TOPIC_COUNTS
        for k in QUERY_KS
        for algorithm in QUERY_ALGORITHMS
    ]
    order = rng.permutation(len(classes))
    queries: List[QuerySpec] = []
    while len(queries) < count:
        for position in order:
            d, k, algorithm = classes[position]
            chosen = rng.choice(NUM_TOPICS, size=d, replace=False, p=popularity)
            vector = np.zeros(NUM_TOPICS)
            vector[chosen] = rng.uniform(0.2, 1.0, size=d)
            queries.append(QuerySpec(vector / vector.sum(), k, algorithm))
    return queries[:count]


#: Standing queries by topic popularity rank (topic 0 is the most popular):
#: one broad hot-topic query — nearly every bucket dirties it, so it is the
#: subscribed one — and narrow ones the incremental scheduler can skip.
#: Fixed rather than seeded: their cost is most of a POST's service time.
STANDING_QUERIES: Tuple[Tuple[Tuple[int, ...], int], ...] = (
    ((0, 1, 2, 3, 4), 10),
    ((7,), 5),
    ((12, 19), 10),
    ((27,), 5),
)


def build_standing_queries() -> List[QuerySpec]:
    """The standing MTTD queries ``serve_text`` registers (``q0`` first)."""
    queries = []
    for topics, k in STANDING_QUERIES:
        vector = np.zeros(NUM_TOPICS)
        vector[list(topics)] = 1.0 / len(topics)
        queries.append(QuerySpec(vector, k, "mttd"))
    return queries


def input_sha256(stream: Stream, queries: Sequence[QuerySpec], extra: Sequence[np.ndarray] = ()) -> str:
    """Hash of everything the system is fed for one workload."""
    digest = hashlib.sha256()
    for array in (
        stream.timestamps,
        stream.token_offsets,
        stream.token_ids,
        stream.reference_offsets,
        stream.reference_ids,
        stream.topics,
        stream.weights,
        *extra,
    ):
        digest.update(np.ascontiguousarray(array).tobytes())
    for query in queries:
        digest.update(query.vector.tobytes())
        digest.update(f"{query.k}:{query.algorithm}".encode())
    return digest.hexdigest()
