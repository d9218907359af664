"""Representativeness scoring: semantic, influence and combined objectives.

This module implements Section 3.2 of the paper:

* the per-word weights ``σ_i(w, e) = −γ(w, e) · p_i(w, e) · log p_i(w, e)``
  with ``p_i(w, e) = p_i(w) · p_i(e)``,
* the topic-specific semantic score ``R_i(S)`` (weighted word coverage,
  Eq. 3),
* the topic-specific time-critical influence score ``I_{i,t}(S)``
  (probabilistic coverage over in-window followers, Eq. 4),
* the combined scores ``f_i(S) = λ·R_i(S) + (1 − λ)/η·I_{i,t}(S)`` and
  ``f(S, x) = Σ_i x_i · f_i(S)`` (Eq. 1–2).

Because every query algorithm is built on marginal gains, the objective
exposes an :class:`ObjectiveState` carrying the word-coverage and
influence-coverage bookkeeping needed to compute
``Δ(e | S) = f(S ∪ {e}, x) − f(S, x)`` in time proportional to the element's
own words and followers (``O(l·d)`` in the paper's analysis) instead of
re-evaluating the whole set.  What an element contributes on each of its
topics (``δ_i(e)``, ``R_i(e)``, ``σ_i(·, e)`` and its follower edges) does
not depend on the query, so it is compiled once into :data:`Terms` and kept
in one memo per backend that every query reads (:meth:`ScoringContext.terms`);
the query weight ``x_i`` joins only inside an evaluation.  The from-scratch
evaluators it is checked against live with the reference model
(``tests/oracle.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, Iterable, List, Mapping, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.core.element import SocialElement
from repro.kernels import positive_counts
from repro.topics.model import TopicModel
from repro.utils.validation import require_in_range, require_positive, require_probability


#: The follower side of one (element, topic): the followers with a positive
#: edge, their edges ``p_i(e ⇝ follower)`` in the same (follower) order, and
#: ``Σ edges`` accumulated in that order.  Flat tuples of ints and floats.
Edges = Tuple[Tuple[int, ...], Tuple[float, ...], float]
#: ``element id → {topic: Edges}`` for elements that have in-window
#: followers; see :meth:`ScoringContext.follower_edges`.
EdgeMemo = Dict[int, Dict[int, Edges]]
#: A compiled element, one term per topic of its profile, ascending:
#: ``(topic, δ_i(e), R_i(e), σ_i(·, e), follower side)``.  The query weight
#: ``x_i`` is not part of it, so one compilation serves every query vector.
Terms = Tuple[Tuple[int, float, float, Mapping[int, float], Edges], ...]
#: ``element id → Terms``: a backend's compiled elements, shared by every
#: query; see :meth:`ScoringContext.terms`.
TermMemo = Dict[int, Terms]
_EMPTY: Mapping[int, Any] = MappingProxyType({})  # shared, so read-only
NO_EDGES: Edges = ((), (), 0.0)


@dataclass(frozen=True)
class ScoringConfig:
    """Parameters of the representativeness objective.

    Parameters
    ----------
    lambda_weight:
        The trade-off ``λ ∈ [0, 1]`` between semantic and influence scores.
        ``λ = 1`` is pure weighted word coverage; ``λ = 0`` is pure
        probabilistic influence coverage.
    eta:
        The scale factor ``η > 0`` bringing the influence score to the same
        range as the semantic score (the paper uses 20 for AMiner/Reddit and
        200 for Twitter).
    topic_threshold:
        Topic probabilities ``p_i(e)`` at or below this value are treated as
        zero, i.e. the element does not appear on that topic's ranked list.
    """

    lambda_weight: float = 0.5
    eta: float = 20.0
    topic_threshold: float = 1e-4

    def __post_init__(self) -> None:
        require_probability(self.lambda_weight, "lambda_weight")
        require_positive(self.eta, "eta")
        require_in_range(self.topic_threshold, "topic_threshold", 0.0, 1.0, high_inclusive=False)

    @property
    def influence_weight(self) -> float:
        """The coefficient ``(1 − λ) / η`` applied to influence scores."""
        return (1.0 - self.lambda_weight) / self.eta


def word_weight(frequency: int, joint_probability: float) -> float:
    """``σ_i(w, e)`` given ``γ(w, e)`` and ``p_i(w, e)``.

    By convention the weight is zero when the joint probability is zero
    (the ``p·log p`` limit).
    """
    if joint_probability <= 0.0:
        return 0.0
    return -float(frequency) * joint_probability * math.log(joint_probability)


@dataclass(frozen=True)
class ElementProfile:
    """Precomputed per-element scoring data.

    Built once when the element enters the active window; every query reuses
    it.  All maps are keyed by topic index and (for word weights) vocabulary
    word id.

    Attributes
    ----------
    element_id:
        The profiled element's id.
    timestamp:
        The element's posting time.
    topic_probabilities:
        Sparse map ``topic → p_i(e)`` for topics above the threshold.
    word_weights:
        ``topic → {word_id → σ_i(w, e)}`` for the same topics.
    semantic_scores:
        ``topic → R_i(e)`` (the sum of the word weights).
    references:
        The ids the element refers to (copied from the element for locality).
    """

    element_id: int
    timestamp: int
    topic_probabilities: Dict[int, float]
    word_weights: Dict[int, Dict[int, float]]
    semantic_scores: Dict[int, float]
    references: Tuple[int, ...]

    @property
    def topics(self) -> Tuple[int, ...]:
        """Topics on which the element has non-zero probability."""
        return tuple(self.topic_probabilities.keys())

    def topic_probability(self, topic: int) -> float:
        """``p_i(e)`` (0.0 for topics below the threshold)."""
        return self.topic_probabilities.get(topic, 0.0)

    def semantic_score(self, topic: int) -> float:
        """``R_i(e)`` (0.0 for topics below the threshold)."""
        return self.semantic_scores.get(topic, 0.0)


def topic_distributions(elements: Sequence[SocialElement], num_topics: int) -> np.ndarray:
    """The elements' ``p(e)`` as the rows of an ``(n, num_topics)`` array.

    Every element must carry a distribution of ``num_topics`` entries,
    each finite and within ``[0, 1]``; anything else raises ``ValueError``
    naming the element.  An entry above one scales the element's scores
    past any distribution's, and a wrong length breaks a later bucket's
    stacking, so each path that accepts elements calls this before it
    changes any state.
    """
    rows: List[np.ndarray] = []
    for element in elements:
        distribution = element.topic_distribution
        if distribution is None:
            raise ValueError(
                f"element {element.element_id!r} has no topic distribution; "
                "run topic inference before profiling"
            )
        if distribution.shape != (num_topics,):
            raise ValueError(
                f"element {element.element_id!r} topic distribution has shape "
                f"{distribution.shape}, expected ({num_topics},)"
            )
        rows.append(distribution)
    matrix = np.stack(rows) if rows else np.zeros((0, num_topics))
    valid = np.isfinite(matrix) & (matrix >= 0.0) & (matrix <= 1.0)
    invalid = ~valid.all(axis=1)
    if invalid.any():
        row = int(np.argmax(invalid))
        raise ValueError(
            f"element {elements[row].element_id!r} topic distribution must hold "
            f"finite probabilities within [0, 1], got {matrix[row].tolist()}"
        )
    return matrix


class ProfileBuilder:
    """Builds :class:`ElementProfile` objects against a topic model."""

    def __init__(self, topic_model: TopicModel, config: ScoringConfig) -> None:
        self._model = topic_model
        self._config = config
        # word -> vocabulary id, shared by every build_many call.  Only
        # in-vocabulary words are cached, so the map is bounded by the
        # vocabulary size even on open-ended streams full of one-off
        # out-of-vocabulary tokens.
        self._word_id_cache: Dict[str, int] = {}

    @property
    def config(self) -> ScoringConfig:
        """The scoring configuration used for profiling."""
        return self._config

    @property
    def topic_model(self) -> TopicModel:
        """The topic model oracle."""
        return self._model

    def build(self, element: SocialElement) -> ElementProfile:
        """Profile one element; its topic distribution must be present."""
        (distribution,) = topic_distributions((element,), self._model.num_topics)

        vocabulary = self._model.vocabulary
        matrix = self._model.topic_word_matrix
        frequencies = element.word_frequencies
        word_ids = {
            word: vocabulary.get_id(word)
            for word in frequencies
            if vocabulary.get_id(word) is not None
        }

        topic_probabilities: Dict[int, float] = {}
        word_weights: Dict[int, Dict[int, float]] = {}
        semantic_scores: Dict[int, float] = {}
        threshold = self._config.topic_threshold
        for topic in range(self._model.num_topics):
            probability = float(distribution[topic])
            if probability <= threshold:
                continue
            topic_probabilities[topic] = probability
            weights: Dict[int, float] = {}
            total = 0.0
            for word, word_id in word_ids.items():
                joint = float(matrix[topic, word_id]) * probability
                weight = word_weight(frequencies[word], joint)
                if weight > 0.0:
                    weights[word_id] = weight
                    total += weight
            word_weights[topic] = weights
            semantic_scores[topic] = total

        return ElementProfile(
            element_id=element.element_id,
            timestamp=element.timestamp,
            topic_probabilities=topic_probabilities,
            word_weights=word_weights,
            semantic_scores=semantic_scores,
            references=element.references,
        )

    def build_many(self, elements: Sequence[SocialElement]) -> List[ElementProfile]:
        """Profile a whole bucket of elements through the bulk fast path.

        This is the batched counterpart of :meth:`build` used by the
        stream-ingestion fast path.  All ``(topic, word)`` weight entries of
        the bucket are gathered into flat arrays, so the ``σ_i(w, e)``
        weights of every element are produced by a single vectorised numpy
        expression (one gather, one log) instead of one Python
        ``word_weight`` call per entry; word-id lookups are memoised across
        the bucket.  The produced profiles agree with :meth:`build` exactly
        (same operation order per weight), and topic/word orderings are
        preserved.
        """
        elements = list(elements)
        if not elements:
            return []

        model = self._model
        num_topics = model.num_topics
        matrix = model.topic_word_matrix
        vocabulary = model.vocabulary
        threshold = self._config.topic_threshold
        word_id_cache = self._word_id_cache

        distributions = topic_distributions(elements, num_topics)

        # In-vocabulary word ids and frequencies per element (order
        # preserved), flattened as they are collected so the numpy arrays
        # below are built from plain lists in one conversion each.
        word_lists: List[List[int]] = []
        word_count_list: List[int] = []
        word_offset_list: List[int] = []
        flat_words: List[int] = []
        flat_frequencies: List[float] = []
        offset = 0
        for element in elements:
            word_ids: List[int] = []
            word_offset_list.append(offset)
            for word, frequency in element.word_frequencies.items():
                word_id = word_id_cache.get(word)
                if word_id is None:
                    word_id = vocabulary.get_id(word)
                    if word_id is None:
                        continue
                    word_id_cache[word] = word_id
                word_ids.append(word_id)
                flat_frequencies.append(float(frequency))
            flat_words.extend(word_ids)
            word_lists.append(word_ids)
            word_count_list.append(len(word_ids))
            offset += len(word_ids)

        # One (element, topic) pair per above-threshold probability, in
        # element-major / topic-ascending order (matching :meth:`build`).
        pair_elements, pair_topics = np.nonzero(distributions > threshold)
        pair_probabilities = distributions[pair_elements, pair_topics]
        word_counts = np.asarray(word_count_list, dtype=np.intp)
        word_offsets = np.asarray(word_offset_list, dtype=np.intp)
        pair_counts = word_counts[pair_elements]
        total_entries = int(pair_counts.sum())

        weight_values: List[float] = []
        all_positive = False
        positive_per_pair: List[int] = []
        if total_entries:
            all_words = np.asarray(flat_words, dtype=np.intp)
            all_frequencies = np.asarray(flat_frequencies, dtype=float)
            # For each (element, topic) pair, gather that element's word slice:
            # starts[i] repeated count[i] times plus an intra-slice ramp.
            starts = np.repeat(word_offsets[pair_elements], pair_counts)
            ramp = np.arange(total_entries) - np.repeat(
                np.cumsum(pair_counts) - pair_counts, pair_counts
            )
            entry_index = starts + ramp
            entry_words = all_words[entry_index]
            joint = matrix[np.repeat(pair_topics, pair_counts), entry_words] * np.repeat(
                pair_probabilities, pair_counts
            )
            positive = joint > 0.0
            if positive.all():
                weights = -all_frequencies[entry_index] * joint * np.log(joint)
            else:
                logs = np.zeros_like(joint)
                np.log(joint, out=logs, where=positive)
                weights = np.where(
                    positive, -all_frequencies[entry_index] * joint * logs, 0.0
                )
            all_positive = bool((weights > 0.0).all())
            if not all_positive:
                # Positive-weight count per (element, topic) pair, so the
                # reassembly loop below can take a C-speed dict(zip(...))
                # fast path whenever a pair has no zero weights to filter
                # out.  The segmented reduce (empty segments stay 0) runs
                # through the ``positive_counts`` kernel.
                positive_per_pair = positive_counts(weights, pair_counts).tolist()
            weight_values = weights.tolist()

        # Reassemble per-element sparse maps from the flat weight array.
        topic_probability_maps: List[Dict[int, float]] = [{} for _ in elements]
        word_weight_maps: List[Dict[int, Dict[int, float]]] = [{} for _ in elements]
        semantic_score_maps: List[Dict[int, float]] = [{} for _ in elements]
        cursor = 0
        for pair_index, (element_index, topic, probability, count) in enumerate(
            zip(
                pair_elements.tolist(),
                pair_topics.tolist(),
                pair_probabilities.tolist(),
                pair_counts.tolist(),
            )
        ):
            word_ids = word_lists[element_index]
            if count and (all_positive or positive_per_pair[pair_index] == count):
                values = weight_values[cursor : cursor + count]
                entries = dict(zip(word_ids, values))
                total = float(sum(values))
            else:
                entries = {}
                total = 0.0
                for offset in range(count):
                    weight = weight_values[cursor + offset]
                    if weight > 0.0:
                        entries[word_ids[offset]] = weight
                        total += weight
            cursor += count
            topic_probability_maps[element_index][topic] = probability
            word_weight_maps[element_index][topic] = entries
            semantic_score_maps[element_index][topic] = total

        return [
            ElementProfile(
                element_id=element.element_id,
                timestamp=element.timestamp,
                topic_probabilities=topic_probability_maps[index],
                word_weights=word_weight_maps[index],
                semantic_scores=semantic_score_maps[index],
                references=element.references,
            )
            for index, element in enumerate(elements)
        ]


class ScoringContext:
    """A scoring snapshot of the active window, shared by every query on it.

    Holds the element profiles and the in-window follower view at query time
    ``t``; the objective reads everything from here (:meth:`terms`), so
    queries never mutate the live window.

    What depends only on the window is compiled once per *change*, not per
    snapshot or per query, into two memos: :meth:`follower_edges` keeps, for
    elements that have in-window followers, the per-topic edges
    ``p_i(e ⇝ follower)`` and their sum; :meth:`terms` keeps every element's
    compiled terms, which hold no query weight and so serve every query
    vector.  Both fill lazily and never touch the profile and follower maps.
    A context built on its own copies its maps and owns its memos.  The
    processor's snapshot is handed the processor's live profile map, the
    store's follower view and the processor's memos (``frozen=True``,
    ``edges=``, ``compiled=``); those memo entries outlive the snapshot and
    are dropped where a bucket changes what they were compiled from
    (:meth:`KSIRProcessor.process_bucket`).  Before the window changes the
    processor calls :meth:`detach` on the snapshot if somebody still holds
    it, so that snapshot keeps answering from copies of the maps as they
    were.  Filling is idempotent — threads that compile one element
    concurrently store equal entries.
    """

    def __init__(
        self,
        profiles: Mapping[int, ElementProfile],
        followers: Mapping[int, Sequence[int]],
        config: ScoringConfig,
        time: Optional[int] = None,
        *,
        frozen: bool = False,
        edges: Optional[EdgeMemo] = None,
        compiled: Optional[TermMemo] = None,
    ) -> None:
        # ``frozen``: the caller hands over dicts (followers already
        # ``id → tuple``) that nothing mutates while the context reads them,
        # or whose owner calls :meth:`detach` first; they are kept, not copied.
        self._profiles = profiles if frozen else dict(profiles)
        self._followers = followers if frozen else {
            key: tuple(value) for key, value in followers.items()
        }
        self._config = config
        self._weights = (config.lambda_weight, config.influence_weight)
        self._time = time
        # ``edges`` / ``compiled``: memos whose every entry equals what these
        # maps compile to, kept so by their owner until :meth:`detach`.
        self._edge_memo: EdgeMemo = {} if edges is None else edges
        self._term_memo: TermMemo = {} if compiled is None else compiled

    # -- accessors ---------------------------------------------------------------

    @property
    def config(self) -> ScoringConfig:
        """The scoring configuration."""
        return self._config

    @property
    def time(self) -> Optional[int]:
        """The query time ``t`` this snapshot corresponds to."""
        return self._time

    @property
    def active_ids(self) -> Tuple[int, ...]:
        """Ids of every active element in the snapshot."""
        return tuple(self._profiles.keys())

    @property
    def active_count(self) -> int:
        """``n_t``, the number of active elements."""
        return len(self._profiles)

    def __contains__(self, element_id: int) -> bool:
        return element_id in self._profiles

    def profile(self, element_id: int) -> ElementProfile:
        """The profile of an active element (KeyError when inactive)."""
        return self._profiles[element_id]

    def followers_of(self, element_id: int) -> Tuple[int, ...]:
        """``I_t(e)``: in-window followers of the element."""
        return self._followers.get(element_id, ())

    def follower_edges(self, element_id: int) -> Mapping[int, Edges]:
        """``topic → (followers, edges p_i(e ⇝ follower), Σ edges)`` of an active element.

        One entry per topic of the element's profile, followers in
        :meth:`followers_of` order; followers without a profile and edges
        that are not positive contribute to no score and are left out.
        Empty (and not memoised) for an element without in-window followers.
        """
        followers = self._followers.get(element_id)
        if not followers:
            return _EMPTY
        compiled = self._edge_memo.get(element_id)
        if compiled is None:
            profiles = self._profiles
            present = [
                (follower_id, profiles[follower_id].topic_probabilities)
                for follower_id in followers
                if follower_id in profiles
            ]
            compiled = {}
            for topic, probability in profiles[element_id].topic_probabilities.items():
                ids: List[int] = []
                edges: List[float] = []
                total = 0.0
                for follower_id, theirs in present:
                    edge = probability * theirs.get(topic, 0.0)
                    if edge > 0.0:
                        ids.append(follower_id)
                        edges.append(edge)
                        total += edge
                compiled[topic] = (tuple(ids), tuple(edges), total) if ids else NO_EDGES
            self._edge_memo[element_id] = compiled
        return compiled

    def terms(self, element_id: int) -> Terms:
        """The element's compiled terms, from the memo or compiled into it
        (KeyError when inactive)."""
        terms = self._term_memo.get(element_id)
        if terms is None:
            terms = self._term_memo[element_id] = self.compile_terms(element_id)
        return terms

    def compile_terms(self, element_id: int) -> Terms:
        """One term ``(topic, δ_i(e), R_i(e), σ_i(·, e), follower side)`` per
        topic of positive probability in the element's profile, in its
        (ascending) order, compiled from the maps without reading the term
        memo (KeyError when inactive)."""
        profile = self._profiles[element_id]
        followed = self.follower_edges(element_id)
        semantic_scores, words = profile.semantic_scores, profile.word_weights
        lambda_weight, influence_weight = self._weights
        compiled = []
        for topic, probability in profile.topic_probabilities.items():
            if probability > 0.0:
                semantic = semantic_scores.get(topic, 0.0)
                edges = followed.get(topic, NO_EDGES)
                compiled.append((
                    topic, lambda_weight * semantic + influence_weight * edges[2],
                    semantic, words.get(topic, _EMPTY), edges,
                ))
        return tuple(compiled)

    def detach(self) -> None:
        """Stop reading the maps and memos this context was handed.

        Called by their owner when the window is about to change and
        somebody still holds the context: it keeps copies of the profile
        map and the follower view as they stand, and from here on compiles
        from those into memos of its own.
        """
        self._profiles = dict(self._profiles)
        self._followers = dict(self._followers)
        self._edge_memo = {}
        self._term_memo = {}


@dataclass
class ObjectiveState:
    """Mutable bookkeeping for incremental marginal-gain evaluation.

    Attributes
    ----------
    selected:
        The element ids added so far, in insertion order.
    value:
        The current objective value ``f(S, x)``.
    covered_words:
        Per query-topic map ``word_id → max σ`` over the selected elements.
    remaining_influence:
        Per query-topic map ``follower_id → Π (1 − p_i(e' ⇝ follower))`` over
        selected sources ``e'``; followers never touched are implicitly 1.0.
    """

    selected: List[int] = field(default_factory=list)
    value: float = 0.0
    covered_words: Dict[int, Dict[int, float]] = field(default_factory=dict)
    remaining_influence: Dict[int, Dict[int, float]] = field(default_factory=dict)

    def copy(self) -> "ObjectiveState":
        """A deep copy (states are tiny compared to the window)."""
        return ObjectiveState(
            selected=list(self.selected),
            value=self.value,
            covered_words={topic: dict(words) for topic, words in self.covered_words.items()},
            remaining_influence={
                topic: dict(remaining)
                for topic, remaining in self.remaining_influence.items()
            },
        )

    def __len__(self) -> int:
        return len(self.selected)

    def __contains__(self, element_id: int) -> bool:
        return element_id in self.selected


class ObjectiveContext(Protocol):
    """What :class:`KSIRObjective` and the algorithms read from a context:
    a :class:`ScoringContext` window snapshot, or the sharded layer's merged
    candidate records (:class:`repro.cluster.MergedCandidateContext`)."""

    @property
    def config(self) -> ScoringConfig: ...
    @property
    def time(self) -> Optional[int]: ...
    @property
    def active_ids(self) -> Tuple[int, ...]: ...
    @property
    def active_count(self) -> int: ...
    def __contains__(self, element_id: int) -> bool: ...
    def terms(self, element_id: int) -> Terms: ...


class KSIRObjective:
    """The monotone submodular k-SIR objective ``f(·, x)`` for one query.

    The objective is bound to an :class:`ObjectiveContext` and a query
    vector; it exposes singleton scores, incremental marginal gains and the
    exact set value.  Evaluations of distinct elements are counted so the
    experiment harness can reproduce Figure 10 (ratio of evaluated elements).

    An element's terms ``(topic, δ_i(e), R_i(e), σ_i(·, e), (followers,
    edges, Σ edges))``, one per topic it holds, come from the context's
    term memo (:meth:`ScoringContext.terms`), which the backend shares with
    every query and keeps exact across buckets; the objective reads it
    through the context on every first touch, never binding the dict
    itself.  Every evaluation — :meth:`singleton_score`,
    :meth:`marginal_gain`, :meth:`add` — is a loop over those terms, the
    query weight ``x_i`` looked up per topic, and the selection state only;
    a term whose weight is ``0.0`` is skipped, so each evaluation runs the
    same float operations over the query's topics in ascending order.
    :attr:`evaluated_elements` counts the elements *this* objective
    touched, memo hits included.
    """

    def __init__(self, context: ObjectiveContext, query_vector: np.ndarray) -> None:
        vector = np.asarray(query_vector, dtype=float)
        if vector.ndim != 1:
            raise ValueError("query_vector must be one-dimensional")
        if not np.isfinite(vector).all():
            raise ValueError("query_vector entries must be finite")
        if np.any(vector < 0):
            raise ValueError("query_vector entries must be non-negative")
        self._context = context
        self._vector = vector
        # x_i by topic: the weight of every term the context compiles.
        self._topic_weights: List[float] = vector.tolist()
        self._lambda_weight = context.config.lambda_weight
        self._influence_weight = context.config.influence_weight
        # element id -> terms; its keys are the evaluated elements.
        self._touched: Dict[int, Terms] = {}
        self._evaluation_calls = 0

    # -- metadata --------------------------------------------------------------------

    @property
    def context(self) -> ObjectiveContext:
        """The bound scoring context."""
        return self._context

    @property
    def query_vector(self) -> np.ndarray:
        """The query vector ``x``."""
        return self._vector

    @property
    def evaluated_elements(self) -> int:
        """Number of *distinct* elements whose score has been evaluated."""
        return len(self._touched)

    @property
    def evaluation_calls(self) -> int:
        """Total number of marginal-gain / singleton evaluations."""
        return self._evaluation_calls

    # -- evaluations --------------------------------------------------------------------

    def singleton_score(self, element_id: int) -> float:
        """``δ(e, x) = f({e}, x)``."""
        self._evaluation_calls += 1
        topic_weights = self._topic_weights
        total = 0.0
        for term in self._terms(element_id):
            weight = topic_weights[term[0]]
            if weight:
                total += weight * term[1]  # x_i · δ_i(e)
        return total

    def new_state(self) -> ObjectiveState:
        """An empty selection state."""
        return ObjectiveState()

    def marginal_gain(self, element_id: int, state: ObjectiveState) -> float:
        """``Δ(e | S) = f(S ∪ {e}, x) − f(S, x)`` without mutating ``state``."""
        self._evaluation_calls += 1
        # :meth:`_terms`, written out: the query's hottest call.
        terms = self._touched.get(element_id)
        if terms is None:
            terms = self._touched[element_id] = self._context.terms(element_id)
        return self._gain(terms, state, commit=False)

    def add(self, element_id: int, state: ObjectiveState) -> float:
        """Add the element to the state and return its marginal gain."""
        self._evaluation_calls += 1
        gain = self._gain(self._terms(element_id), state, commit=True)
        state.selected.append(element_id)
        state.value += gain
        return gain

    def value(self, element_ids: Iterable[int]) -> float:
        """``f(S, x)`` evaluated from scratch (used for final scores)."""
        state = self.new_state()
        for element_id in element_ids:
            if element_id in state.selected:
                continue
            self.add(element_id, state)
        return state.value

    # -- internals ------------------------------------------------------------------------

    def _terms(self, element_id: int) -> Terms:
        """The element's terms, read through the context on first use
        (KeyError when inactive)."""
        terms = self._touched.get(element_id)
        if terms is None:
            terms = self._touched[element_id] = self._context.terms(element_id)
        return terms

    def _gain(self, terms: Terms, state: ObjectiveState, commit: bool) -> float:
        lambda_weight, influence_weight = self._lambda_weight, self._influence_weight
        topic_weights = self._topic_weights
        covered_words = state.covered_words
        total = 0.0
        for topic, _delta, semantic, words, (follower_ids, edges, influence) in terms:
            weight = topic_weights[topic]
            if not weight:
                continue
            covered = covered_words.get(topic)
            if covered is None:
                semantic_gain = semantic
                if commit and words:
                    covered_words[topic] = dict(words)
            else:
                semantic_gain = 0.0
                for word_id, sigma in words.items():
                    previous = covered.get(word_id, 0.0)
                    if sigma > previous:
                        semantic_gain += sigma - previous
                        if commit:
                            covered[word_id] = sigma

            influence_gain = 0.0
            if edges:
                remaining_map = state.remaining_influence.get(topic)
                if commit:
                    if remaining_map is None:
                        remaining_map = state.remaining_influence[topic] = {}
                    for follower_id, edge in zip(follower_ids, edges):
                        remaining = remaining_map.get(follower_id, 1.0)
                        influence_gain += edge * remaining
                        remaining_map[follower_id] = remaining * (1.0 - edge)
                elif remaining_map is None:
                    influence_gain = influence  # Σ edges, summed in this order
                else:
                    for follower_id, edge in zip(follower_ids, edges):
                        influence_gain += edge * remaining_map.get(follower_id, 1.0)

            total += weight * (
                lambda_weight * semantic_gain + influence_weight * influence_gain
            )
        return total
