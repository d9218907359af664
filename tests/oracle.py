"""The reference model of Algorithm 1 every implementation is checked against.

One dict/set, element-by-element rendering of the paper's maintenance
procedure: the window ``W_t``, the active set ``A_t`` with its in-window
follower sets ``I_t(e)``, and the per-topic ranked lists of ``δ_i(e)``.
It is deliberately slow and plain — no arrays, no bulk paths, no
checkpoints, no timers, a full-scan archive — and shares with production
only the value types (``SocialElement``, ``KSIRQuery``),
``ProfileBuilder.build``, ``RankedListIndex``'s lists (maintained one
element at a time by :class:`ReferenceRankedListIndex`, whose ``insert /
refresh / remove`` are the per-element bodies production's bulk update
replaced), ``ScoringContext`` / ``KSIRObjective`` and the solvers.  A
re-post is a new version of its element by definition: ``insert`` replaces
every tuple of the previous one, so nothing stays on the list of a topic
the new version dropped.  The one
place it looks past the current element: a parent re-activated from the
archive receives its tuples when the bucket closes, so an archived version
the same bucket re-posts never touches (or marks dirty) a list.

The second half is the reference of the *query* path: ``f(S, x)`` and its
parts computed from scratch out of a window snapshot (Eq. 1-4), then the
objective, the ranked-list traversal and MTTS written out call by call,
importing nothing of production's compiled forms
(``tests/test_query_path.py``), MTTS's subset-bound walk as it ran
before it settled runs of candidates at once, and its per-topic bound
written out over each candidate's ``selected`` list.  Then topic
inference one document at a time (``tests/test_topics_inference.py``).  The last part is MTTD's and
CELF's selection over the lazy max-heap they used before their plain
:mod:`heapq` lists (``tests/test_core_algorithms.py``).
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_right
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.algorithms import resolve_algorithm
from repro.core.algorithms.mtts import _MARGIN as MTTS_MARGIN
from repro.core.element import SocialElement
from repro.core.query import KSIRQuery
from repro.core.ranked_list import RankedListIndex, _mask, _topics
from repro.core.scoring import (
    ElementProfile,
    KSIRObjective,
    ObjectiveState,
    ProfileBuilder,
    ScoringConfig,
    ScoringContext,
)


class OracleWindow:
    """``W_t``, ``A_t`` and ``I_t(e)`` on plain dicts and sets (Section 3.1)."""

    def __init__(self, window_length: int, archive_windows: int = 8) -> None:
        self._window_length = window_length
        self._horizon = archive_windows * window_length
        self.current_time: Optional[int] = None
        self._elements: Dict[int, SocialElement] = {}  # A_t, activation order
        self._members: Dict[int, SocialElement] = {}  # W_t
        self._last_activity: Dict[int, int] = {}  # t_e
        self._followers: Dict[int, Set[int]] = {}  # I_t(e)
        self._archive: Dict[int, SocialElement] = {}  # everything seen lately
        self._touched_by_expiry: Set[int] = set()

    def insert(self, element: SocialElement) -> Tuple[int, ...]:
        """Insert an arrival; returns the referenced parents now active."""
        element_id = element.element_id
        # A re-posted window member replaces its previous version, and the
        # edges only the old version claimed retire with it.
        previous = self._members.get(element_id)
        if previous is not None:
            self._drop_edges(previous)
        self._elements[element_id] = element
        self._members[element_id] = element
        self._archive[element_id] = element
        self._last_activity[element_id] = max(
            element.timestamp, self._last_activity.get(element_id, element.timestamp)
        )
        touched = []
        for parent_id in element.references:
            parent = self._elements.get(parent_id)
            if parent is None:
                parent = self._archive.get(parent_id)
                if parent is None:
                    continue  # never observed: a dangling reference
                self._elements[parent_id] = parent  # re-activated precedent
            self._followers.setdefault(parent_id, set()).add(element_id)
            self._last_activity[parent_id] = max(
                self._last_activity.get(parent_id, parent.timestamp),
                element.timestamp,
            )
            touched.append(parent_id)
        return tuple(touched)

    def _drop_edges(self, follower: SocialElement) -> None:
        for parent_id in follower.references:
            followers = self._followers.get(parent_id, ())
            if follower.element_id in followers:
                followers.discard(follower.element_id)
                self._touched_by_expiry.add(parent_id)

    def advance_to(self, time: int) -> Tuple[int, ...]:
        """Move to ``time``; returns the ids that left the active set."""
        if self.current_time is not None and time < self.current_time:
            raise ValueError("cannot move the window backwards")
        self.current_time = time
        window_start = self.window_start
        for element_id, element in list(self._members.items()):
            if element.timestamp < window_start:
                del self._members[element_id]
                self._drop_edges(element)
        removed = [
            element_id
            for element_id, last_activity in self._last_activity.items()
            if last_activity < window_start
        ]
        for element_id in removed:
            del self._elements[element_id]
            del self._last_activity[element_id]
            self._followers.pop(element_id, None)
            self._members.pop(element_id, None)
            self._touched_by_expiry.discard(element_id)
        cutoff = time - self._horizon
        if cutoff > 0:
            for element_id, element in list(self._archive.items()):
                if element.timestamp < cutoff and element_id not in self._elements:
                    del self._archive[element_id]
        return tuple(removed)

    def take_touched_by_expiry(self) -> Tuple[int, ...]:
        """Drain the active elements whose follower set shrank."""
        touched = tuple(e for e in self._touched_by_expiry if e in self._elements)
        self._touched_by_expiry.clear()
        return touched

    @property
    def window_start(self) -> Optional[int]:
        if self.current_time is None:
            return None
        return self.current_time - self._window_length + 1

    def __contains__(self, element_id: int) -> bool:
        return element_id in self._elements

    def get(self, element_id: int) -> SocialElement:
        return self._elements[element_id]

    def active_ids(self) -> Tuple[int, ...]:
        return tuple(self._elements)

    def window_ids(self) -> Tuple[int, ...]:
        return tuple(self._members)

    def in_window(self, element_id: int) -> bool:
        return element_id in self._members

    def followers_of(self, element_id: int) -> Tuple[int, ...]:
        return tuple(sorted(self._followers.get(element_id, ())))

    def follower_view(self) -> Dict[int, Tuple[int, ...]]:
        return {e: self.followers_of(e) for e, f in self._followers.items() if f}

    def last_activity(self, element_id: int) -> int:
        return self._last_activity[element_id]


class ReferenceRankedListIndex(RankedListIndex):
    """The ranked lists maintained one element at a time (Algorithm 1).

    ``insert`` / ``refresh`` / ``remove`` are the per-element bodies that
    :meth:`RankedListIndex.bulk_update` replaced, scoring ``δ_i(e)`` from
    profiles with ``p · float(sum(…))``; everything else — the lists, the
    traversal, checkpoints — is production's.
    """

    def _singleton_topic_score(
        self,
        profile: ElementProfile,
        topic: int,
        follower_probabilities: Sequence[float],
    ) -> float:
        probability = profile.topic_probability(topic)
        semantic = profile.semantic_score(topic)
        influence = probability * float(sum(follower_probabilities))
        return (
            self._config.lambda_weight * semantic
            + self._config.influence_weight * influence
        )

    def _rescore(
        self,
        profile: ElementProfile,
        followers: Mapping[int, ElementProfile],
    ) -> Dict[int, float]:
        """Compute ``δ_i(e)`` for every topic of the element."""
        scores: Dict[int, float] = {}
        for topic in profile.topics:
            follower_probabilities = [
                follower.topic_probability(topic) for follower in followers.values()
            ]
            scores[topic] = self._singleton_topic_score(
                profile, topic, follower_probabilities
            )
        return scores

    def insert(self, profile: ElementProfile, activity_time: Optional[int] = None) -> None:
        """Insert a new element's tuples (no followers observed yet).

        A re-post replaces its previous version: tuples on topics the new
        profile no longer has are retired.
        """
        with self._update_timer.measure():
            element_id = profile.element_id
            time = profile.timestamp if activity_time is None else activity_time
            held = _mask(profile.topic_probabilities)
            retired = _topics(self._topics_of.get(element_id, 0) & ~held)
            for topic in retired:
                self._lists[topic].remove(element_id)
            self._topics_of[element_id] = held
            self._last_activity[element_id] = time
            for topic in profile.topics:
                score = self._config.lambda_weight * profile.semantic_score(topic)
                self._lists[topic].insert(element_id, score)
            self._dirty_topics.update(retired + list(profile.topics))

    def refresh(
        self,
        profile: ElementProfile,
        followers: Mapping[int, ElementProfile],
        activity_time: int,
    ) -> None:
        """Re-score an element after its in-window follower set changed."""
        with self._update_timer.measure():
            self._last_activity[profile.element_id] = max(
                self._last_activity.get(profile.element_id, profile.timestamp),
                activity_time,
            )
            scores = self._rescore(profile, followers)
            for topic, score in scores.items():
                self._lists[topic].update(profile.element_id, score)
            self._topics_of[profile.element_id] = (
                self._topics_of.get(profile.element_id, 0) | _mask(scores)
            )
            self._dirty_topics.update(scores)

    def remove(self, element_id: int) -> None:
        """Remove every tuple of an expired element."""
        with self._update_timer.measure():
            self._last_activity.pop(element_id, None)
            touched = _topics(self._topics_of.pop(element_id, 0))
            for topic in touched:
                self._lists[topic].remove(element_id)
            self._dirty_topics.update(touched)


class Oracle:
    """Algorithm 1, one element at a time, over an :class:`OracleWindow`."""

    def __init__(
        self,
        topic_model,
        window_length: int,
        scoring: ScoringConfig,
        archive_windows: int = 8,
        home_filter: Optional[Callable[[int], bool]] = None,
    ) -> None:
        self.scoring = scoring
        self.window = OracleWindow(window_length, archive_windows)
        self.ranked_lists = ReferenceRankedListIndex(topic_model.num_topics, scoring)
        self.profiles: Dict[int, ElementProfile] = {}
        self._builder = ProfileBuilder(topic_model, scoring)
        self._is_home = home_filter or (lambda element_id: True)

    @classmethod
    def for_config(cls, topic_model, config, home_filter=None) -> "Oracle":
        """The oracle a ``ProcessorConfig`` describes (read by attribute)."""
        return cls(
            topic_model,
            config.window_length,
            config.scoring,
            archive_windows=config.archive_windows,
            home_filter=home_filter,
        )

    def _follower_profiles(self, element_id: int) -> Dict[int, ElementProfile]:
        followers = self.window.followers_of(element_id)
        return {f: self.profiles[f] for f in followers if f in self.profiles}

    def process_bucket(self, elements: Sequence[SocialElement], end_time: int) -> None:
        """Ingest one bucket (elements must carry their topic vectors)."""
        window, index = self.window, self.ranked_lists
        # Parent re-activated from the archive -> time of its last reference.
        # Its tuples wait for the end of the bucket: a re-post later in the
        # bucket replaces the archived version before it reaches any list.
        reactivated: Dict[int, int] = {}
        for element in elements:
            element_id, time = element.element_id, element.timestamp
            profile = self._builder.build(element)
            touched_parents = window.insert(element)
            self.profiles[element_id] = profile
            if self._is_home(element_id):
                reactivated.pop(element_id, None)
                index.insert(profile, activity_time=time)
                if window.followers_of(element_id):
                    # A re-post keeps its influence component.
                    index.refresh(
                        profile,
                        self._follower_profiles(element_id),
                        window.last_activity(element_id),
                    )
            for parent_id in touched_parents:
                if not self._is_home(parent_id):
                    continue  # maintained on the shard that owns the parent
                parent = self.profiles.get(parent_id)
                if parent is None:  # re-activated from the archive
                    self.profiles[parent_id] = self._builder.build(window.get(parent_id))
                    reactivated[parent_id] = time
                elif parent_id in reactivated:
                    reactivated[parent_id] = time
                else:
                    index.refresh(parent, self._follower_profiles(parent_id), time)
        for parent_id, time in reactivated.items():
            parent = self.profiles[parent_id]
            index.insert(parent, activity_time=time)
            index.refresh(parent, self._follower_profiles(parent_id), time)
        for element_id in window.advance_to(end_time):
            self.profiles.pop(element_id, None)
            if self._is_home(element_id):
                index.remove(element_id)
        # Elements that lost followers keep their tuples at a stale score.
        for element_id in window.take_touched_by_expiry():
            if self._is_home(element_id) and element_id in self.profiles:
                index.refresh(
                    self.profiles[element_id],
                    self._follower_profiles(element_id),
                    window.last_activity(element_id),
                )

    def snapshot(self) -> ScoringContext:
        """The scoring context of the current window, built from scratch."""
        return ScoringContext(
            self.profiles, self.window.follower_view(), self.scoring,
            time=self.window.current_time,
        )

    def query(self, query: KSIRQuery, algorithm: str, epsilon: float = 0.1):
        """Answer a k-SIR query; returns ``(element_ids, score)``."""
        solver = resolve_algorithm(algorithm, default_name=algorithm, epsilon=epsilon)
        objective = KSIRObjective(self.snapshot(), query.vector)
        index = self.ranked_lists if solver.requires_index else None
        outcome = solver.select(objective, query.k, index=index)
        return outcome.element_ids, outcome.value


# ---------------------------------------------------------------------------
# The objective from its definition (Eq. 1-4)
# ---------------------------------------------------------------------------
#
# Production only ever evaluates compiled terms against a selection state.
# These recompute a score from scratch out of a window snapshot's profiles
# and follower view.


def influence_probability(
    context: ScoringContext, topic: int, source_id: int, follower_id: int
) -> float:
    """``p_i(e' ⇝ e) = p_i(e') · p_i(e)`` for an observed reference."""
    if source_id not in context or follower_id not in context:
        return 0.0
    source, follower = context.profile(source_id), context.profile(follower_id)
    return source.topic_probability(topic) * follower.topic_probability(topic)


def singleton_topic_score(context: ScoringContext, element_id: int, topic: int) -> float:
    """``δ_i(e) = f_i({e})``: the element's score on one topic."""
    profile = context.profile(element_id)
    influence = 0.0
    probability = profile.topic_probability(topic)
    if probability > 0.0:
        for follower_id in context.followers_of(element_id):
            if follower_id in context:
                influence += probability * context.profile(follower_id).topic_probability(topic)
    config = context.config
    return (
        config.lambda_weight * profile.semantic_score(topic)
        + config.influence_weight * influence
    )


def singleton_score(context: ScoringContext, element_id: int, query_vector) -> float:
    """``δ(e, x) = f({e}, x)``."""
    total = 0.0
    for topic in context.profile(element_id).topics:
        weight = float(query_vector[topic])
        if weight > 0.0:
            total += weight * singleton_topic_score(context, element_id, topic)
    return total


def semantic_score(context: ScoringContext, element_ids, topic: int) -> float:
    """``R_i(S)`` computed directly from Eq. 3."""
    best: Dict[int, float] = {}
    for element_id in element_ids:
        for word_id, weight in context.profile(element_id).word_weights.get(topic, {}).items():
            if weight > best.get(word_id, 0.0):
                best[word_id] = weight
    return float(sum(best.values()))


def influence_score(context: ScoringContext, element_ids, topic: int) -> float:
    """``I_{i,t}(S)`` computed directly from Eq. 4."""
    influenced: Dict[int, float] = {}
    for source_id in element_ids:
        if source_id not in context:
            continue
        probability = context.profile(source_id).topic_probability(topic)
        for follower_id in context.followers_of(source_id):
            if follower_id not in context:
                continue
            edge = probability * context.profile(follower_id).topic_probability(topic)
            remaining = influenced.get(follower_id, 1.0)
            influenced[follower_id] = remaining * (1.0 - edge)
    return float(sum(1.0 - remaining for remaining in influenced.values()))


def score(context: ScoringContext, element_ids, query_vector) -> float:
    """``f(S, x) = Σ_i x_i · (λ·R_i(S) + (1 − λ)/η·I_{i,t}(S))`` (Eq. 1-2)."""
    ids = list(element_ids)
    config = context.config
    total = 0.0
    for topic, weight in enumerate(np.asarray(query_vector, dtype=float)):
        if weight > 0.0:
            total += float(weight) * (
                config.lambda_weight * semantic_score(context, ids, topic)
                + config.influence_weight * influence_score(context, ids, topic)
            )
    return total


# ---------------------------------------------------------------------------
# The query path, written out call by call
# ---------------------------------------------------------------------------
#
# Production compiles an element once per query, memoises follower edges per
# window, caches the traversal's fronts and sweeps MTTS's candidates by
# bisection.  These are the straightforward renderings it must equal bit for
# bit: every gain re-derives its inputs from the context, every front is
# re-read from the list, every candidate is visited for every element.


class ReferenceObjective:
    """``f(·, x)`` with each evaluation derived from the context's maps."""

    def __init__(self, context: ScoringContext, query_vector) -> None:
        self.context = context
        self.query_vector = np.asarray(query_vector, dtype=float)
        self.query_topics = tuple(
            (topic, float(weight))
            for topic, weight in enumerate(self.query_vector)
            if weight > 0.0
        )
        self.evaluated: Set[int] = set()
        self.evaluation_calls = 0

    @property
    def evaluated_elements(self) -> int:
        return len(self.evaluated)

    def new_state(self) -> ObjectiveState:
        return ObjectiveState()

    def _note(self, element_id: int) -> None:
        self.evaluated.add(element_id)
        self.evaluation_calls += 1

    def singleton_score(self, element_id: int) -> float:
        self._note(element_id)
        profile = self.context.profile(element_id)
        config = self.context.config
        total = 0.0
        for topic, weight in self.query_topics:
            probability = profile.topic_probability(topic)
            if probability <= 0.0:
                continue
            influence = 0.0
            for follower_id in self.context.followers_of(element_id):
                if follower_id in self.context:
                    follower = self.context.profile(follower_id)
                    influence += probability * follower.topic_probability(topic)
            total += weight * (
                config.lambda_weight * profile.semantic_score(topic)
                + config.influence_weight * influence
            )
        return total

    def marginal_gain(self, element_id: int, state: ObjectiveState) -> float:
        return self._gain(element_id, state, commit=False)

    def add(self, element_id: int, state: ObjectiveState) -> float:
        gain = self._gain(element_id, state, commit=True)
        state.selected.append(element_id)
        state.value += gain
        return gain

    def _gain(self, element_id: int, state: ObjectiveState, commit: bool) -> float:
        self._note(element_id)
        profile = self.context.profile(element_id)
        config = self.context.config
        total = 0.0
        for topic, weight in self.query_topics:
            probability = profile.topic_probability(topic)
            if probability <= 0.0:
                continue
            covered = state.covered_words.get(topic)
            topic_weights = profile.word_weights.get(topic, {})
            semantic_gain = 0.0
            if covered is None:
                semantic_gain = profile.semantic_score(topic)
                if commit and topic_weights:
                    state.covered_words[topic] = dict(topic_weights)
            else:
                for word_id, sigma in topic_weights.items():
                    previous = covered.get(word_id, 0.0)
                    if sigma > previous:
                        semantic_gain += sigma - previous
                        if commit:
                            covered[word_id] = sigma
            influence_gain = 0.0
            remaining_map = state.remaining_influence.get(topic)
            for follower_id in self.context.followers_of(element_id):
                if follower_id not in self.context:
                    continue
                follower = self.context.profile(follower_id)
                edge = probability * follower.topic_probability(topic)
                if edge <= 0.0:
                    continue
                remaining = 1.0
                if remaining_map is not None:
                    remaining = remaining_map.get(follower_id, 1.0)
                influence_gain += edge * remaining
                if commit:
                    if remaining_map is None:
                        remaining_map = state.remaining_influence[topic] = {}
                    remaining_map[follower_id] = remaining * (1.0 - edge)
            total += weight * (
                config.lambda_weight * semantic_gain
                + config.influence_weight * influence_gain
            )
        return total


class ReferenceTraversal:
    """The d-way merge of Section 4.1 with every front re-read per call."""

    def __init__(self, index: RankedListIndex, query_vector) -> None:
        self.vector = np.asarray(query_vector, dtype=float)
        self.topics = [t for t, weight in enumerate(self.vector) if weight > 0.0]
        self.lists = {topic: index.items(topic) for topic in self.topics}
        self.cursors = {topic: 0 for topic in self.topics}
        self.visited: Set[int] = set()

    def _front(self, topic: int) -> Optional[Tuple[int, float]]:
        ranked = self.lists[topic]
        while self.cursors[topic] < len(ranked):
            element_id, score = ranked[self.cursors[topic]]
            if element_id not in self.visited:
                return element_id, score
            self.cursors[topic] += 1
        return None

    def upper_bound(self) -> float:
        total = 0.0
        for topic in self.topics:
            front = self._front(topic)
            if front is not None:
                total += float(self.vector[topic]) * front[1]
        return total

    def exhausted(self) -> bool:
        return all(self._front(topic) is None for topic in self.topics)

    def pop(self) -> Optional[int]:
        best_topic, best_value, best_element = None, -1.0, None
        for topic in self.topics:
            front = self._front(topic)
            if front is None:
                continue
            value = float(self.vector[topic]) * front[1]
            if value > best_value:
                best_topic, best_value, best_element = topic, value, front[0]
        if best_topic is None:
            return None
        self.visited.add(best_element)
        self.cursors[best_topic] += 1
        return best_element


def reference_single(index: RankedListIndex, element_id: int, query_vector) -> float:
    """``δ(e, x)`` from the element's stored keys: ``Σ x_i · δ_i(e)`` over the
    topics of positive weight, added in topic order from ``0.0``."""
    total = 0.0
    for topic, weight in enumerate(np.asarray(query_vector, dtype=float).tolist()):
        if weight > 0.0 and element_id in index._lists[topic]:
            total += weight * index.score(topic, element_id)
    return total


def reference_mtts(objective, index: RankedListIndex, k: int, epsilon: float):
    """Algorithm 2, every candidate visited for every retrieved element, the
    singleton of each retrieved element read from the ranked-list keys.

    Returns ``(selected ids, value, evaluated elements, extras)``; every
    retrieved element counts as evaluated.
    """
    traversal = ReferenceTraversal(index, objective.query_vector)
    base = 1.0 + epsilon
    candidates: Dict[int, ObjectiveState] = {}
    delta_max = threshold = 0.0
    retrieved = 0
    while traversal.upper_bound() >= threshold:
        element_id = traversal.pop()
        if element_id is None:
            break
        retrieved += 1
        score = reference_single(index, element_id, objective.query_vector)
        if score > delta_max:
            delta_max = score
            low = math.ceil(math.log(delta_max, base) - 1e-12)
            high = math.floor(math.log(2.0 * k * delta_max, base) + 1e-12)
            valid = set(range(low, high + 1))
            candidates = {j: s for j, s in candidates.items() if j in valid}
            for j in valid:
                candidates.setdefault(j, objective.new_state())
        for j, state in candidates.items():
            admission = base**j / (2.0 * k)
            if score < admission or len(state.selected) >= k:
                continue
            if objective.marginal_gain(element_id, state) >= admission:
                objective.add(element_id, state)
        unfilled = [
            base**j / (2.0 * k) for j, s in candidates.items() if len(s.selected) < k
        ]
        if candidates and not unfilled:
            break
        threshold = min(unfilled) if unfilled else 0.0
    best = None
    for state in candidates.values():
        if best is None or state.value > best.value:
            best = state
    if best is None:
        best = objective.new_state()
    extras = {"candidates": float(len(candidates)), "retrieved": float(retrieved)}
    return tuple(best.selected), best.value, retrieved, extras


def subset_bound_mtts(objective, index: RankedListIndex, k: int, epsilon: float):
    """MTTS's walk as it ran before it settled runs of candidates at once:
    every position still to be walked scans every rejection so far.  The
    loop is the production body of that version, verbatim.

    Returns ``(selected ids, value, evaluated elements, extras)``.
    """
    traversal = index.traversal(objective.query_vector)
    base = 1.0 + epsilon

    def grid_range(delta_max: float) -> range:
        low = math.ceil(math.log(delta_max, base) - 1e-12)
        high = math.floor(math.log(2.0 * k * delta_max, base) + 1e-12)
        return range(low, high + 1)

    candidates: Dict[int, ObjectiveState] = {}
    masks: Dict[int, int] = {}
    open_js: List[int] = []
    open_states: List[ObjectiveState] = []
    open_thresholds: List[float] = []
    delta_max = 0.0
    threshold = 0.0  # TH: minimum admission threshold of an unfilled candidate
    retrieved = 0

    for element_id, bound, score in zip(traversal.order, traversal.bounds, traversal.singles):
        if bound < threshold:
            break  # UB(x) < TH: no unevaluated element can be admitted
        bit = 1 << retrieved
        retrieved += 1
        if score < threshold and score <= delta_max:
            continue  # enters no candidate and leaves the grid as it is

        if score > delta_max:
            delta_max = score
            valid = set(grid_range(delta_max))
            candidates = {j: s for j, s in candidates.items() if j in valid}
            for j in valid:
                candidates.setdefault(j, objective.new_state())
            masks = {j: masks.get(j, 0) for j in candidates}
            open_js = sorted(j for j, s in candidates.items() if len(s.selected) < k)
            open_states = [candidates[j] for j in open_js]
            open_thresholds = [base**j / (2.0 * k) for j in open_js]

        # (members, gain) of each candidate that rejected this element;
        # walked downwards, so deletions keep the positions still to come.
        rejected: List[Tuple[int, float]] = []
        for position in reversed(range(bisect_right(open_thresholds, score))):
            j, admission = open_js[position], open_thresholds[position]
            members = masks[j]
            bound = admission * MTTS_MARGIN
            for mask, gain in rejected:
                if gain < bound and mask & members == mask:
                    break  # Δ(e | S_j) ≤ Δ(e | T) < ϕ/2k for T ⊆ S_j
            else:
                state = open_states[position]
                gain = objective.marginal_gain(element_id, state)
                if gain < admission:
                    rejected.append((members, gain))
                    continue
                objective.add(element_id, state)
                masks[j] = members | bit
                if len(state.selected) >= k:
                    del open_js[position], open_states[position], open_thresholds[position]

        # When every candidate is full no further element can be admitted.
        if candidates and not open_states:
            break
        threshold = open_thresholds[0] if open_states else 0.0

    best_state: Optional[ObjectiveState] = None
    for state in candidates.values():
        if best_state is None or state.value > best_state.value:
            best_state = state
    if best_state is None:
        best_state = objective.new_state()
    extras = {"candidates": float(len(candidates)), "retrieved": float(retrieved)}
    return tuple(best_state.selected), best_state.value, retrieved, extras


def topic_bound_mtts(objective, index: RankedListIndex, k: int, epsilon: float):
    """Algorithm 2 with the per-topic subset bound written out, no masks.

    A retrieved element ``e`` walks the unfilled candidates from the highest
    admission threshold down.  At each one it checks every rejection so
    far: a candidate ``T`` that rejected ``e`` with gain ``g`` settles
    ``S`` when ``g < ϕ_S/2k · (1 − 1e-9)`` and ``T``'s members on ``e``'s
    query lists are among ``S``'s.  A candidate's members on ``e``'s lists
    are read off its ``selected`` list, keeping the members that some
    weighted topic's ranked list holds together with ``e``.

    Returns ``(selected ids, value, evaluated elements, extras)``.
    """
    vector = objective.query_vector
    query_topics = [topic for topic, weight in enumerate(vector.tolist()) if weight > 0.0]

    def lists_of(element_id: int) -> Set[int]:
        return {topic for topic in query_topics if element_id in index._lists[topic]}

    traversal = ReferenceTraversal(index, vector)
    base = 1.0 + epsilon
    candidates: Dict[int, ObjectiveState] = {}
    delta_max = threshold = 0.0
    retrieved = 0
    while traversal.upper_bound() >= threshold:
        element_id = traversal.pop()
        if element_id is None:
            break
        retrieved += 1
        score = reference_single(index, element_id, vector)
        if score < threshold and score <= delta_max:
            continue
        if score > delta_max:
            delta_max = score
            low = math.ceil(math.log(delta_max, base) - 1e-12)
            high = math.floor(math.log(2.0 * k * delta_max, base) + 1e-12)
            valid = set(range(low, high + 1))
            candidates = {j: s for j, s in candidates.items() if j in valid}
            for j in valid:
                candidates.setdefault(j, objective.new_state())

        held = lists_of(element_id)
        rejected: List[Tuple[Set[int], float]] = []
        for j in sorted(candidates, reverse=True):
            state, admission = candidates[j], base**j / (2.0 * k)
            if score < admission or len(state.selected) >= k:
                continue
            members = {m for m in state.selected if lists_of(m) & held}
            if any(
                gain < admission * MTTS_MARGIN and theirs <= members
                for theirs, gain in rejected
            ):
                continue
            gain = objective.marginal_gain(element_id, state)
            if gain >= admission:
                objective.add(element_id, state)
            else:
                rejected.append((members, gain))

        unfilled = [
            base**j / (2.0 * k) for j, s in candidates.items() if len(s.selected) < k
        ]
        if candidates and not unfilled:
            break
        threshold = min(unfilled) if unfilled else 0.0
    best = None
    for state in candidates.values():
        if best is None or state.value > best.value:
            best = state
    if best is None:
        best = objective.new_state()
    extras = {"candidates": float(len(candidates)), "retrieved": float(retrieved)}
    return tuple(best.selected), best.value, retrieved, extras


# ---------------------------------------------------------------------------
# Topic inference, one document at a time
# ---------------------------------------------------------------------------
#
# Production infers a sealed bucket as one stacked iteration
# (``TopicInferencer.infer_many``).  This is the per-document body it
# replaced, kept verbatim: ``matrix[:, word_ids]`` is F-contiguous, so the
# token totals are pairwise sums over the contiguous topic axis and ``theta``
# accumulates token after token — the order the stacked layout has to keep.


def reference_infer(
    model,
    tokens: Sequence[str],
    alpha: Optional[float] = None,
    iterations: int = 30,
    sparsity_threshold: float = 0.0,
) -> np.ndarray:
    """The mean-field topic distribution of one token list."""
    word_ids = model.vocabulary.encode(tokens)
    z = model.num_topics
    if not word_ids:
        return np.full(z, 1.0 / z)
    alpha = float(alpha) if alpha is not None else 50.0 / z
    phi = model.topic_word_matrix[:, word_ids]  # (z, n_tokens)
    theta = np.full(z, 1.0 / z)
    for _ in range(iterations):
        # responsibilities of each topic for each token
        weighted = phi * theta[:, None]
        token_totals = weighted.sum(axis=0)
        token_totals[token_totals == 0.0] = 1.0
        responsibilities = weighted / token_totals
        theta = alpha + responsibilities.sum(axis=1)
        theta = theta / theta.sum()
    if sparsity_threshold <= 0.0:
        return theta
    truncated = np.where(theta >= sparsity_threshold, theta, 0.0)
    total = truncated.sum()
    if total <= 0.0:
        # Keep only the single best topic rather than returning zeros.
        best = int(np.argmax(theta))
        truncated = np.zeros_like(theta)
        truncated[best] = 1.0
        return truncated
    return truncated / total


# ---------------------------------------------------------------------------
# MTTD and CELF over a lazy max-heap, as they ran before their plain heapq
# lists (``tests/test_core_algorithms.py`` holds the two to each other)
# ---------------------------------------------------------------------------


class LazyMaxHeap:
    """Max-heap over hashable keys with updatable (lazily removed) priorities:
    negated priorities and a push counter in a :mod:`heapq` list, entries
    whose priority no longer matches skipped."""

    def __init__(self) -> None:
        self._heap: list = []
        self._priority: Dict[int, float] = {}
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._priority)

    def push(self, key: int, priority: float) -> None:
        self._priority[key] = float(priority)
        heapq.heappush(self._heap, (-float(priority), next(self._counter), key))

    def peek(self) -> Tuple[int, float]:
        self._drop_stale()
        neg_priority, _count, key = self._heap[0]
        return key, -neg_priority

    def pop(self) -> Tuple[int, float]:
        self._drop_stale()
        neg_priority, _count, key = heapq.heappop(self._heap)
        del self._priority[key]
        return key, -neg_priority

    def max_priority(self) -> Optional[float]:
        if not self._priority:
            return None
        return self.peek()[1]

    def _drop_stale(self) -> None:
        while self._heap:
            neg_priority, _count, key = self._heap[0]
            current = self._priority.get(key)
            if current is not None and current == -neg_priority:
                return
            heapq.heappop(self._heap)


def reference_mttd(objective, k: int, index: RankedListIndex, epsilon: float):
    """MTTD's selection with its buffer a :class:`LazyMaxHeap`, singletons
    from the ranked-list keys: ``(element_ids, value, evaluated_elements,
    extras)``."""
    traversal = index.traversal(objective.query_vector)
    buffer = LazyMaxHeap()
    state = objective.new_state()

    def outcome():
        return (tuple(state.selected), state.value, retrieved, {
            "rounds": float(rounds),
            "retrieved": float(retrieved),
            "buffered": float(len(buffer)),
        })

    tau = traversal.upper_bound()
    termination = 0.0
    rounds = 0
    retrieved = 0
    while tau >= termination and tau > 0.0:
        rounds += 1
        while (element_id := traversal.next_id(tau)) is not None:
            score = reference_single(index, element_id, objective.query_vector)
            retrieved += 1
            if score > 0.0:
                buffer.push(element_id, score)
        while len(buffer) > 0:
            element_id, cached_gain = buffer.peek()
            if cached_gain < tau:
                break
            buffer.pop()
            gain = objective.marginal_gain(element_id, state)
            if gain >= tau:
                objective.add(element_id, state)
                if len(state.selected) >= k:
                    return outcome()
            elif gain > 0.0:
                buffer.push(element_id, gain)
        termination = state.value * epsilon / k
        tau *= 1.0 - epsilon
        if traversal.exhausted() and len(buffer) == 0:
            break
    return outcome()


def reference_celf(objective, k: int):
    """CELF's selection with its heap a :class:`LazyMaxHeap`:
    ``(element_ids, value, evaluated_elements, extras)``."""
    state = objective.new_state()
    heap = LazyMaxHeap()
    for element_id in objective.context.active_ids:
        heap.push(element_id, objective.singleton_score(element_id))
    reevaluations = 0
    while len(state.selected) < k and len(heap) > 0:
        element_id, cached_gain = heap.pop()
        if cached_gain <= 0.0:
            break
        if not state.selected:
            objective.add(element_id, state)
            continue
        gain = objective.marginal_gain(element_id, state)
        reevaluations += 1
        current_best = heap.max_priority()
        if current_best is None or gain >= current_best:
            objective.add(element_id, state)
        else:
            heap.push(element_id, gain)
    return (tuple(state.selected), state.value, objective.evaluated_elements,
            {"lazy_reevaluations": float(reevaluations)})
