"""The reference model of Algorithm 1 every implementation is checked against.

One dict/set, element-by-element rendering of the paper's maintenance
procedure: the window ``W_t``, the active set ``A_t`` with its in-window
follower sets ``I_t(e)``, and the per-topic ranked lists of ``δ_i(e)``.
It is deliberately slow and plain — no arrays, no bulk paths, no
checkpoints, no timers, a full-scan archive — and shares with production
only the value types (``SocialElement``, ``KSIRQuery``),
the per-element primitives (``ProfileBuilder.build``,
``RankedListIndex.insert / refresh / remove``), ``ScoringContext`` /
``KSIRObjective`` and the solvers.  A re-post is a new version of its
element by definition: ``insert`` replaces every tuple of the previous one,
so nothing stays on the list of a topic the new version dropped.  The one
place it looks past the current element: a parent re-activated from the
archive receives its tuples when the bucket closes, so an archived version
the same bucket re-posts never touches (or marks dirty) a list.

The second half is the reference of the *query* path: ``f(S, x)`` and its
parts computed from scratch out of a window snapshot (Eq. 1-4), then the
objective, the ranked-list traversal and MTTS written out call by call,
importing nothing of production's compiled forms
(``tests/test_query_path.py``).  The last part is topic inference one
document at a time (``tests/test_topics_inference.py``).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.algorithms import resolve_algorithm
from repro.core.element import SocialElement
from repro.core.query import KSIRQuery
from repro.core.ranked_list import RankedListIndex
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

    def followers_snapshot(self) -> Dict[int, Tuple[int, ...]]:
        return {e: self.followers_of(e) for e, f in self._followers.items() if f}

    def last_activity(self, element_id: int) -> int:
        return self._last_activity[element_id]


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
        self.ranked_lists = RankedListIndex(topic_model.num_topics, scoring)
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
            self.profiles, self.window.followers_snapshot(), self.scoring,
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


def reference_mtts(objective, index: RankedListIndex, k: int, epsilon: float):
    """Algorithm 2, every candidate visited for every retrieved element.

    Returns ``(selected ids, value, evaluated elements, extras)``.
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
        score = objective.singleton_score(element_id)
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
    return tuple(best.selected), best.value, objective.evaluated_elements, extras


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
