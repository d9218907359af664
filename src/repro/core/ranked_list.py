"""Per-topic ranked lists and their maintenance over the stream (Algorithm 1).

For every topic ``θ_i`` the index keeps a list of tuples ``⟨δ_i(e), t_e⟩`` for
the active elements with ``p_i(e) > 0``, sorted in descending order of the
topic-wise representativeness score ``δ_i(e) = f_i({e})``.  The stream
processor drives three kinds of updates:

* **insert** — a new element arrives; its tuples are inserted into the lists
  of its topics with ``δ_i(e) = λ·R_i(e)`` (no followers observed yet); a
  re-post replaces the tuples of its previous version.
* **refresh** — an active element gains a follower; its influence component
  changed, so its tuples are re-scored and repositioned.
* **expire** — an element left the active set; its tuples are removed.

Query algorithms traverse the lists in descending score order through
:class:`RankedListTraversal`, which merges the per-topic cursors (weighted by
the query vector) and implements the paper's rule that once an element has
been retrieved from one list its tuples in the other lists are skipped.

The index additionally records which topics had tuples inserted, re-scored
or removed since the last drain (:meth:`RankedListIndex.take_dirty_topics`).
The serving engine uses this dirty-topic set to re-evaluate only the
standing queries whose topic support actually changed.
The set is bounded by the number of topics, so consumers that never drain it
(ad-hoc query users) pay at most ``O(z)`` memory.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.scoring import ElementProfile, ScoringConfig
from repro.store.codec import (
    decode_id_list,
    decode_ranked_entries,
    encode_ranked_entries,
)
from repro.utils.sorted_list import DescendingSortedList
from repro.utils.timing import StopWatch, TimingStats


def _mask(topics: Iterable[int]) -> int:
    """The topic set as a bitmask (bit ``i`` set for topic ``i``)."""
    mask = 0
    for topic in topics:
        mask |= 1 << topic
    return mask


def _topics(mask: int) -> List[int]:
    """The topics of a :func:`_mask`, ascending."""
    topics = []
    while mask:
        lowest = mask & -mask
        topics.append(lowest.bit_length() - 1)
        mask ^= lowest
    return topics


class RankedListIndex:
    """The collection of per-topic ranked lists ``RL_1, ..., RL_z``."""

    def __init__(self, num_topics: int, config: ScoringConfig) -> None:
        if num_topics <= 0:
            raise ValueError("num_topics must be positive")
        self._num_topics = int(num_topics)
        self._config = config
        self._lists: List[DescendingSortedList] = [
            DescendingSortedList() for _ in range(self._num_topics)
        ]
        # element id -> last-activity timestamp t_e (shared across its lists).
        self._last_activity: Dict[int, int] = {}
        # element id -> the topics whose lists hold a tuple of it: what an
        # expiry removes and what a re-post may drop, without probing z lists.
        # One int per element (a bitmask): an int is no work for the garbage
        # collector where a tuple is.
        self._topics_of: Dict[int, int] = {}
        # Topics whose lists changed since the last drain (bounded by z).
        self._dirty_topics: Set[int] = set()
        self._update_timer = TimingStats(name="ranked-list-update")


    # -- metadata ----------------------------------------------------------------

    @property
    def num_topics(self) -> int:
        """Number of ranked lists (= number of topics ``z``)."""
        return self._num_topics

    @property
    def config(self) -> ScoringConfig:
        """The scoring configuration used to compute ``δ_i(e)``."""
        return self._config

    @property
    def update_timer(self) -> TimingStats:
        """Accumulated per-element maintenance times (Figure 14)."""
        return self._update_timer

    @property
    def element_count(self) -> int:
        """Number of distinct elements with tuples (or an activity record)."""
        return len(self._last_activity)

    def list_size(self, topic: int) -> int:
        """Number of tuples currently on topic ``topic``'s list."""
        return len(self._lists[topic])

    def total_tuples(self) -> int:
        """Total number of tuples across every list."""
        return sum(len(lst) for lst in self._lists)

    def __contains__(self, element_id: int) -> bool:
        return element_id in self._last_activity

    def score(self, topic: int, element_id: int) -> float:
        """``δ_i(e)`` as currently stored (KeyError when absent)."""
        return self._lists[topic].score(element_id)

    def scores_of(self, element_id: int) -> Dict[int, float]:
        """All stored topic-wise scores of an element (empty when absent)."""
        return {
            topic: self._lists[topic].score(element_id)
            for topic in _topics(self._topics_of.get(element_id, 0))
        }

    def last_activity(self, element_id: int) -> int:
        """``t_e``: the element's last post/reference time (KeyError when absent)."""
        return self._last_activity[element_id]

    def items(self, topic: int) -> List[Tuple[int, float]]:
        """The ``(element_id, δ_i(e))`` tuples of one list, best first."""
        return self._lists[topic].items()

    # -- dirty-topic tracking ---------------------------------------------------------

    @property
    def dirty_topic_count(self) -> int:
        """Number of topics with un-drained changes."""
        return len(self._dirty_topics)

    def peek_dirty_topics(self) -> Tuple[int, ...]:
        """The currently dirty topics, without draining them."""
        return tuple(sorted(self._dirty_topics))

    def take_dirty_topics(self) -> Tuple[int, ...]:
        """Drain and return the dirty-topic set.

        The result holds every topic whose list had tuples inserted,
        re-scored or removed since the previous drain.  Consumers (the
        serving engine) call this once per ingested bucket.
        """
        dirty = tuple(sorted(self._dirty_topics))
        self._dirty_topics.clear()
        return dirty

    # -- scoring helper -------------------------------------------------------------

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

    # -- maintenance ---------------------------------------------------------------------

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

    def bulk_update(
        self,
        inserts: Sequence[Tuple[ElementProfile, int]] = (),
        removes: Sequence[int] = (),
        scored_refreshes: Sequence[Tuple[int, Mapping[int, float], int]] = (),
    ) -> None:
        """Apply a bucket's worth of maintenance in one grouped pass.

        ``inserts`` are ``(profile, activity_time)`` pairs of newly arrived
        elements (scored with no followers, like :meth:`insert`);
        ``scored_refreshes`` are ``(element_id, topic → δ_i(e),
        activity_time)`` triples standing for a :meth:`refresh` whose
        scores the caller already computed (the processor derives them in
        one matrix operation over the store's profile rows); ``removes``
        are expired element ids.  Removals are applied first, then the
        insert/refresh scores are grouped **per topic** and loaded into
        each ranked list with one :meth:`DescendingSortedList.bulk_insert`
        merge instead of one bisect-insertion per tuple.  When the same
        element appears as both an insert and a refresh, the refresh score
        wins (matching the per-element insert-then-refresh outcome).
        A re-post replaces its previous versions — the stored one and any
        earlier in ``inserts``: its tuples on the topics the last version no
        longer has leave those lists (and the bucket's grouped scores), as
        :meth:`insert` does for one re-post.
        Activity times combine via ``max`` with any stored value, which is
        what the per-element discipline converges to over a bucket.

        The update timer keeps its per-element meaning (Figure 14): the
        bucket-level span is split evenly across the applied operations, so
        its count grows by one per insert/refresh/remove, exactly as many
        as the per-element methods would record, and its mean is per element.
        """
        watch = StopWatch()
        watch.start()

        topics_of = self._topics_of
        if removes:
            removals: Dict[int, List[int]] = defaultdict(list)
            for element_id in removes:
                self._last_activity.pop(element_id, None)
                for topic in _topics(topics_of.pop(element_id, 0)):
                    removals[topic].append(element_id)
            for topic, element_ids in removals.items():
                self._lists[topic].bulk_discard(element_ids)
            self._dirty_topics.update(removals)

        lambda_weight = self._config.lambda_weight
        last_activity = self._last_activity
        # re-posted element id -> its last version in ``inserts``
        reposted: Dict[int, ElementProfile] = {}
        # topic -> {element_id: score}; later stores supersede earlier
        # ones per element, matching the per-element apply order.
        per_topic: Dict[int, Dict[int, float]] = defaultdict(dict)
        for profile, activity_time in inserts:
            element_id = profile.element_id
            time = profile.timestamp if activity_time is None else activity_time
            previous = last_activity.get(element_id)
            last_activity[element_id] = time if previous is None else max(previous, time)
            for topic, semantic in profile.semantic_scores.items():
                per_topic[topic][element_id] = lambda_weight * semantic
            held = topics_of.get(element_id)
            if held is None:
                topics_of[element_id] = _mask(profile.semantic_scores)
            else:
                topics_of[element_id] = held | _mask(profile.semantic_scores)
                reposted[element_id] = profile
        for element_id, scores, activity_time in scored_refreshes:
            time = activity_time
            previous = last_activity.get(element_id)
            last_activity[element_id] = time if previous is None else max(previous, time)
            for topic, score in scores.items():
                per_topic[topic][element_id] = score
            topics_of[element_id] = topics_of.get(element_id, 0) | _mask(scores)

        for element_id, profile in reposted.items():
            dropped = topics_of[element_id] & ~_mask(profile.topic_probabilities)
            for topic in _topics(dropped):
                per_topic[topic].pop(element_id, None)
                self._lists[topic].discard(element_id)
            topics_of[element_id] &= ~dropped
        for topic, entries in per_topic.items():
            self._lists[topic].bulk_insert(entries.items())
        self._dirty_topics.update(per_topic)

        self._update_timer.add_many(
            watch.stop(), len(inserts) + len(removes) + len(scored_refreshes)
        )

    def load(self, entries: Iterable[Tuple[int, int, Mapping[int, float]]]) -> None:
        """Load pre-computed ``(element_id, t_e, topic → δ_i(e))`` entries verbatim.

        The raw loader of a checkpoint restore and of the cluster
        coordinator's replica index (:mod:`repro.cluster.merge`): the scores were
        maintained where the window is, so re-deriving them from profiles
        would only risk drift.  An entry replaces the element's activity
        time and its tuples on the topics it names.  The tuples are grouped
        per topic and each list takes them in one
        :meth:`DescendingSortedList.bulk_insert`, which orders them by
        ``(−score, id)`` exactly as one insertion per tuple would.  Loading
        is not stream maintenance: the update timer records nothing.
        """
        last_activity, topics_of = self._last_activity, self._topics_of
        per_topic: Dict[int, List[Tuple[int, float]]] = defaultdict(list)
        for element_id, activity_time, scores in entries:
            last_activity[element_id] = int(activity_time)
            for topic, score in scores.items():
                per_topic[topic].append((element_id, score))
            topics_of[element_id] = topics_of.get(element_id, 0) | _mask(scores)
        for topic, items in per_topic.items():
            self._lists[topic].bulk_insert(items)
        self._dirty_topics.update(per_topic)

    def clear(self) -> None:
        """Drop every tuple (used when rebuilding the index)."""
        for topic, ranked in enumerate(self._lists):
            if len(ranked) > 0:
                self._dirty_topics.add(topic)
            ranked.clear()
        self._last_activity.clear()
        self._topics_of.clear()

    # -- checkpoint state -------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """A serialisable snapshot of every stored tuple.

        Scores are persisted verbatim (one entry per element: its activity
        time plus its ``topic → δ_i(e)`` map) rather than re-derived from
        profiles at restore time, so a restored index is bit-identical to
        the saved one.  The dirty-topic set is saved too, because it is the
        serving engine's re-evaluation state.

        The entries are emitted as one CSR slice — id/activity vectors
        plus flat topic/score arrays — which the checkpoint stores in its
        ``.npz`` member instead of JSON.
        """
        return {
            "num_topics": self._num_topics,
            "entries": encode_ranked_entries(
                (element_id, activity_time, sorted(self.scores_of(element_id).items()))
                for element_id, activity_time in sorted(self._last_activity.items())
            ),
            "dirty_topics": sorted(self._dirty_topics),
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Replace the index contents with a :meth:`state_dict` snapshot."""
        if int(state["num_topics"]) != self._num_topics:
            raise ValueError(
                f"checkpoint has {state['num_topics']} topics, the index is "
                f"configured for {self._num_topics}"
            )
        self.clear()
        self.load(decode_ranked_entries(state["entries"]))
        # Loading marked every list dirty; restore the saved set so the
        # serving engine resumes exactly where it left off.
        self._dirty_topics = set(decode_id_list(state["dirty_topics"]))

    # -- traversal ----------------------------------------------------------------------------

    def traversal(self, query_vector: np.ndarray) -> "RankedListTraversal":
        """A fresh descending traversal for the given query vector."""
        return RankedListTraversal(self, query_vector)

    def validate(self) -> bool:
        """Check the sorted-list invariants of every list and that the
        element → topics record names exactly the stored tuples (used by tests)."""
        held = {
            (topic, element_id)
            for element_id, mask in self._topics_of.items()
            for topic in _topics(mask)
        }
        stored = {
            (topic, element_id)
            for topic, ranked in enumerate(self._lists)
            for element_id in ranked.keys()
        }
        return held == stored and all(ranked.validate() for ranked in self._lists)


class RankedListTraversal:
    """Merged descending traversal of the ranked lists for one query.

    Exposes the two operations of Section 4.1 — ``first``/``next`` per list —
    through a combined interface:

    * :meth:`upper_bound` — ``UB(x) = Σ_i x_i · δ_i(e^(i))`` where ``e^(i)``
      is the current unvisited front of list ``i`` (0 contribution for
      exhausted lists);
    * :meth:`next_id` — retrieve the element maximising ``x_i · δ_i(e^(i))``
      and mark it visited in every list, optionally only while ``UB(x)``
      reaches a bound (one pass over the fronts for both);
    * :meth:`pop` — the same retrieval, returned as ``(element_id, δ(e, x))``
      with ``δ(e, x)`` assembled from the stored topic-wise scores.

    Cursor invariant: between calls every unexhausted list's cursor rests on
    a tuple whose element has not been retrieved, and its ``x_i · δ_i`` is
    cached; a retrieval moves only the lists whose front is the retrieved
    element.  Exhausted lists leave the merge.  The index must not change
    while a traversal is in use.
    """

    def __init__(self, index: RankedListIndex, query_vector: np.ndarray) -> None:
        vector = np.asarray(query_vector, dtype=float)
        if vector.shape != (index.num_topics,):
            raise ValueError(
                f"query vector has shape {vector.shape}, expected ({index.num_topics},)"
            )
        self._index = index
        self._vector = vector
        self._topics: List[int] = [
            topic for topic, weight in enumerate(vector) if weight > 0.0
        ]
        self._visited: Set[int] = set()
        # Parallel columns over the lists still in the merge, in topic order:
        # an iterator just past the front, the query weight, and the front's
        # element id and ``x_i · δ_i``.
        self._iterators = [iter(index._lists[topic].entries()) for topic in self._topics]
        self._weights = [float(vector[topic]) for topic in self._topics]
        self._front_ids = [0] * len(self._topics)
        self._front_values = [0.0] * len(self._topics)
        for position in reversed(range(len(self._topics))):
            self._advance(position)

    def _advance(self, position: int) -> None:
        """Rest one list on its next unretrieved tuple, or drop it when spent."""
        visited = self._visited
        for negated_score, element_id in self._iterators[position]:
            if element_id not in visited:
                self._front_ids[position] = element_id
                self._front_values[position] = self._weights[position] * -negated_score
                return
        for column in (self._iterators, self._weights, self._front_ids, self._front_values):
            del column[position]

    @property
    def retrieved_count(self) -> int:
        """Number of elements retrieved so far."""
        return len(self._visited)

    @property
    def visited(self) -> Set[int]:
        """The ids retrieved so far (shared-visited rule of Section 4.1)."""
        return set(self._visited)

    def upper_bound(self) -> float:
        """``UB(x)``: an upper bound on ``δ(e, x)`` of any unretrieved element."""
        total = 0.0
        for value in self._front_values:
            total += value
        return total

    def exhausted(self) -> bool:
        """Whether every list has been fully traversed."""
        return not self._front_values

    def next_id(self, bound: Optional[float] = None) -> Optional[int]:
        """Retrieve the next element id in descending ``x_i · δ_i`` order.

        ``None`` when every list is exhausted or — with ``bound`` — when
        ``UB(x) < bound``, in which case nothing is retrieved.
        """
        total, best, best_value = 0.0, -1, -1.0
        for position, value in enumerate(self._front_values):
            total += value
            if value > best_value:
                best_value = value
                best = position
        if best < 0 or (bound is not None and total < bound):
            return None
        front_ids = self._front_ids
        element_id = front_ids[best]
        self._visited.add(element_id)
        # Last list first, so a spent list's removal keeps the positions ahead.
        for position in reversed(range(len(front_ids))):
            if front_ids[position] == element_id:
                self._advance(position)
        return element_id

    def pop(self) -> Optional[Tuple[int, float]]:
        """Retrieve the next element as ``(element_id, δ(e, x))``.

        ``None`` when every list is exhausted.
        """
        element_id = self.next_id()
        if element_id is None:
            return None
        return element_id, self.stored_score(element_id)

    def stored_score(self, element_id: int) -> float:
        """``δ(e, x)`` assembled from the stored topic-wise scores."""
        total = 0.0
        for topic in self._topics:
            score = self._index._lists[topic].get(element_id)
            if score is not None:
                total += float(self._vector[topic]) * score
        return total

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        while True:
            item = self.pop()
            if item is None:
                return
            yield item
