"""Per-topic ranked lists and their maintenance over the stream (Algorithm 1).

For every topic ``θ_i`` the index keeps a list of tuples ``⟨δ_i(e), t_e⟩`` for
the active elements with ``p_i(e) > 0``, sorted in descending order of the
topic-wise representativeness score ``δ_i(e) = f_i({e})``.  The stream
processor applies a bucket's three kinds of updates in one
:meth:`RankedListIndex.bulk_update`:

* **insert** — a new element arrives; its tuples are written to the lists
  of its topics with ``δ_i(e) = λ·R_i(e)`` (no followers observed yet); a
  re-post replaces the tuples of its previous version.
* **refresh** — an active element's follower set changed; its tuples take
  the scores the processor recomputed over the store's profile rows.
* **expire** — an element left the active set; its tuples are removed.

The per-element bodies of these updates (Algorithm 1 written out) live in
the test suite's oracle, the reference the bulk path is held to.

A list is a score map (:class:`~repro.utils.sorted_list.DescendingSortedList`):
maintenance only writes scores, and the first read after a change sorts the
list, so the order is paid for by the queries that read it — a query sorts
the lists of its own topics at most once per change, and a list nobody reads
(every list of a shard worker, which serves scores and activity times only)
is never sorted.

Query algorithms traverse the lists in descending score order through
:class:`RankedListTraversal`: the merge of the query topics' lists (weighted
by the query vector) under the paper's rule that once an element has been
retrieved from one list its tuples in the other lists are skipped.  The
whole merge is planned once per query in NumPy — the retrieval order,
``UB(x)`` before every step, each retrieved element's singleton
``δ(e, x)`` and the query lists that hold it — as four NumPy arrays, so
the algorithms never ask the objective for a singleton.

The index additionally records which topics had tuples inserted, re-scored
or removed since the last drain (:meth:`RankedListIndex.take_dirty_topics`).
The serving engine uses this dirty-topic set to re-evaluate only the
standing queries whose topic support actually changed.
The set is bounded by the number of topics, so consumers that never drain it
(ad-hoc query users) pay at most ``O(z)`` memory.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.scoring import ElementProfile, ScoringConfig
from repro.store.codec import (
    decode_id_list,
    decode_ranked_entries,
    encode_ranked_entries,
)
from repro.utils.sorted_list import DescendingSortedList
from repro.utils.timing import StopWatch, TimingStats

#: A traversal plan: the retrieval order (ids), ``UB(x)`` before every step
#: (one entry more), the singleton of every step and, for a merge of several
#: lists, the lists that hold every step's element (bit ``j`` for the plan's
#: ``j``-th list), as NumPy arrays; a one-list plan has ``None`` there.
Plan = Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]


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

    # -- maintenance ---------------------------------------------------------------------

    def bulk_update(
        self,
        inserts: Sequence[Tuple[ElementProfile, int]] = (),
        removes: Sequence[int] = (),
        scored_refreshes: Sequence[Tuple[int, Mapping[int, float], int]] = (),
    ) -> None:
        """Apply a bucket's worth of maintenance in one grouped pass.

        ``inserts`` are ``(profile, activity_time)`` pairs of newly arrived
        elements (scored with no followers: ``λ·R_i(e)``);
        ``scored_refreshes`` are ``(element_id, topic → δ_i(e),
        activity_time)`` triples of re-scored elements whose scores the
        caller already computed (the processor derives them in one matrix
        operation over the store's profile rows); ``removes``
        are expired element ids.  Removals are applied first, then the
        insert and refresh scores are written into the lists' score maps,
        one O(1) write per tuple; no list is sorted here (the first
        traversal after the change sorts the lists it reads).  When the same
        element appears as both an insert and a refresh, the refresh score
        wins (matching the per-element insert-then-refresh outcome).
        A re-post replaces its previous versions — the stored one and any
        earlier in ``inserts``: its tuples on the topics the last version no
        longer has leave those lists.
        Activity times combine via ``max`` with any stored value, which is
        what the per-element discipline converges to over a bucket.

        The update timer keeps its per-element meaning (Figure 14): the
        bucket-level span is split evenly across the applied operations, so
        its count grows by one per insert/refresh/remove, one per element
        maintained, and its mean is per element.
        """
        watch = StopWatch()
        watch.start()

        lists, topics_of, last_activity = self._lists, self._topics_of, self._last_activity
        # The topics this call writes, as a mask: they turn dirty.
        touched = 0
        for element_id in removes:
            last_activity.pop(element_id, None)
            held = topics_of.pop(element_id, 0)
            for topic in _topics(held):
                lists[topic].discard(element_id)
            touched |= held

        lambda_weight = self._config.lambda_weight
        # re-posted element id -> its last version in ``inserts``
        reposted: Dict[int, ElementProfile] = {}
        # Later writes supersede earlier ones per element, matching the
        # per-element apply order.
        for profile, activity_time in inserts:
            element_id = profile.element_id
            time = profile.timestamp if activity_time is None else activity_time
            previous = last_activity.get(element_id)
            last_activity[element_id] = time if previous is None else max(previous, time)
            for topic, semantic in profile.semantic_scores.items():
                lists[topic].insert(element_id, lambda_weight * semantic)
            mask = _mask(profile.semantic_scores)
            touched |= mask
            held = topics_of.get(element_id)
            if held is None:
                topics_of[element_id] = mask
            else:
                topics_of[element_id] = held | mask
                reposted[element_id] = profile
        for element_id, scores, time in scored_refreshes:
            previous = last_activity.get(element_id)
            last_activity[element_id] = time if previous is None else max(previous, time)
            for topic, score in scores.items():
                lists[topic].insert(element_id, score)
            mask = _mask(scores)
            touched |= mask
            topics_of[element_id] = topics_of.get(element_id, 0) | mask

        for element_id, profile in reposted.items():
            dropped = topics_of[element_id] & ~_mask(profile.topic_probabilities)
            for topic in _topics(dropped):
                lists[topic].discard(element_id)
            topics_of[element_id] &= ~dropped
            touched |= dropped
        self._dirty_topics.update(_topics(touched))

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
        :meth:`DescendingSortedList.bulk_insert`.  Loading is not stream
        maintenance: the update timer records nothing.
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

    The two operations of Section 4.1 — ``first``/``next`` per list, merged
    by ``x_i · δ_i`` with the retrieved elements skipped in every other
    list — are computed once, at construction, as a :attr:`plan` of four
    NumPy arrays, each also read as a Python list (converted on first use):

    * :attr:`order` — the element ids in retrieval order: each element
      once, at its first entry in the merge;
    * :attr:`bounds` — ``bounds[r]`` is ``UB(x) = Σ_i x_i · δ_i(e^(i))``
      before step ``r``, where ``e^(i)`` is list ``i``'s first entry not
      yet retrieved (0 contribution for exhausted lists); it has one more
      entry than :attr:`order`, ``UB(x)`` once everything is retrieved;
    * :attr:`singles` — ``singles[r]`` is ``δ(e, x) = Σ_i x_i · δ_i(e)`` of
      the element retrieved at step ``r``, its stored keys weighted and
      added list by list in topic order from ``0.0`` — the float operations
      of :meth:`KSIRObjective.singleton_score
      <repro.core.scoring.KSIRObjective.singleton_score>` over the keys.
      Every term of ``singles[r]`` is at most the same list's term of
      ``bounds[r]`` (the list's front, or the element itself), so
      ``singles[r] <= bounds[r]`` holds in floats, not only in reals.
      ``bounds`` never increases: each list's front value does not, and
      the fronts are added in one order;
    * :attr:`held` — ``held[r]`` has bit ``j`` set when the plan's ``j``-th
      list (the query's weighted topics with a non-empty list, ascending)
      holds the element retrieved at step ``r``.  A one-list plan stores
      nothing here (``plan[3]`` is ``None``) and reads ``1`` at every step.
      The processor lists an element on every topic of its profile, so
      an element's gain on the query reads only the coverage left on the
      lists ``held`` names (what MTTS's subset bound rests on).

    MTTS zips the four lists; MTTD reads the first three arrays only (one
    bisection of ``bounds`` per round, one sort of ``singles`` per query);
    :meth:`next_id`,
    :meth:`upper_bound` and :meth:`exhausted` walk it with a cursor, whose
    last retrieved element's singleton is ``singles[retrieved_count − 1]``.

    The plan, for lists ``0..d−1`` in topic order: the lists' read orders
    are concatenated with their values ``x_i · δ_i``, and one stable sort
    by ``−x_i · δ_i`` orders the entries by ``(−x_i · δ_i, list position,
    rank in list)`` — the merge's choice at every step, ties to the first
    list.  An element's first entry there is its retrieval step.  List
    ``i``'s front before step ``r`` is its first entry whose element's
    step is ``≥ r``, read off the prefix max of its entries' steps (entry
    ``j`` is the front for the steps after ``max(steps[:j])`` up to
    ``max(steps[:j + 1])``).  ``UB(x)`` adds the fronts' values list by list
    in topic order, the float additions a front-by-front loop makes, and
    an exhausted list adds nothing.  The singles add every list's values
    at their elements' steps, list by list in topic order, and ``held``
    ORs list ``j``'s bit in at the same steps.  A one-topic query's plan
    is its list.

    Construction reads each query topic's order, sorting the lists changed
    since their last read.  Traversals may be built and used from several
    threads at once: a sort publishes new arrays and never touches ones a
    plan was built from, and two threads sorting the same list publish
    equal ones.  The index must not change while a traversal is built.
    """

    def __init__(self, index: RankedListIndex, query_vector: np.ndarray) -> None:
        vector = np.asarray(query_vector, dtype=float)
        if vector.shape != (index.num_topics,):
            raise ValueError(
                f"query vector has shape {vector.shape}, expected ({index.num_topics},)"
            )
        ids: List[np.ndarray] = []
        values: List[np.ndarray] = []
        for topic, weight in enumerate(vector.tolist()):
            if weight > 0.0:
                scores, keys = index._lists[topic].columns()
                if len(keys):
                    ids.append(keys)
                    values.append(weight * scores)
        self.plan = _plan(ids, values)
        self._step = 0

    @cached_property
    def order(self) -> List[int]:
        """The element ids in retrieval order."""
        return self.plan[0].tolist()

    @cached_property
    def bounds(self) -> List[float]:
        """``UB(x)`` before every step, and once everything is retrieved."""
        return self.plan[1].tolist()

    @cached_property
    def singles(self) -> List[float]:
        """``δ(e, x)`` of the element retrieved at every step."""
        return self.plan[2].tolist()

    @cached_property
    def held(self) -> List[int]:
        """The plan's lists holding the element of every step, as bitmasks."""
        held = self.plan[3]
        return [1] * len(self.plan[0]) if held is None else held.tolist()

    @property
    def retrieved_count(self) -> int:
        """Number of elements retrieved so far."""
        return self._step

    @property
    def visited(self) -> Set[int]:
        """The ids retrieved so far (shared-visited rule of Section 4.1)."""
        return set(self.order[: self._step])

    def upper_bound(self) -> float:
        """``UB(x)``: an upper bound on ``δ(e, x)`` of any unretrieved element."""
        return self.bounds[self._step]

    def exhausted(self) -> bool:
        """Whether every list has been fully traversed."""
        return self._step == len(self.order)

    def next_id(self, bound: Optional[float] = None) -> Optional[int]:
        """Retrieve the next element id in descending ``x_i · δ_i`` order.

        ``None`` when every list is exhausted or — with ``bound`` — when
        ``UB(x) < bound``, in which case nothing is retrieved.
        """
        step = self._step
        if step == len(self.order) or (bound is not None and self.bounds[step] < bound):
            return None
        self._step = step + 1
        return self.order[step]


def _plan(ids: List[np.ndarray], values: List[np.ndarray]) -> Plan:
    """The retrieval order, ``UB(x)`` before every step, the singleton of
    every step and the lists holding every step's element, of the merge of
    the lists ``ids`` (each in read order) valued ``values`` (``x_i · δ_i``)."""
    if len(ids) == 1:
        return ids[0], np.append(values[0], 0.0), values[0], None
    if not ids:
        return np.empty(0, dtype=np.int64), np.zeros(1), np.empty(0), None
    merged_ids = np.concatenate(ids)
    # Stable: equal values keep the concatenation's (list position, rank).
    entries = np.argsort(-np.concatenate(values), kind="stable")
    merged = merged_ids[entries]
    # Group the merge's entries by element: an element's first entry is the
    # smallest merge position in its group, and the first entries in merge
    # order are the retrieval order.
    by_id = np.argsort(merged)
    grouped = merged[by_id]
    new_group = np.empty(len(grouped), dtype=bool)
    new_group[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=new_group[1:])
    first = np.minimum.reduceat(by_id, np.flatnonzero(new_group))
    count = len(first)
    step_of = np.empty(count, dtype=np.intp)
    step_of[np.argsort(first)] = np.arange(count)
    # The retrieval step of every list entry, in concatenation order.
    steps = np.empty(len(merged_ids), dtype=np.intp)
    steps[entries[by_id]] = step_of[np.cumsum(new_group) - 1]

    # With ``reached`` the prefix max of a list's entry steps, entry j is
    # its front for the steps after ``reached[j − 1]`` up to ``reached[j]``;
    # after ``reached[-1]`` the list is exhausted and adds nothing.  A list
    # holds an element once, so its values land on distinct singles and its
    # bit on distinct steps.  Past 62 lists a bit needs a Python int.
    bounds = np.zeros(count + 1)
    singles = np.zeros(count)
    held = np.zeros(count, dtype=np.int64 if len(ids) < 63 else object)
    start = 0
    for bit, list_values in enumerate(values):
        list_steps = steps[start : start + len(list_values)]
        reached = np.maximum.accumulate(list_steps)
        bounds[: reached[-1] + 1] += np.repeat(list_values, np.diff(reached, prepend=-1))
        singles[list_steps] += list_values
        held[list_steps] |= 1 << bit
        start += len(list_values)
    return merged[np.sort(first)], bounds, singles, held
