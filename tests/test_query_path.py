"""The compiled query path equals its written-out references, bit for bit.

Production compiles an element once per query (:class:`KSIRObjective`),
memoises follower edges once per change (:meth:`ScoringContext.follower_edges`,
filling a memo the processor owns and invalidates bucket by bucket),
plans a query's whole traversal at once (:class:`RankedListTraversal`) and sweeps
MTTS's open candidates by bisection.  None of that may change a single bit of
an answer, so every comparison below is ``==`` on floats:

* against the call-by-call references in :mod:`tests.oracle`, on random
  contexts and indexes drawn to hit the awkward cases;
* against a recorded run of the parent commit (``recorded_answers.json``) —
  six algorithms after every bucket, four execution backends (the standing
  queries' also over two shards, where they carry their compiled terms
  from one sync to the next);
* on the raw-token path: a stream the engine infers bucket by bucket against
  the same stream pre-inferred by the per-document reference;
* plus the contract of the window-resident memo (its entries are held to
  their definition after every bucket in ``tests/test_oracle.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig, InferenceConfig, KSIREngine
from repro.cluster import ClusterConfig
from repro.core.algorithms import MTTS, resolve_algorithm
from repro.core.algorithms.mtts import _MARGIN
from repro.core.element import SocialElement
from repro.core.processor import ProcessorConfig
from repro.core.query import KSIRQuery
from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import (
    ElementProfile,
    KSIRObjective,
    ScoringConfig,
    ScoringContext,
)
from repro.core.stream import replay_stream
from tests.check_e2e_counts import differences, float_environment
from tests.conftest import PAPER_SCORING, build_processor, build_reference_stream
from tests.oracle import (
    ReferenceObjective,
    ReferenceTraversal,
    influence_probability,
    reference_infer,
    reference_mtts,
    reference_single,
    subset_bound_mtts,
    topic_bound_mtts,
)
from tests.test_oracle import assert_memo_is_the_definition
from tests.test_store_columnar import bucketise

SCORING = ScoringConfig(lambda_weight=0.4, eta=3.0)
NUM_TOPICS = 4


# ---------------------------------------------------------------------------
# Random contexts and indexes
# ---------------------------------------------------------------------------

#: Few distinct values, so edges, gains and list scores tie often; 0.0 is a
#: probability a hand-built (or merged) profile may carry.
PROBABILITY = st.sampled_from([0.0, 0.125, 0.25, 0.3, 0.5, 0.7])
SIGMA = st.sampled_from([0.05, 0.1, 0.1, 0.2, 0.35])


@st.composite
def profiles(draw, element_id, total=sum):
    """A full profile, or one stripped to its probabilities (all that
    influence evaluation reads of a follower); ``total`` sums each topic's
    σ's into its stored ``R_i(e)``."""
    probabilities = draw(
        st.dictionaries(st.integers(0, NUM_TOPICS - 1), PROBABILITY, max_size=NUM_TOPICS)
    )
    probabilities = dict(sorted(probabilities.items()))
    words, semantic = {}, {}
    if not draw(st.booleans()):  # not stripped
        for topic in probabilities:
            if draw(st.integers(0, 4)) == 0:
                continue  # a topic without word and semantic entries
            words[topic] = draw(st.dictionaries(st.integers(0, 5), SIGMA, max_size=4))
            semantic[topic] = total(words[topic].values())
    return ElementProfile(element_id, 1, probabilities, words, semantic, ())


@st.composite
def contexts(draw, total=sum):
    count = draw(st.integers(1, 7))
    profile_map = {eid: draw(profiles(eid, total)) for eid in range(count)}
    # Ids 7..9 have no profile: followers missing from the profile map.
    followers = {
        eid: tuple(draw(st.lists(st.integers(0, 9), max_size=4, unique=True)))
        for eid in range(count)
        if draw(st.booleans())
    }
    return ScoringContext(profile_map, followers, SCORING, time=1)


QUERY_VECTORS = st.lists(
    st.sampled_from([0.0, 0.0, 0.2, 0.5, 1.0]), min_size=NUM_TOPICS, max_size=NUM_TOPICS
).map(np.array)


#: List scores: ties, and ulp neighbours (0.1 and 0.75 each with the next
#: double up) that a 0.2 query weight maps to one ``x_i · δ_i`` — equal
#: weighted values of different scores in one list; across lists 0.5 · 0.5
#: = 1.0 · 0.25 and 0.2 · 0.5 = 1.0 · 0.1 do the same.
LIST_SCORES = [0.0, 0.1, 0.1, 0.25, 0.5, 0.75, math.nextafter(0.1, 1.0), math.nextafter(0.75, 1.0)]


@st.composite
def indexes(draw):
    """Ranked lists with tied scores and ids present on several lists."""
    index = RankedListIndex(NUM_TOPICS, SCORING)
    scores = st.dictionaries(
        st.integers(0, NUM_TOPICS - 1), st.sampled_from(LIST_SCORES), min_size=1
    )
    index.load(
        (element_id, 1, draw(scores)) for element_id in range(draw(st.integers(0, 10)))
    )
    return index


class TestCompiledObjectiveEqualsReference:
    @given(
        context=contexts(),
        vector=QUERY_VECTORS,
        steps=st.lists(
            st.tuples(st.sampled_from(["singleton", "gain", "add"]), st.integers(0, 6)),
            max_size=25,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_sequence_of_evaluations(self, context, vector, steps):
        ours, theirs = KSIRObjective(context, vector), ReferenceObjective(context, vector)
        our_state, their_state = ours.new_state(), theirs.new_state()
        for operation, element_id in steps:
            if element_id not in context:
                continue
            if operation == "singleton":
                assert ours.singleton_score(element_id) == theirs.singleton_score(element_id)
            elif operation == "gain":
                gain = theirs.marginal_gain(element_id, their_state)
                assert ours.marginal_gain(element_id, our_state) == gain
            else:
                assert ours.add(element_id, our_state) == theirs.add(element_id, their_state)
            assert our_state == their_state
            assert ours.evaluation_calls == theirs.evaluation_calls
            assert ours.evaluated_elements == theirs.evaluated_elements

    def test_inactive_element_is_a_key_error(self, paper_context):
        objective = KSIRObjective(paper_context, np.array([0.5, 0.5]))
        with pytest.raises(KeyError):
            objective.singleton_score(99)


class TestSubsetBoundIsSound:
    """MTTS rejects ``e`` from ``S`` unevaluated when ``Δ(e | T) < ϕ/2k ·
    (1 − 1e-9)`` for a candidate ``T ⊆ S``, both built in one element order.
    Submodularity gives ``Δ(e | S) ≤ Δ(e | T)``; the computed floats follow
    it except where ``T`` has no coverage on a topic (stored ``R_i(e)``) and
    ``S`` has (the word loop's sum), which the margin absorbs.  ``math.fsum``
    stands in for a compensated ``sum()`` (CPython ≥ 3.12) building the
    stored ``R_i(e)``."""

    @pytest.mark.parametrize("total", [sum, math.fsum], ids=["sum", "fsum"])
    @given(data=st.data(), vector=QUERY_VECTORS)
    @settings(max_examples=300, deadline=None)
    def test_a_subset_rejection_rejects_the_superset(self, total, data, vector):
        context = data.draw(contexts(total))
        order = data.draw(st.permutations(context.active_ids))
        members = order[: data.draw(st.integers(0, len(order)))]
        chosen = data.draw(
            st.lists(st.booleans(), min_size=len(members), max_size=len(members))
        )
        objective = KSIRObjective(context, vector)
        subset, superset = objective.new_state(), objective.new_state()
        for element_id, in_subset in zip(members, chosen):
            objective.add(element_id, superset)
            if in_subset:
                objective.add(element_id, subset)

        gains = {
            element_id: (
                objective.marginal_gain(element_id, subset),
                objective.marginal_gain(element_id, superset),
            )
            for element_id in order[len(members):]
        }
        thresholds = [gain for pair in gains.values() for gain in pair]
        for small, large in gains.values():
            for threshold in thresholds:
                if small < threshold * _MARGIN:
                    assert large < threshold

    def test_the_margin_covers_a_compensated_stored_sum(self):
        """The case the margin is for: ``Δ(e | ∅)`` reads the stored
        ``fsum`` of ``e``'s σ's, ``Δ(e | S)`` adds the same σ's in order and
        lands one ulp above it, so without the margin a threshold of
        ``Δ(e | S)`` would be settled from the empty candidate."""
        sigmas = {0: 0.2, 1: 0.35, 2: 0.05}
        profile_map = {
            0: ElementProfile(0, 1, {0: 0.5}, {0: sigmas}, {0: math.fsum(sigmas.values())}, ()),
            1: ElementProfile(1, 1, {0: 0.5}, {0: {3: 0.1}}, {0: 0.1}, ()),
        }
        context = ScoringContext(profile_map, {}, SCORING, time=1)
        objective = KSIRObjective(context, np.array([1.0, 0.0, 0.0, 0.0]))
        empty, superset = objective.new_state(), objective.new_state()
        objective.add(1, superset)
        small = objective.marginal_gain(0, empty)
        large = objective.marginal_gain(0, superset)
        assert small < large  # the computed gains are not monotone here
        assert not small < large * _MARGIN

    @pytest.mark.parametrize("total", [sum, math.fsum], ids=["sum", "fsum"])
    @given(data=st.data(), vector=QUERY_VECTORS)
    @settings(max_examples=300, deadline=None)
    def test_members_on_other_topics_leave_the_bound_alone(self, total, data, vector):
        """``T``'s members on ``e``'s query topics are among ``S``'s, but
        ``T`` also holds members ``S`` lacks, on other topics only: ``Δ(e |
        T)`` still bounds ``Δ(e | S)`` below the margin."""
        context = data.draw(contexts(total))
        order = data.draw(st.permutations(context.active_ids))
        element_id, members = order[-1], order[:-1]

        def query_topics(eid):
            return {t for t, p in context.profile(eid).topic_probabilities.items()
                    if p > 0.0 and vector[t] > 0.0}

        topics = query_topics(element_id)
        objective = KSIRObjective(context, vector)
        rejecter, superset = objective.new_state(), objective.new_state()
        for member in members:
            shares = bool(query_topics(member) & topics)
            in_superset = data.draw(st.booleans())
            # On e's topics T may hold only S's members; elsewhere anything.
            in_rejecter = data.draw(st.booleans()) and (in_superset or not shares)
            if in_superset:
                objective.add(member, superset)
            if in_rejecter:
                objective.add(member, rejecter)

        small = objective.marginal_gain(element_id, rejecter)
        large = objective.marginal_gain(element_id, superset)
        for threshold in (small, large, small * 2.0, large * 0.5):
            if small < threshold * _MARGIN:
                assert large < threshold

    def test_the_margin_covers_a_stored_sum_beside_an_off_topic_member(self):
        """The compensated case with an off-topic member: ``T`` holds only a
        member on topic 1, so ``Δ(e | T)`` reads ``e``'s stored ``fsum`` on
        topic 0, which ``T`` does not cover; ``S`` covers topic 0 with other
        words, so ``Δ(e | S)`` adds the same σ's in order, one ulp above."""
        sigmas = {0: 0.2, 1: 0.35, 2: 0.05}
        profile_map = {
            0: ElementProfile(0, 1, {0: 0.5}, {0: sigmas}, {0: math.fsum(sigmas.values())}, ()),
            1: ElementProfile(1, 1, {0: 0.5}, {0: {3: 0.1}}, {0: 0.1}, ()),
            2: ElementProfile(2, 1, {1: 0.5}, {1: {0: 0.3}}, {1: 0.3}, ()),
        }
        context = ScoringContext(profile_map, {}, SCORING, time=1)
        objective = KSIRObjective(context, np.array([1.0, 0.5, 0.0, 0.0]))
        rejecter, superset = objective.new_state(), objective.new_state()
        objective.add(2, rejecter)  # a member S lacks, on a topic e does not hold
        objective.add(1, superset)
        small = objective.marginal_gain(0, rejecter)
        large = objective.marginal_gain(0, superset)
        assert small == objective.marginal_gain(0, objective.new_state())
        assert small < large
        assert not small < large * _MARGIN


def reference_plan(index, vector):
    """The reference's retrieval order and ``UB(x)`` before every step."""
    reference = ReferenceTraversal(index, vector)
    order, bounds = [], [reference.upper_bound()]
    while (element_id := reference.pop()) is not None:
        order.append(element_id)
        bounds.append(reference.upper_bound())
    return order, bounds


def reference_held(index, vector, order):
    """For every retrieved id, the query lists whose ids include it: bit
    ``j`` for the ``j``-th weighted topic with a non-empty list."""
    lists = [
        {element_id for element_id, _score in index.items(topic)}
        for topic, weight in enumerate(np.asarray(vector, dtype=float).tolist())
        if weight > 0.0 and index.list_size(topic)
    ]
    return [
        sum(1 << j for j, ids in enumerate(lists) if element_id in ids)
        for element_id in order
    ]


def assert_plan_is_the_reference(index, vector):
    """Order, bounds, singles and held lists ``==`` the reference's; the
    bounds never increase and no single exceeds the bound before its step,
    with no slack."""
    traversal = index.traversal(vector)
    order, bounds = reference_plan(index, vector)
    assert traversal.order == order
    assert traversal.bounds == bounds
    assert all(later <= earlier for earlier, later in zip(bounds, bounds[1:]))
    singles = [reference_single(index, element_id, vector) for element_id in order]
    assert traversal.singles == singles
    assert all(single <= bound for single, bound in zip(singles, bounds))
    assert traversal.held == reference_held(index, vector, order)


class TestTraversalEqualsReference:
    @given(index=indexes(), vector=QUERY_VECTORS, bounds=st.lists(
        st.sampled_from([None, 0.0, 0.05, 0.2, 0.6]), min_size=12, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_same_ids_and_upper_bounds(self, index, vector, bounds):
        """Step by step, and as a whole plan: every id and every ``UB(x)``
        ``==`` the reference's, and the bounds never increase."""
        assert_plan_is_the_reference(index, vector)
        ours, theirs = index.traversal(vector), ReferenceTraversal(index, vector)
        for bound in bounds:
            upper = theirs.upper_bound()
            assert ours.upper_bound() == upper
            assert ours.exhausted() == theirs.exhausted()
            if bound is not None and upper < bound:
                assert ours.next_id(bound) is None  # and nothing is retrieved
                continue
            assert ours.next_id(bound) == theirs.pop()
            assert ours.visited == theirs.visited
            assert ours.retrieved_count == len(theirs.visited)

    def test_equal_weighted_values_of_different_scores(self):
        """``x·δ₁ == x·δ₂`` with ``δ₁ ≠ δ₂``: in one list the higher score
        comes first whatever the ids; across lists the lower topic does."""
        index = RankedListIndex(NUM_TOPICS, SCORING)
        index.load([
            (1, 1, {0: math.nextafter(0.1, 1.0)}),  # 0.2 · δ equal to element 0's
            (0, 1, {0: 0.1}),
            (5, 1, {1: 0.5}),  # 0.5 · 0.5 == 1.0 · 0.25
            (3, 1, {2: 0.25}),
            (4, 1, {1: 0.2}),  # 0.5 · 0.2 == 1.0 · 0.1
            (6, 1, {0: 0.1, 2: 0.1}),
            (2, 1, {3: 0.1}),
        ])
        vector = np.array([0.2, 0.5, 1.0, 1.0])
        assert 0.2 * math.nextafter(0.1, 1.0) == 0.2 * 0.1
        assert index.traversal(vector).order == [5, 3, 4, 6, 2, 1, 0]
        assert_plan_is_the_reference(index, vector)

    @given(seed=st.integers(0, 2**32 - 1), topics=st.integers(9, 12))
    @settings(max_examples=25, deadline=None)
    def test_a_large_index_with_every_topic_weighted(self, seed, topics):
        """≥ 300 elements on 9–12 lists, every topic weighted: long fronts,
        many lists exhausting at different steps, and ``UB(x)`` sums of as
        many terms as there are lists."""
        rng = np.random.default_rng(seed)
        index = RankedListIndex(topics, SCORING)
        index.load(
            (element_id, 1, {
                int(topic): float(rng.choice(LIST_SCORES + [0.3, 0.35, 0.7]))
                for topic in rng.choice(topics, size=rng.integers(1, 4), replace=False)
            })
            for element_id in rng.permutation(300 + int(rng.integers(0, 100))).tolist()
        )
        vector = rng.choice([0.2, 0.3, 0.5, 0.7, 1.0], size=topics)
        assert_plan_is_the_reference(index, vector)

    @pytest.mark.parametrize("weighted", [1, 3, 12, 50])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_singles_add_the_keys_in_topic_order(self, weighted, seed):
        """``δ(e, x)`` of every step is ``Σ x_i · δ_i(e)`` added in topic
        order from ``0.0`` over 50 lists, elements holding up to 40 topics:
        sums long enough that an addition order of its own — reversed, or
        ``np.add.reduceat``'s — shows in the last bits."""
        rng = np.random.default_rng(seed)
        index = RankedListIndex(50, SCORING)
        index.load(
            (element_id, 1, {
                int(topic): float(rng.uniform(0.0, 1.0))
                for topic in rng.choice(50, size=rng.integers(1, 41), replace=False)
            })
            for element_id in rng.permutation(200).tolist()
        )
        vector = np.zeros(50)
        vector[rng.choice(50, size=weighted, replace=False)] = rng.uniform(0.05, 1.0, weighted)
        assert_plan_is_the_reference(index, vector)
        assert len(index.traversal(vector).singles) > 0

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_held_lists_past_62_lists(self, seed):
        """A merge of 70 lists: an element's held lists need more bits
        than an ``int64`` has, and still name exactly its lists."""
        rng = np.random.default_rng(seed)
        index = RankedListIndex(80, SCORING)
        index.load(
            (element_id, 1, {
                int(topic): float(rng.uniform(0.0, 1.0))
                for topic in rng.choice(80, size=rng.integers(1, 41), replace=False)
            })
            for element_id in rng.permutation(150).tolist()
        )
        vector = np.zeros(80)
        vector[rng.choice(80, size=70, replace=False)] = rng.uniform(0.05, 1.0, 70)
        assert_plan_is_the_reference(index, vector)
        assert max(index.traversal(vector).held).bit_length() > 63

    @given(index=indexes(), vector=QUERY_VECTORS, budget=st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_top_candidates_is_the_pop_order(self, index, vector, budget):
        """The first ``budget`` ids ``next_id()`` retrieves, unbounded, are
        the reference's pop order, and so is the drained rest."""
        expected, _bounds = reference_plan(index, vector)
        traversal = index.traversal(vector)
        retrieved = [traversal.next_id() for _ in range(budget)]
        while (element_id := traversal.next_id()) is not None:
            retrieved.append(element_id)
        assert [e for e in retrieved if e is not None] == expected
        assert retrieved[: len(expected)] == expected


def small_window(seed, reposts=False):
    """A processor mid-stream: short window, live followers, re-activation."""
    model, elements = build_reference_stream(seed, 40, 3, 8)
    config = ProcessorConfig(window_length=12, bucket_length=4, scoring=PAPER_SCORING)
    processor = build_processor(model, config)
    for members, end_time in bucketise(elements, 4):
        processor.process_bucket(members, end_time)
    return processor


#: The paper's scoring with topics below 0.2 dropped: elements on fewer of
#: the three topics, so candidates hold members off an element's topics.
SPARSE_SCORING = ScoringConfig(lambda_weight=0.5, eta=2.0, topic_threshold=0.2)


def stream_window(seed, scoring=PAPER_SCORING):
    """A processor mid-stream over 80 arrivals, a window of 40."""
    model, elements = build_reference_stream(seed, 80, 3, 8)
    processor = build_processor(
        model, ProcessorConfig(window_length=40, bucket_length=4, scoring=scoring)
    )
    for members, end_time in bucketise(elements, 4):
        processor.process_bucket(members, end_time)
    return processor


class RecordingStates:
    """Wraps an objective's ``new_state`` to keep every state it hands out."""

    def __init__(self, objective):
        self.states = []
        create = objective.new_state

        def new_state():
            self.states.append(create())
            return self.states[-1]

        objective.new_state = new_state


class TestMTTSEqualsReference:
    @given(
        seed=st.integers(0, 200),
        k=st.integers(1, 6),
        epsilon=st.sampled_from([0.05, 0.1, 0.3, 0.7]),
        topics=st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True),
        equal_weights=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_same_candidates_winner_and_extras(
        self, seed, k, epsilon, topics, equal_weights
    ):
        processor = small_window(seed)
        rng = np.random.default_rng(seed)
        vector = np.zeros(3)
        vector[topics] = 1.0 if equal_weights else rng.uniform(0.2, 1.0, len(topics))
        context, index = processor.snapshot(), processor.ranked_lists

        ours = KSIRObjective(context, vector)
        theirs = ReferenceObjective(context, vector)
        our_states, their_states = RecordingStates(ours), RecordingStates(theirs)
        outcome = MTTS(epsilon).select(ours, k, index=index)
        ids, value, evaluated, extras = reference_mtts(theirs, index, k, epsilon)

        # S_ϕ of every candidate ever opened, in the order they were opened.
        assert [s.selected for s in our_states.states] == [
            s.selected for s in their_states.states
        ]
        assert [s.value for s in our_states.states] == [s.value for s in their_states.states]
        assert (outcome.element_ids, outcome.value) == (ids, value)
        assert (outcome.evaluated_elements, outcome.extras) == (evaluated, extras)
        # Gains a smaller candidate's rejection settles are never computed.
        assert ours.evaluation_calls <= theirs.evaluation_calls

    @given(
        seed=st.integers(0, 200),
        k=st.integers(1, 25),
        epsilon=st.sampled_from([0.05, 0.1, 0.3]),
        topics=st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True),
        equal_weights=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_runs_settle_what_every_rejection_settles(
        self, seed, k, epsilon, topics, equal_weights
    ):
        """The per-topic bound selects what the whole-candidate bound
        (``tests/oracle.py::subset_bound_mtts``) selects, computing at
        most its gains: a candidate's members off the element's query
        topics no longer keep it from being settled."""
        processor = stream_window(seed)
        rng = np.random.default_rng(seed)
        vector = np.zeros(3)
        vector[topics] = 1.0 if equal_weights else rng.uniform(0.2, 1.0, len(topics))
        context, index = processor.snapshot(), processor.ranked_lists

        ours, theirs = KSIRObjective(context, vector), KSIRObjective(context, vector)
        our_states, their_states = RecordingStates(ours), RecordingStates(theirs)
        outcome = MTTS(epsilon).select(ours, k, index=index)
        ids, value, evaluated, extras = subset_bound_mtts(theirs, index, k, epsilon)

        assert [s.selected for s in our_states.states] == [
            s.selected for s in their_states.states
        ]
        assert (outcome.element_ids, outcome.value) == (ids, value)
        assert (outcome.evaluated_elements, outcome.extras) == (evaluated, extras)
        assert ours.evaluation_calls <= theirs.evaluation_calls

    @given(
        seed=st.integers(0, 200),
        k=st.integers(1, 25),
        epsilon=st.sampled_from([0.05, 0.1, 0.3]),
        topics=st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True),
        equal_weights=st.booleans(),
        sparse=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_runs_settle_what_the_per_topic_bound_settles(
        self, seed, k, epsilon, topics, equal_weights, sparse
    ):
        """Member masks per query list, ORed per element, and settled runs
        compute exactly the gains, in the same candidates, that checking
        every rejection at every position against the members read off each
        candidate's ``selected`` list computes
        (``tests/oracle.py::topic_bound_mtts``)."""
        processor = stream_window(seed, SPARSE_SCORING if sparse else PAPER_SCORING)
        rng = np.random.default_rng(seed)
        vector = np.zeros(3)
        vector[topics] = 1.0 if equal_weights else rng.uniform(0.2, 1.0, len(topics))
        context, index = processor.snapshot(), processor.ranked_lists

        ours, theirs = KSIRObjective(context, vector), KSIRObjective(context, vector)
        our_states, their_states = RecordingStates(ours), RecordingStates(theirs)
        outcome = MTTS(epsilon).select(ours, k, index=index)
        ids, value, evaluated, extras = topic_bound_mtts(theirs, index, k, epsilon)

        assert [s.selected for s in our_states.states] == [
            s.selected for s in their_states.states
        ]
        assert (outcome.element_ids, outcome.value) == (ids, value)
        assert (outcome.evaluated_elements, outcome.extras) == (evaluated, extras)
        assert ours.evaluation_calls == theirs.evaluation_calls

    def test_the_per_topic_bound_settles_more_on_several_topics(self):
        """Summed over sparse windows, multi-topic queries compute strictly
        fewer gains than under the whole-candidate bound; one-topic queries,
        where every member holds the element's one list, exactly as many."""
        calls = {1: [0, 0], 2: [0, 0], 3: [0, 0]}
        for seed in range(12):
            processor = stream_window(seed, SPARSE_SCORING)
            context, index = processor.snapshot(), processor.ranked_lists
            rng = np.random.default_rng(seed)
            for topics in ([int(rng.integers(0, 3))], [0, 2], [0, 1, 2]):
                vector = np.zeros(3)
                vector[topics] = rng.uniform(0.2, 1.0, len(topics))
                for k in (10, 25):
                    ours, theirs = KSIRObjective(context, vector), KSIRObjective(context, vector)
                    outcome = MTTS(0.1).select(ours, k, index=index)
                    ids, value, _, _ = subset_bound_mtts(theirs, index, k, 0.1)
                    assert (outcome.element_ids, outcome.value) == (ids, value)
                    calls[len(topics)][0] += ours.evaluation_calls
                    calls[len(topics)][1] += theirs.evaluation_calls
        assert calls[1][0] == calls[1][1]
        assert calls[2][0] < calls[2][1]
        assert calls[3][0] < calls[3][1]

    def test_the_subset_bound_settles_half_the_gains(self):
        """Over windows of 40 elements at k = 10, ε = 0.1, MTTS computes at
        most half of the marginal gains full evaluation computes."""

        def counting(objective):
            calls = [0]
            marginal_gain = objective.marginal_gain

            def counted(element_id, state):
                calls[0] += 1
                return marginal_gain(element_id, state)

            objective.marginal_gain = counted
            return calls

        computed = reference = 0
        for seed in range(30):
            processor = stream_window(seed)
            context, index = processor.snapshot(), processor.ranked_lists
            rng = np.random.default_rng(seed)
            for vector in (np.ones(3), rng.dirichlet(np.full(3, 0.6))):
                ours = KSIRObjective(context, vector)
                theirs = ReferenceObjective(context, vector)
                ours_calls, their_calls = counting(ours), counting(theirs)
                outcome = MTTS(0.1).select(ours, 10, index=index)
                ids, value, _, _ = reference_mtts(theirs, index, 10, 0.1)
                assert (outcome.element_ids, outcome.value) == (ids, value)
                computed += ours_calls[0]
                reference += their_calls[0]
        assert 2 * computed <= reference

    def test_equal_valued_candidates_keep_their_winner(self):
        """Duplicate elements give candidates with equal values and different
        members; the first such candidate in grid order wins, as it did."""
        weights = {0: {1: 0.3, 2: 0.2}}
        profile_map = {
            eid: ElementProfile(eid, 1, {0: 0.5}, weights, {0: 0.5}, ())
            for eid in range(6)
        }
        profile_map[6] = ElementProfile(6, 1, {0: 0.5}, {0: {3: 0.45}}, {0: 0.45}, ())
        context = ScoringContext(profile_map, {}, SCORING, time=1)
        index = RankedListIndex(1, SCORING)
        index.bulk_update(inserts=[(profile, 1) for profile in profile_map.values()])
        vector = np.array([1.0])
        for k in (1, 2, 3):
            ours, theirs = KSIRObjective(context, vector), ReferenceObjective(context, vector)
            outcome = MTTS(0.3).select(ours, k, index=index)
            ids, value, evaluated, extras = reference_mtts(theirs, index, k, 0.3)
            assert (outcome.element_ids, outcome.value) == (ids, value)
            assert (outcome.evaluated_elements, outcome.extras) == (evaluated, extras)


# ---------------------------------------------------------------------------
# A recorded run of the parent commit
# ---------------------------------------------------------------------------

RECORDED = Path(__file__).with_name("recorded_answers.json")
ALGORITHMS = ("mtts", "mttd", "celf", "greedy", "sieve", "topk")
SEEDS = range(30)


def reposting_stream(seed):
    """``build_reference_stream`` with a quarter of the arrivals re-posting an
    earlier id under the topic support that id already has (a re-post that
    drops a topic is answered differently since the stale-tuple fix)."""
    model, base = build_reference_stream(seed, 48, 3, 8)
    rng = np.random.default_rng(seed + 1000)
    threshold = PAPER_SCORING.topic_threshold
    support = {}
    elements = []
    for position, element in enumerate(base):
        element_id = element.element_id
        topics = tuple(np.nonzero(element.topic_distribution > threshold)[0])
        if position > 4 and rng.random() < 0.25:
            target = int(rng.integers(0, position))
            if support.get(target) == topics:
                element_id = target
        support[element_id] = topics
        elements.append(
            SocialElement(
                element_id=element_id,
                timestamp=element.timestamp,
                tokens=element.tokens,
                references=tuple(r for r in element.references if r != element_id),
                topic_distribution=element.topic_distribution,
            )
        )
    return model, elements


def answers_digest(kind, backend, seed):
    """SHA-256 over ``(ids, repr(score), evaluated_elements, extras)`` of all
    six algorithms after every bucket of one stream on one backend."""
    if kind == "plain":
        model, elements = build_reference_stream(seed, 48, 3, 8)
    else:
        model, elements = reposting_stream(seed)
    processor = ProcessorConfig(
        window_length=10, bucket_length=4, scoring=PAPER_SCORING, archive_windows=3
    )
    rng = np.random.default_rng(seed)
    queries = [
        KSIRQuery(k=int(rng.integers(1, 6)), vector=rng.dirichlet(np.full(3, 0.6)))
        for _ in range(len(elements))
    ]
    digest = hashlib.sha256()

    def note(result):
        digest.update(
            json.dumps(
                [list(result.element_ids), repr(result.score), result.evaluated_elements,
                 sorted(result.extras.items())]
            ).encode()
        )

    if backend == "service":
        config = EngineConfig(backend="service", processor=processor)
    elif backend == "service-sharded":
        config = EngineConfig(
            backend="service", processor=processor,
            cluster=ClusterConfig(num_shards=2),
        )
    elif backend == "sharded":
        config = EngineConfig(
            backend="sharded", processor=processor,
            cluster=ClusterConfig(num_shards=3),
        )
    else:
        config = EngineConfig(processor=processor)
    standing = backend.startswith("service")
    with KSIREngine(model, config) as engine:
        if standing:
            for algorithm in ALGORITHMS:
                engine.register(queries[0], algorithm=algorithm, query_id=algorithm)
        for position, (members, end_time) in enumerate(bucketise(elements, 4)):
            engine.ingest_bucket(members, end_time)
            for algorithm in ALGORITHMS:
                if standing:
                    note(engine.results()[algorithm].result)
                else:
                    note(engine.query(queries[position], algorithm=algorithm))
    return digest.hexdigest()[:20]


@pytest.mark.parametrize("backend", ["local", "sharded", "service"])
@pytest.mark.parametrize("kind", ["plain", "reposting"])
def test_answers_equal_the_recorded_parent_run(kind, backend):
    recorded = json.loads(RECORDED.read_text())
    if recorded["float_environment"] != float_environment():
        pytest.skip(
            f"recorded under {recorded['float_environment']!r}, "
            f"running under {float_environment()!r}: profile sums differ in the last bit"
        )
    digests = [answers_digest(kind, backend, seed) for seed in SEEDS]
    assert digests == recorded[f"{kind}/{backend}"].split()


def test_standing_answers_over_shards_equal_the_recorded_parent_run():
    """Standing queries on a service engine over two serial shards.  No
    re-posting row: it would freeze the open re-post divergence of the
    sharded path (ROADMAP item 1)."""
    recorded = json.loads(RECORDED.read_text())
    if recorded["float_environment"] != float_environment():
        pytest.skip(f"recorded under {recorded['float_environment']!r}")
    digests = [answers_digest("plain", "service-sharded", seed) for seed in SEEDS]
    assert digests == recorded["plain/service-sharded"].split()


def test_smoke_count_check_names_what_moved():
    """CI's perf-smoke gate (``tests/check_e2e_counts.py``) on a made-up report."""
    recorded = json.loads(RECORDED.with_name("e2e_counts.json").read_text())
    recorded["float_environment"] = float_environment()
    report = {
        "smoke": True,
        "seed": 2019,
        "workloads": {w: {"per_layer": dict(c)} for w, c in recorded["counts"].items()},
    }
    assert differences(recorded, report) == []
    report["workloads"]["query_mixed"]["per_layer"]["core.eval_ratio"] += 0.01
    report["workloads"]["ingest_vec"]["per_layer"]["core.snapshot_calls"] += 1
    moved = differences(recorded, report)
    assert len(moved) == 2 and moved[0].startswith("query_mixed core.eval_ratio")
    with pytest.raises(SystemExit):
        differences(recorded, dict(report, smoke=False))
    # Elsewhere than where it was recorded the check refuses, it does not pass.
    recorded["float_environment"] = "another"
    with pytest.raises(SystemExit, match="recorded under 'another'"):
        differences(recorded, report)


def test_both_recordings_share_one_environment():
    """CI's perf-smoke job pins it, so where the count check passes the
    recorded-answers test above ran instead of skipping."""
    counts = json.loads(RECORDED.with_name("e2e_counts.json").read_text())
    answers = json.loads(RECORDED.read_text())
    assert counts["float_environment"] == answers["float_environment"]


# ---------------------------------------------------------------------------
# The raw-token path
# ---------------------------------------------------------------------------

INFERENCE = InferenceConfig(alpha=0.05, sparsity_threshold=0.05)


def observed_after_every_bucket(model, elements, backend):
    """Window order, follower sets, ranked lists, dirty topics and the
    MTTS / MTTD answers after every bucket, per (shard) processor."""
    processor = ProcessorConfig(
        window_length=10, bucket_length=4, scoring=PAPER_SCORING, archive_windows=3
    )
    if backend == "sharded":
        config = EngineConfig(
            backend="sharded", processor=processor, inference=INFERENCE,
            cluster=ClusterConfig(num_shards=2, transport="serial"),
        )
    else:
        config = EngineConfig(processor=processor, inference=INFERENCE)
    rng = np.random.default_rng(7)
    observed = []
    with KSIREngine(model, config) as engine:
        if backend == "sharded":
            processors = [w.processor for w in engine.coordinator.workers]
        else:
            processors = [engine.processor]
        for members, end_time in bucketise(elements, 4):
            engine.ingest_bucket(members, end_time)
            for shard in processors:
                window, index = shard.window, shard.ranked_lists
                observed.append((
                    window.active_ids(),
                    sorted(window.window_ids()),
                    dict(window.follower_view()),
                    [index.items(topic) for topic in range(index.num_topics)],
                    index.take_dirty_topics(),
                ))
            query = KSIRQuery(k=int(rng.integers(1, 6)), vector=rng.dirichlet(np.full(3, 0.6)))
            for algorithm in ("mtts", "mttd"):
                result = engine.query(query, algorithm=algorithm)
                observed.append((
                    result.element_ids, result.score, result.evaluated_elements,
                    sorted(result.extras.items()),
                ))
    return observed


@pytest.mark.parametrize("backend", ["local", "sharded"])
@pytest.mark.parametrize("seed", range(4))
def test_raw_tokens_answer_as_the_reference_inferred_stream(backend, seed):
    """One stream fed as raw tokens (the engine infers each bucket in one
    stacked call) and pre-inferred one document at a time by the reference."""
    model, base = reposting_stream(seed)
    raw, inferred = [], []
    for position, element in enumerate(base):
        tokens = ("zzz",) if position % 9 == 4 else element.tokens  # one in nine unknown
        fields = dict(
            element_id=element.element_id, timestamp=element.timestamp,
            tokens=tokens, references=element.references,
        )
        raw.append(SocialElement(**fields))
        inferred.append(SocialElement(
            topic_distribution=reference_infer(
                model, tokens, INFERENCE.alpha, INFERENCE.iterations,
                INFERENCE.sparsity_threshold,
            ),
            **fields,
        ))
    assert all(element.topic_distribution is None for element in raw)
    assert observed_after_every_bucket(model, raw, backend) == (
        observed_after_every_bucket(model, inferred, backend)
    )


# ---------------------------------------------------------------------------
# The window-resident memo
# ---------------------------------------------------------------------------


def cold_copy(context):
    """A context over copies of ``context``'s maps, with a memo of its own."""
    return ScoringContext(
        {e: context.profile(e) for e in context.active_ids},
        {e: context.followers_of(e) for e in context.active_ids if context.followers_of(e)},
        context.config,
        time=context.time,
    )


def everything_it_answers(context):
    """Compiled edges and terms, singleton scores and two index-free
    selections."""
    vectors = (np.array([0.5, 0.3, 0.2]), np.array([0.0, 1.0, 0.0]))
    answers = [
        {e: dict(context.follower_edges(e)) for e in context.active_ids},
        {e: context.terms(e) for e in context.active_ids},
    ]
    for vector in vectors:
        objective = KSIRObjective(context, vector)
        answers.append([objective.singleton_score(e) for e in context.active_ids])
        for name in ("celf", "greedy"):
            outcome = resolve_algorithm(name, default_name=name).select(
                KSIRObjective(context, vector), 4
            )
            answers.append((outcome.element_ids, outcome.value))
    return answers


class TestFollowerEdgeMemo:
    def exercise(self, processor, algorithms=("mtts", "mttd", "celf")):
        rng = np.random.default_rng(5)
        for algorithm in algorithms:
            processor.query(KSIRQuery(k=4, vector=rng.dirichlet(np.ones(3))), algorithm=algorithm)

    def test_a_held_snapshot_answers_as_a_cold_copy_of_itself(self):
        """Three further buckets (and their queries) change the memos under a
        snapshot somebody kept; it answers from its own frozen maps.  So
        does an objective built before a bucket and first asked after it,
        about exactly the elements that bucket changed, and so do both
        snapshots after a restore of an older checkpoint."""
        model, elements = build_reference_stream(6, 60, 3, 8)
        config = ProcessorConfig(window_length=12, bucket_length=4, scoring=PAPER_SCORING)
        processor = build_processor(model, config)
        buckets = bucketise(elements, 4)
        for position, (members, end_time) in enumerate(buckets[:-3]):
            processor.process_bucket(members, end_time)
            self.exercise(processor)
            if position == 5:
                older = processor.state_dict()
        held = processor.snapshot()
        assert held._edge_memo is processor._edge_memo and held._edge_memo
        assert held._term_memo is processor._term_memo and held._term_memo
        expected = everything_it_answers(cold_copy(held))
        assert everything_it_answers(held) == expected
        vector = np.array([0.5, 0.3, 0.2])
        compared = 0
        for members, end_time in buckets[-3:]:
            before = processor.objective(vector)  # nothing evaluated yet
            reference = KSIRObjective(cold_copy(before.context), vector)
            changed = processor.process_bucket(members, end_time)
            assert held._edge_memo is not processor._edge_memo
            assert held._term_memo is not processor._term_memo
            assert everything_it_answers(held) == expected  # compiles what it lost
            self.exercise(processor)
            assert processor.snapshot() is not held
            assert everything_it_answers(held) == expected
            # The live memo now holds the next window's terms of the
            # elements this bucket changed; the early objective never reads them.
            ours, theirs = before.new_state(), reference.new_state()
            for position, element_id in enumerate(sorted(set(changed))):
                if element_id not in reference.context:
                    continue
                compared += element_id in processor._term_memo
                assert before.singleton_score(element_id) == reference.singleton_score(element_id)
                assert before.marginal_gain(element_id, ours) == reference.marginal_gain(
                    element_id, theirs
                )
                if position % 2 == 0:
                    assert before.add(element_id, ours) == reference.add(element_id, theirs)
            # ... and nothing the stale snapshot compiled reached the live memo.
            assert_memo_is_the_definition(processor, np.ones(3) / 3)
        assert compared
        last = processor.snapshot()
        assert last._term_memo is processor._term_memo and last._term_memo
        last_expected = everything_it_answers(cold_copy(last))
        processor.restore_state(older)
        self.exercise(processor)
        assert everything_it_answers(last) == last_expected
        assert everything_it_answers(held) == expected
        assert_memo_is_the_definition(processor, np.ones(3) / 3)

    def test_edges_are_the_positive_profiled_products(self):
        processor = small_window(4)
        context = processor.snapshot()
        for element_id in context.active_ids:
            for topic, (ids, edges, total) in context.follower_edges(element_id).items():
                assert list(zip(ids, edges)) == [
                    (f, influence_probability(context, topic, element_id, f))
                    for f in context.followers_of(element_id)
                    if influence_probability(context, topic, element_id, f) > 0.0
                ]
                influence = 0.0
                for edge in edges:
                    influence += edge
                assert total == influence

    def test_holds_only_active_elements_that_have_followers(self, tiny_dataset):
        """Twelve windows of the ``tiny`` replay: entries come and go with the
        follower sets, so the memo is bounded by the followed active elements
        (the whole-window table this is not would hold ``active_count``)."""
        config = ProcessorConfig(
            window_length=1800, bucket_length=300,
            scoring=ScoringConfig(lambda_weight=0.5, eta=1.0),
        )
        processor = build_processor(tiny_dataset.topic_model, config)
        seen_sizes = []

        def after_bucket(members, end_time):
            processor.process_bucket(members, end_time)
            window, memo = processor.window, processor._edge_memo
            stale = [e for e in memo if e not in window or not window.follower_count(e)]
            assert stale == []
            query = tiny_dataset.make_query(k=5, topic=len(seen_sizes) % 5)
            for algorithm in ("mttd", "mtts"):
                processor.query(query, algorithm=algorithm)
            followed = {e for e in window.active_ids() if window.follower_count(e)}
            assert set(memo) <= followed
            seen_sizes.append((len(memo), len(followed), window.active_count))

        replay_stream(tiny_dataset.stream, config.bucket_length, after_bucket)
        assert len(seen_sizes) >= 12 * (config.window_length // config.bucket_length)
        assert max(size for size, _, _ in seen_sizes) > 0
        assert all(size <= followed < active for size, followed, active in seen_sizes)

    @pytest.mark.parametrize("via", ["restore_state", "engine_load"])
    def test_a_restored_processor_starts_from_an_empty_memo(self, via, tmp_path):
        model, elements = build_reference_stream(11, 60, 3, 8)
        config = EngineConfig(processor=ProcessorConfig(
            window_length=12, bucket_length=4, scoring=PAPER_SCORING
        ))
        buckets = bucketise(elements, 4)
        query = KSIRQuery(k=4, vector=np.array([0.2, 0.5, 0.3]))

        def answers(engine):
            # Not sieve: it streams A_t in map order, and a checkpoint lists
            # A_t by ascending id.
            return [
                (r.element_ids, r.score, r.evaluated_elements, r.extras)
                for r in (engine.query(query, algorithm=a)
                          for a in ALGORITHMS if a != "sieve")
            ]

        uninterrupted, resumed = [], []
        with KSIREngine(model, config) as engine:
            for members, end_time in buckets:
                engine.ingest_bucket(members, end_time)
                uninterrupted.append(answers(engine))
        engine = KSIREngine(model, config)
        for position, (members, end_time) in enumerate(buckets):
            engine.ingest_bucket(members, end_time)
            resumed.append(answers(engine))
            if position % 4 == 3:
                processor = engine.processor
                assert processor._edge_memo  # warm, and about to be left behind
                if via == "restore_state":
                    processor.restore_state(processor.state_dict())
                else:
                    engine.save(tmp_path / f"checkpoint-{position}")
                    engine.close()
                    engine = KSIREngine.load(tmp_path / f"checkpoint-{position}")
                assert engine.processor._edge_memo == {}
                assert answers(engine) == resumed[-1]
        engine.close()
        assert resumed == uninterrupted

    def test_never_changes_the_observable_maps(self):
        processor = small_window(7)
        context = processor.snapshot()
        observed = lambda: (  # noqa: E731
            context.active_ids,
            {e: context.followers_of(e) for e in context.active_ids},
            {e: context.profile(e) for e in context.active_ids},
            context.active_count,
        )
        before = observed()
        self.exercise(processor, ALGORITHMS)
        assert observed() == before
        assert all(context.profile(e) is processor.profiles[e] for e in context.active_ids)

    def test_counters_keep_their_meaning(self):
        """One call per evaluation, one element per distinct id — compiled,
        memoised or neither (``core.eval_ratio`` is built on these)."""
        processor = small_window(8)
        context = processor.snapshot()
        followed = next(e for e in context.active_ids if context.followers_of(e))
        objective = KSIRObjective(context, np.ones(3))
        state = objective.new_state()
        objective.singleton_score(followed)
        objective.marginal_gain(followed, state)
        objective.marginal_gain(followed, objective.new_state())
        objective.add(followed, state)
        assert (objective.evaluation_calls, objective.evaluated_elements) == (4, 1)
        # A second query on the warm memo counts exactly as the first did.
        results = [processor.query(KSIRQuery(k=3, vector=np.ones(3) / 3), algorithm="mtts")
                   for _ in range(2)]
        assert results[0].evaluated_elements == results[1].evaluated_elements
        assert results[0].extras == results[1].extras

    def test_threads_compiling_the_same_elements_leave_equal_entries(self):
        processor = small_window(9)
        context = processor.snapshot()
        expected = cold_copy(context)
        scores = {e: KSIRObjective(expected, np.ones(3)).singleton_score(e)
                  for e in expected.active_ids}
        failures = []

        def worker():
            try:
                for _ in range(20):
                    # Force every thread to refill both memos.
                    context._edge_memo.clear()
                    context._term_memo.clear()
                    objective = KSIRObjective(context, np.ones(3))
                    for element_id in context.active_ids:
                        if objective.singleton_score(element_id) != scores[element_id]:
                            failures.append(element_id)
            except Exception as error:  # pragma: no cover - reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        for element_id in context.active_ids:
            assert context.follower_edges(element_id) == expected.follower_edges(element_id)


if __name__ == "__main__":
    # Re-record (run with PYTHONPATH pointing at the commit to record from).
    record = {"float_environment": float_environment()}
    for kind in ("plain", "reposting"):
        for backend in ("local", "sharded", "service"):
            record[f"{kind}/{backend}"] = " ".join(
                answers_digest(kind, backend, seed) for seed in SEEDS
            )
    record["plain/service-sharded"] = " ".join(
        answers_digest("plain", "service-sharded", seed) for seed in SEEDS
    )
    RECORDED.write_text(json.dumps(record, indent=1) + "\n")
