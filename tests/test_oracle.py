"""The reference oracle: checked against the paper, then production against it.

Two layers:

* the oracle (:mod:`tests.oracle`) is itself anchored to the paper — on the
  worked example of Table 1 its ``A_t`` and ``δ_i(e)`` equal the
  hand-derived values of Figure 5, and on random streams its stored
  ``δ_i(e)`` equals ``f_i({e})`` evaluated by :class:`KSIRObjective` on a
  context built from the *definitions* of ``W_t``, ``A_t`` and ``I_t(e)``;
* one property holds production to the oracle after **every** bucket of
  random streams with re-posts, dangling and forward references, archive
  re-activation and expiry — on the local
  processor, on the home-filtered processors of a serial cluster, and
  across save → load → continue.  The same walk holds the window-resident
  follower-edge and term memos to their definition: whatever bucket an
  entry was compiled in, it equals what a cold context compiles from the
  live maps;
* a sibling walk does the same for the one term memo every standing and
  ad-hoc query shares, on a service engine over a processor and over two
  shards, through backend rewinds and shard restarts as well.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterCoordinator, MergedCandidateContext
from repro.core.element import SocialElement
from repro.core.processor import ProcessorConfig
from repro.core.query import KSIRQuery
from repro.core.scoring import KSIRObjective, ProfileBuilder, ScoringContext
from repro.service import ServiceEngine
from tests.conftest import (
    PAPER_SCORING,
    PAPER_WINDOW_LENGTH,
    build_processor,
    build_reference_stream,
)
from tests.oracle import Oracle, ReferenceObjective
from tests.test_store_columnar import assert_ranked_lists_equal

ALGORITHMS = ("mttd", "mtts", "celf", "sieve", "topk", "greedy")


# ---------------------------------------------------------------------------
# The oracle against the paper
# ---------------------------------------------------------------------------


class TestOracleAgainstThePaper:
    def test_worked_example_at_time_8(self, paper_topic_model, paper_elements):
        oracle = Oracle(paper_topic_model, PAPER_WINDOW_LENGTH, PAPER_SCORING)
        for element in paper_elements:
            oracle.process_bucket([element], element.timestamp)
        window, index = oracle.window, oracle.ranked_lists
        # Example 3.1: W_8 = {e5..e8}; A_8 adds the referenced e1, e2, e3.
        assert set(window.window_ids()) == {5, 6, 7, 8}
        assert set(window.active_ids()) == {1, 2, 3, 5, 6, 7, 8}
        assert window.follower_view() == {1: (5,), 2: (7, 8), 3: (6, 8), 6: (8,)}
        # Figure 5: the ranked-list tuples δ_i(e) at t = 8.
        figure5 = (
            {3: 0.65, 6: 0.48, 8: 0.17, 2: 0.10, 7: 0.06, 1: 0.06, 5: 0.05},
            {1: 0.56, 2: 0.48, 5: 0.27, 7: 0.18, 8: 0.16, 6: 0.13, 3: 0.03},
        )
        for topic, expected in enumerate(figure5):
            for element_id, score in expected.items():
                assert index.score(topic, element_id) == pytest.approx(score, abs=0.011)
        assert 4 not in index
        assert [element_id for element_id, _ in index.items(0)][:2] == [3, 6]

    @given(
        seed=st.integers(0, 10_000),
        num_elements=st.integers(4, 30),
        window_length=st.integers(2, 8),
        bucket=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_stored_scores_equal_the_objective_by_definition(
        self, seed, num_elements, window_length, bucket
    ):
        """``δ_i(e) = f_i({e})`` over ``A_t`` / ``I_t(e)`` written out from
        Section 3.1 (ids are unique and nothing leaves the archive here, so
        the definitions need no notion of element versions)."""
        model, elements = build_reference_stream(seed, num_elements, 3, 8)
        oracle = Oracle(model, window_length, PAPER_SCORING, archive_windows=100)
        builder = ProfileBuilder(model, PAPER_SCORING)
        by_id = {element.element_id: element for element in elements}
        for start in range(0, num_elements, bucket):
            members = elements[start : start + bucket]
            time = members[-1].timestamp
            oracle.process_bucket(members, time)

            in_window = [
                e for e in elements[: start + bucket]
                if time - window_length + 1 <= e.timestamp <= time
            ]
            active = {e.element_id for e in in_window}
            active.update(r for e in in_window for r in e.references)
            followers = {
                parent: [e.element_id for e in in_window if parent in e.references]
                for parent in active
            }
            context = ScoringContext(
                {eid: builder.build(by_id[eid]) for eid in active},
                followers, PAPER_SCORING, time=time,
            )
            assert set(oracle.window.active_ids()) == active
            for topic in range(3):
                objective = KSIRObjective(context, np.eye(3)[topic])
                stored = dict(oracle.ranked_lists.items(topic))
                assert set(stored) == {
                    eid for eid in active if topic in context.profile(eid).topics
                }
                for element_id, score in stored.items():
                    assert score == pytest.approx(
                        objective.value([element_id]), abs=1e-9
                    )


# ---------------------------------------------------------------------------
# Production against the oracle
# ---------------------------------------------------------------------------

POSTED_IDS = st.integers(0, 11)
#: (element id, referenced ids — 12..14 are never posted —, timestamp lateness)
ARRIVAL = st.tuples(
    POSTED_IDS, st.lists(st.integers(0, 14), max_size=3, unique=True), st.integers(0, 2)
)
#: (arrivals, how far the clock moves before the bucket closes)
BUCKETS = st.lists(
    st.tuples(st.lists(ARRIVAL, max_size=5), st.sampled_from([1, 1, 2, 3, 7])),
    min_size=1,
    max_size=14,
)


def materialise(buckets, seed):
    """Turn drawn bucket specs into ``(elements, end_time)`` pairs.

    Ids re-arrive (re-posts with fresh tokens, topic weights and
    references) and references point anywhere: backwards, at ids posted
    later in the same or a later bucket, at ids long expired, at ids never
    posted.  Every version draws its own topic *support* (one to three
    topics), so a re-post may drop topics its previous version had — whose
    tuples must then leave those topics' lists — and regain them later.
    """
    model, _ = build_reference_stream(seed, 1, 3, 8)
    rng = np.random.default_rng(seed)

    def topic_vector():
        support = rng.choice(3, size=int(rng.integers(1, 4)), replace=False)
        vector = np.zeros(3)
        vector[support] = 0.2 / len(support) + 0.8 * rng.dirichlet(np.ones(len(support)))
        return vector

    clock, out = 0, []
    for arrivals, step in buckets:
        clock += step
        elements = [
            SocialElement(
                element_id=element_id,
                timestamp=max(1, clock - lateness),
                tokens=tuple(f"w{int(i)}" for i in rng.integers(0, 8, size=3)),
                references=tuple(r for r in references if r != element_id),
                topic_distribution=topic_vector(),
            )
            for element_id, references, lateness in arrivals
        ]
        out.append((sorted(elements, key=lambda e: e.timestamp), clock))
    return model, out


def assert_matches_oracle(processor, oracle, query):
    window, reference = processor.window, oracle.window
    assert window.active_ids() == reference.active_ids()
    assert sorted(window.window_ids()) == sorted(reference.window_ids())
    assert window.follower_view() == reference.follower_view()
    for element_id in reference.active_ids():
        assert window.last_activity(element_id) == reference.last_activity(element_id)
    assert_ranked_lists_equal(processor.ranked_lists, oracle.ranked_lists)
    # Dirty topics: exactly the oracle's, and at least every list that changed.
    lists = [oracle.ranked_lists.items(t) for t in range(oracle.ranked_lists.num_topics)]
    previous = getattr(oracle, "lists_seen", [[] for _ in lists])
    oracle.lists_seen = lists
    changed = {t for t, (old, new) in enumerate(zip(previous, lists)) if old != new}
    dirty = processor.ranked_lists.take_dirty_topics()
    assert dirty == oracle.ranked_lists.take_dirty_topics()
    assert changed <= set(dirty)
    for algorithm in ALGORITHMS:
        result = processor.query(query, algorithm=algorithm)
        ids, score = oracle.query(query, algorithm)
        assert result.element_ids == ids, algorithm
        assert result.score == pytest.approx(score, abs=1e-9), algorithm
    assert_memo_is_the_definition(processor, query.vector)


def assert_memo_is_the_definition(processor, vector):
    """The processor's follower-edge and term memos against a cold context
    over copies of the live maps: every entry (compiled by this bucket's
    queries or by any earlier one's) ``==`` the cold compilation, no entry
    for an inactive (or, for edges, follower-less) id, and evaluations
    through the warm snapshot ``==`` the call-by-call reference."""
    cold = ScoringContext(
        dict(processor._profiles),
        processor.window.follower_view(),
        processor.config.scoring,
    )
    memo = processor._edge_memo
    for element_id, compiled in memo.items():
        assert element_id in cold and cold.followers_of(element_id)
        assert compiled == cold.follower_edges(element_id)
    assert_terms_are_the_definition(processor._term_memo, cold, cold)
    ours = KSIRObjective(processor.snapshot(), vector)
    theirs = ReferenceObjective(cold, vector)
    our_state, their_state = ours.new_state(), theirs.new_state()
    for position, element_id in enumerate(cold.active_ids):
        assert ours.singleton_score(element_id) == theirs.singleton_score(element_id)
        gain = theirs.marginal_gain(element_id, their_state)
        assert ours.marginal_gain(element_id, our_state) == gain
        if position % 2 == 0:
            assert ours.add(element_id, our_state) == theirs.add(element_id, their_state)
    assert our_state == their_state
    # Every element went through the memos just now.
    assert set(memo) == {e for e in cold.active_ids if cold.followers_of(e)}
    assert set(processor._term_memo) == set(cold.active_ids)


class TestProductionEqualsOracle:
    @given(
        buckets=BUCKETS,
        seed=st.integers(0, 10_000),
        window_length=st.integers(2, 6),
        archive_windows=st.integers(1, 2),
        mode=st.sampled_from(["local", "restore", "cluster"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_after_every_bucket(
        self, buckets, seed, window_length, archive_windows, mode
    ):
        model, stream = materialise(buckets, seed)
        config = ProcessorConfig(
            window_length=window_length,
            bucket_length=1,
            scoring=PAPER_SCORING,
            archive_windows=archive_windows,
        )
        query = KSIRQuery(k=3, vector=np.random.default_rng(seed).dirichlet(np.ones(3)))
        if mode == "cluster":
            self.check_cluster(model, config, stream, query)
            return
        processor = build_processor(model, config)
        oracle = Oracle.for_config(model, config)
        for position, (elements, end_time) in enumerate(stream):
            processor.process_bucket(elements, end_time)
            oracle.process_bucket(elements, end_time)
            assert_matches_oracle(processor, oracle, query)
            if mode == "restore" and position % 3 == 2:
                state = processor.state_dict()
                processor = build_processor(model, config)
                processor.restore_state(state)
                # A checkpoint lists A_t in ascending id order.
                oracle.window._elements = dict(sorted(oracle.window._elements.items()))
                oracle.profiles = dict(sorted(oracle.profiles.items()))
                assert_matches_oracle(processor, oracle, query)

    @staticmethod
    def check_cluster(model, config, stream, query):
        """Each shard's home-filtered processor against an oracle fed the
        same routed buckets under the same home filter."""
        cluster = ClusterConfig(num_shards=3)
        with ClusterCoordinator(model, config, cluster=cluster) as coordinator:
            pairs = []
            for worker in coordinator.workers:
                processor = worker.processor
                oracle = Oracle.for_config(model, config, home_filter=processor.is_home)
                ingest = processor.process_bucket

                def mirrored(elements, end_time, ingest=ingest, oracle=oracle):
                    changed = ingest(elements, end_time)
                    oracle.process_bucket(elements, end_time)
                    return changed

                processor.process_bucket = mirrored
                pairs.append((processor, oracle))
            for elements, end_time in stream:
                coordinator.process_bucket(elements, end_time)
                for processor, oracle in pairs:
                    assert_matches_oracle(processor, oracle, query)


def assert_terms_are_the_definition(memo, cold, held):
    """A backend's term memo against ``cold``, a context over copies of the
    backend's live maps: each entry ``==`` the cold compilation, and no
    entry for an element ``held`` (the backend's ids) does not hold."""
    for element_id, terms in memo.items():
        assert element_id in held, element_id
        assert terms == cold.compile_terms(element_id), element_id


class TestStandingTermsEqualTheirDefinition:
    """The one term memo a backend shares between its standing and ad-hoc
    queries stays what a cold compilation of the current window gives,
    after every bucket and every ad-hoc query between buckets — re-posts,
    archive re-activation and expiry from the drawn streams, plus a rewind
    of the backend to an earlier state behind the engine's back and, on
    shards, a shard restart with its gap replayed — and the standing
    answers stay the backend's fresh ones."""

    @given(
        buckets=BUCKETS,
        seed=st.integers(0, 10_000),
        window_length=st.integers(2, 6),
        archive_windows=st.integers(1, 2),
        sharded=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_after_every_bucket(self, buckets, seed, window_length, archive_windows, sharded):
        model, stream = materialise(buckets, seed)
        config = ProcessorConfig(
            window_length=window_length,
            bucket_length=1,
            scoring=PAPER_SCORING,
            archive_windows=archive_windows,
        )
        if sharded:
            cluster = ClusterConfig(num_shards=2, transport="serial")
            backend = ClusterCoordinator(model, config, cluster=cluster)
        else:
            backend = build_processor(model, config)
        service = ServiceEngine(backend)
        rng = np.random.default_rng(seed)

        def vector():
            drawn = np.zeros(3)
            support = rng.choice(3, size=int(rng.integers(1, 4)), replace=False)
            drawn[support] = 0.1 + rng.dirichlet(np.ones(len(support)))
            return drawn

        for algorithm in ALGORITHMS:
            service.register(KSIRQuery(k=3, vector=vector()), query_id=algorithm, algorithm=algorithm)
        states = []
        try:
            for position, (elements, end_time) in enumerate(stream):
                states.append(backend.state_dict())
                update = service.ingest_bucket(elements, end_time)
                for query_id, standing in update.updated.items():
                    fresh = backend.query(
                        service.registry.get(query_id).query, algorithm=query_id
                    )
                    assert standing.result.element_ids == fresh.element_ids
                    assert standing.result.score == fresh.score
                    assert standing.result.evaluated_elements == fresh.evaluated_elements
                    # The memo holds at least what this evaluation compiled.
                    assert len(backend._term_memo) >= fresh.evaluated_elements
                self.check(backend, sharded)
                # An ad-hoc query between buckets fills the same memo.
                backend.query(vector(), k=2, algorithm=ALGORITHMS[position % len(ALGORITHMS)])
                self.check(backend, sharded)
                if position % 4 == 2:
                    # Rewind the backend two buckets, under the engine.
                    backend.restore_state(states[-2])
                    self.check(backend, sharded)
                elif sharded and position % 4 == 3:
                    # Restart shard 1 from two buckets back, replay its gap.
                    backend.restore_shard(1, states[-2])
                    for gap_elements, gap_end in stream[position - 1 : position + 1]:
                        backend.replay_bucket_to_shard(1, gap_elements, gap_end)
                    self.check(backend, sharded)
        finally:
            if sharded:
                backend.close()

    @staticmethod
    def check(backend, sharded):
        scoring = backend.config.scoring
        if sharded:
            # A coordinator compiles from its replica, which (and whose memo)
            # follows the shards at the next sync; a query syncs too.
            backend.active_count
            records = dict(backend._records)
            cold = MergedCandidateContext(records, np.ones(3), scoring)
            assert_terms_are_the_definition(backend._term_memo, cold, records)
        else:
            cold = ScoringContext(
                dict(backend.profiles), backend.window.follower_view(), scoring
            )
            assert_terms_are_the_definition(backend._term_memo, cold, cold)
