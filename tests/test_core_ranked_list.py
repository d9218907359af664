"""Tests for the per-topic ranked lists and their merged traversal."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig, KSIREngine
from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.core.processor import ProcessorConfig
from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import ProfileBuilder
from repro.kernels import kernel_stats
from tests.conftest import (
    PAPER_SCORING,
    build_paper_elements,
    build_paper_topic_model,
    build_processor,
    build_reference_stream,
)
from tests.oracle import ReferenceRankedListIndex
from tests.test_cluster_equivalence import mirrored_streams
from tests.test_store_columnar import bucketise


def build_paper_index(until_time: int = 8) -> RankedListIndex:
    """Build the ranked lists by replaying the paper example up to a time.

    This mirrors Algorithm 1 directly (insert + refresh on reference +
    remove on expiry, the oracle's per-element bodies) without going
    through the full processor, so the index logic is tested in isolation.
    """
    model = build_paper_topic_model()
    builder = ProfileBuilder(model, PAPER_SCORING)
    index = ReferenceRankedListIndex(model.num_topics, PAPER_SCORING)
    elements = {e.element_id: e for e in build_paper_elements()}
    profiles = {eid: builder.build(element) for eid, element in elements.items()}
    window_length = 4

    for time in range(1, until_time + 1):
        element = elements.get(time)
        if element is not None and element.timestamp <= until_time:
            index.insert(profiles[element.element_id])
            for parent_id in element.references:
                window_start = element.timestamp - window_length + 1
                followers = {
                    eid: profiles[eid]
                    for eid, other in elements.items()
                    if parent_id in other.references
                    and window_start <= other.timestamp <= element.timestamp
                }
                index.refresh(profiles[parent_id], followers, activity_time=element.timestamp)
        # Expire elements never referred to after the window start.
        window_start = time - window_length + 1
        for eid in list(elements):
            if eid in index and index.last_activity(eid) < window_start:
                index.remove(eid)
    return index


class TestRankedListMaintenance:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            RankedListIndex(0, PAPER_SCORING)

    def test_insert_uses_semantic_score_only(self, paper_topic_model):
        builder = ProfileBuilder(paper_topic_model, PAPER_SCORING)
        element = build_paper_elements()[2]  # e3
        profile = builder.build(element)
        index = RankedListIndex(2, PAPER_SCORING)
        index.bulk_update(inserts=[(profile, profile.timestamp)])
        # Before any reference arrives δ_1(e3) = λ·R_1(e3) ≈ 0.378.
        assert index.score(0, 3) == pytest.approx(0.378, abs=0.01)
        assert index.last_activity(3) == element.timestamp

    def test_paper_figure5_scores(self):
        """The ranked-list tuples at t = 8 match Figure 5."""
        index = build_paper_index(until_time=8)
        expected_topic1 = {3: 0.65, 6: 0.48, 8: 0.17, 2: 0.10, 7: 0.06, 1: 0.06, 5: 0.05}
        expected_topic2 = {1: 0.56, 2: 0.48, 5: 0.27, 7: 0.18, 8: 0.16, 6: 0.13, 3: 0.03}
        for element_id, expected in expected_topic1.items():
            assert index.score(0, element_id) == pytest.approx(expected, abs=0.011)
        for element_id, expected in expected_topic2.items():
            assert index.score(1, element_id) == pytest.approx(expected, abs=0.011)
        # e4 expired at t = 8 and must not appear on any list.
        assert 4 not in index
        # Descending order of list 1 matches the figure.
        order_topic1 = [eid for eid, _ in index.items(0)]
        assert order_topic1[:2] == [3, 6]

    def test_scores_of_collects_all_topics(self):
        index = build_paper_index(until_time=8)
        scores = index.scores_of(8)
        assert set(scores) == {0, 1}

    def test_remove_clears_every_list(self):
        index = build_paper_index(until_time=8)
        index.bulk_update(removes=[8])
        assert 8 not in index
        assert all(8 != eid for eid, _ in index.items(0))
        assert all(8 != eid for eid, _ in index.items(1))

    def test_total_tuples_and_list_size(self):
        index = build_paper_index(until_time=8)
        assert index.total_tuples() == index.list_size(0) + index.list_size(1)
        assert index.list_size(0) == 7

    def test_update_timer_records_samples(self):
        index = build_paper_index(until_time=8)
        assert index.update_timer.count > 0

    def test_clear(self):
        index = build_paper_index(until_time=8)
        index.clear()
        assert index.total_tuples() == 0
        assert 3 not in index

    def test_validate(self):
        assert build_paper_index(until_time=8).validate()


class TestRepostDropsATopic:
    """A re-post replaces its previous version: tuples on the topics the new
    version no longer has leave those lists, per element and per bucket."""

    @staticmethod
    def version(topics):
        from repro.core.scoring import ElementProfile

        return ElementProfile(
            7, 1, {t: 0.5 for t in topics}, {t: {t: 0.2} for t in topics},
            {t: 0.2 for t in topics}, (),
        )

    def test_insert_retires_the_dropped_topics(self):
        index = RankedListIndex(3, PAPER_SCORING)
        index.bulk_update(inserts=[(self.version([0, 1]), 1)])
        index.take_dirty_topics()
        index.bulk_update(inserts=[(self.version([1, 2]), 1)])
        assert index.scores_of(7).keys() == {1, 2}
        assert index.take_dirty_topics() == (0, 1, 2)
        assert index.validate()

    def test_bulk_update_retires_after_grouping_the_bucket(self):
        """Two re-posts in one bucket: the first one's tuple on a topic the
        second drops never reaches the list."""
        index = RankedListIndex(3, PAPER_SCORING)
        index.bulk_update(inserts=[(self.version([0, 1]), 1)])
        index.take_dirty_topics()
        index.bulk_update(inserts=[(self.version([0]), 2), (self.version([2]), 3)])
        assert index.scores_of(7).keys() == {2}
        assert index.take_dirty_topics() == (0, 1, 2)
        assert index.last_activity(7) == 3 and index.validate()

    def test_a_refresh_in_the_same_bucket_never_resurrects_a_dropped_topic(self):
        index = RankedListIndex(3, PAPER_SCORING)
        index.bulk_update(inserts=[(self.version([0, 1]), 1)])
        index.bulk_update(
            inserts=[(self.version([1, 2]), 2)],
            scored_refreshes=[(7, {1: 0.4, 2: 0.3}, 2)],
        )
        assert index.scores_of(7) == {1: 0.4, 2: 0.3}
        assert index.list_size(0) == 0 and index.validate()
        index.bulk_update(removes=[7])
        assert index.scores_of(7) == {} and index.total_tuples() == 0
        assert index.validate()

    def test_the_topic_record_follows_every_maintenance_path(self):
        """``validate`` compares the element → topics record with the lists."""
        index = RankedListIndex(3, PAPER_SCORING)
        index.bulk_update(inserts=[(self.version([0, 1]), 1)])
        index.bulk_update(scored_refreshes=[(7, {0: 0.1, 1: 0.1}, 2)])
        index.load([(8, 2, {2: 0.5})])
        assert index.validate()
        state = index.state_dict()
        index.bulk_update(removes=[7])
        assert index.validate() and index.scores_of(7) == {}
        index.restore_state(state)
        assert index.validate() and index.scores_of(7).keys() == {0, 1}
        index.clear()
        assert index.validate() and index.scores_of(8) == {}


#: Few distinct scores, so equal scores on one list are common (ties order by id).
TIED_SCORES = st.sampled_from([0.0, 0.1, 0.1, 0.25, 0.5])
TOPIC_SCORES = st.dictionaries(st.integers(0, 2), TIED_SCORES, min_size=1)


class TestLoad:
    """The one loader behind a checkpoint restore and a merged candidate index."""

    @given(
        refreshes=st.lists(
            st.tuples(st.integers(0, 40), TOPIC_SCORES, st.integers(1, 9)), max_size=60
        ),
        removes=st.lists(st.integers(0, 40), max_size=10),
        drained=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_restored_index_is_the_saved_one(self, refreshes, removes, drained):
        """Maintained one element at a time, saved, restored through the
        per-topic bulk load: the same ``(−score, id)`` order on every list
        (lists long enough for the bulk merge included), the same topic
        records and activity times, and the saved dirty set."""
        index = RankedListIndex(3, PAPER_SCORING)
        for element_id, scores, activity_time in refreshes:
            index.bulk_update(scored_refreshes=[(element_id, scores, activity_time)])
        if drained:
            index.take_dirty_topics()
        index.bulk_update(removes=removes)

        restored = RankedListIndex(3, PAPER_SCORING)
        restored.load([(99, 1, {0: 0.5, 2: 0.1})])  # replaced, not merged
        restored.restore_state(index.state_dict())
        assert restored.validate()
        for topic in range(3):
            assert restored._lists[topic].items() == index._lists[topic].items()
        assert restored._topics_of == index._topics_of
        assert restored._last_activity == index._last_activity
        assert restored.peek_dirty_topics() == index.peek_dirty_topics()

    def test_load_groups_per_topic_and_replaces_per_element(self):
        index = RankedListIndex(3, PAPER_SCORING)
        index.load((eid, eid, {0: 0.5, 1: 0.1 * eid}) for eid in range(10))
        index.take_dirty_topics()
        index.load([(3, 20, {2: 0.7}), (4, 21, {0: 0.9})])
        assert [element_id for element_id, _ in index.items(0)][:3] == [4, 0, 1]
        assert index.scores_of(3) == {0: 0.5, 1: 0.30000000000000004, 2: 0.7}
        assert (index.last_activity(3), index.last_activity(4)) == (20, 21)
        assert index.take_dirty_topics() == (0, 2)
        assert index.update_timer.count == 0 and index.validate()


class TestTraversal:
    def test_rejects_wrong_vector_shape(self):
        index = build_paper_index()
        with pytest.raises(ValueError):
            index.traversal(np.array([0.5, 0.3, 0.2]))

    def test_pop_order_follows_weighted_scores(self):
        """With x = (0.5, 0.5) the first retrievals match the MTTS walkthrough."""
        index = build_paper_index()
        traversal = index.traversal(np.array([0.5, 0.5]))
        assert traversal.next_id() == 3  # x1·δ1(e3) = 0.33 beats x2·δ2(e1) = 0.28
        assert traversal.next_id() == 1
        assert traversal.retrieved_count == 2
        assert traversal.order[:2] == [3, 1]

    def test_upper_bound_decreases_monotonically(self):
        index = build_paper_index()
        traversal = index.traversal(np.array([0.5, 0.5]))
        bounds = [traversal.upper_bound()]
        while traversal.next_id() is not None:
            bounds.append(traversal.upper_bound())
        assert bounds == traversal.bounds
        assert all(later <= earlier for earlier, later in zip(bounds, bounds[1:]))

    def test_upper_bound_dominates_future_scores(self):
        index = build_paper_index()
        vector = np.array([0.3, 0.7])
        traversal = index.traversal(vector)
        while True:
            bound = traversal.upper_bound()
            element_id = traversal.next_id()
            if element_id is None:
                break
            assert weighted_score(index, element_id, vector) <= bound + 1e-9

    def test_each_element_retrieved_once(self):
        index = build_paper_index()
        traversal = index.traversal(np.array([0.5, 0.5]))
        popped = drain(traversal)
        assert len(popped) == len(set(popped))
        assert set(popped) == {1, 2, 3, 5, 6, 7, 8}

    def test_single_topic_query_only_touches_that_list(self):
        index = build_paper_index()
        traversal = index.traversal(np.array([1.0, 0.0]))
        popped = drain(traversal)
        # Only elements on topic 1's list are retrieved, in its order.
        assert popped[0] == 3
        assert popped == [eid for eid, _ in index.items(0)]

    def test_exhausted(self):
        index = build_paper_index()
        traversal = index.traversal(np.array([0.5, 0.5]))
        assert not traversal.exhausted()
        drain(traversal)
        assert traversal.exhausted()
        assert traversal.next_id() is None
        assert traversal.upper_bound() == 0.0


def drain(traversal):
    """Every id the traversal still retrieves, in order."""
    retrieved = []
    while (element_id := traversal.next_id()) is not None:
        retrieved.append(element_id)
    return retrieved


def weighted_score(index, element_id, vector):
    """``δ(e, x)`` assembled from the index's stored topic-wise scores."""
    return sum(float(vector[topic]) * score for topic, score in index.scores_of(element_id).items())


class TestDirtyTopicTracking:
    def _profiles(self):
        model = build_paper_topic_model()
        builder = ProfileBuilder(model, PAPER_SCORING)
        return model, {e.element_id: builder.build(e) for e in build_paper_elements()}

    def test_insert_marks_element_topics_dirty(self):
        model, profiles = self._profiles()
        index = RankedListIndex(model.num_topics, PAPER_SCORING)
        index.bulk_update(inserts=[(profiles[4], 4)])  # e4 is pure topic 1 (p_2 = 0)
        assert index.peek_dirty_topics() == (0,)
        assert index.take_dirty_topics() == (0,)
        assert index.dirty_topic_count == 0

    def test_take_drains_the_set(self):
        model, profiles = self._profiles()
        index = RankedListIndex(model.num_topics, PAPER_SCORING)
        index.bulk_update(inserts=[(profiles[1], 1)])
        index.take_dirty_topics()
        assert index.take_dirty_topics() == ()

    def test_refresh_marks_rescored_topics(self):
        model, profiles = self._profiles()
        index = RankedListIndex(model.num_topics, PAPER_SCORING)
        index.bulk_update(inserts=[(profiles[3], 3)])
        index.take_dirty_topics()
        rescored = {topic: 0.5 for topic in profiles[3].topics}
        index.bulk_update(scored_refreshes=[(3, rescored, 4)])
        assert index.take_dirty_topics() == tuple(sorted(profiles[3].topics))

    def test_remove_marks_only_lists_holding_the_element(self):
        model, profiles = self._profiles()
        index = RankedListIndex(model.num_topics, PAPER_SCORING)
        index.bulk_update(inserts=[(profiles[4], 4)])  # only on topic 0's list
        index.take_dirty_topics()
        index.bulk_update(removes=[4])
        assert index.take_dirty_topics() == (0,)

    def test_remove_of_absent_element_marks_nothing(self):
        model, _profiles = self._profiles()
        index = RankedListIndex(model.num_topics, PAPER_SCORING)
        index.bulk_update(removes=[99])
        assert index.take_dirty_topics() == ()

    def test_clear_marks_every_held_topic(self):
        model, profiles = self._profiles()
        index = RankedListIndex(model.num_topics, PAPER_SCORING)
        index.bulk_update(inserts=[(profiles[1], 1)])
        index.take_dirty_topics()
        index.clear()
        assert index.take_dirty_topics() == tuple(sorted(profiles[1].topics))


def rebuilt(index):
    """A fresh index ``load()``ed from ``index``'s stored scores."""
    fresh = RankedListIndex(index.num_topics, index.config)
    fresh.load(
        (element_id, activity, index.scores_of(element_id))
        for element_id, activity in index._last_activity.items()
    )
    return fresh


def merge_calls():
    return kernel_stats()["per_kernel"]["ranked_merge"]["calls"]


class TestSortOnRead:
    """Maintenance writes scores; the first traversal after a change sorts
    the lists it reads, and reads the order a fresh index would."""

    @staticmethod
    def _query_vectors(num_topics):
        """One topic at a time, then all of them: each list is read every
        few buckets, so reads find lists with several buckets of changes."""
        vectors = [np.eye(num_topics)[topic] for topic in range(num_topics)]
        return vectors + [np.full(num_topics, 1.0 / num_topics)]

    @staticmethod
    def _assert_reads_like_a_rebuild(index, vector):
        fresh = rebuilt(index)
        ours, theirs = index.traversal(vector), fresh.traversal(vector)
        assert (ours.order, ours.bounds) == (theirs.order, theirs.bounds)
        assert index.validate()

    @pytest.mark.parametrize("backend", ["local", "serial"])
    def test_a_traversal_equals_one_over_a_rebuilt_index(self, backend):
        checked = 0
        for model, config, buckets in mirrored_streams():
            vectors = self._query_vectors(model.num_topics)
            if backend == "local":
                processor = build_processor(model, config)
                for position, (members, end_time) in enumerate(buckets):
                    processor.process_bucket(members, end_time)
                    vector = vectors[position % len(vectors)]
                    self._assert_reads_like_a_rebuild(processor.ranked_lists, vector)
                    checked += 1
                continue
            cluster_config = ClusterConfig(num_shards=2, transport="serial")
            with ClusterCoordinator(model, config, cluster_config) as cluster:
                for position, (members, end_time) in enumerate(buckets):
                    cluster.process_bucket(members, end_time)
                    cluster.active_count  # syncs the replica without reading it
                    vector = vectors[position % len(vectors)]
                    self._assert_reads_like_a_rebuild(cluster._index, vector)
                    checked += 1
        assert checked == 30

    def test_shard_workers_never_sort(self):
        model, elements = build_reference_stream(4, 96, 4, 10)
        buckets = bucketise(elements, 4)
        assert len(buckets) == 24
        config = EngineConfig(
            backend="sharded",
            processor=ProcessorConfig(window_length=12, bucket_length=4, scoring=PAPER_SCORING),
            cluster=ClusterConfig(num_shards=2, transport="serial"),
        )
        with KSIREngine(model, config) as engine:
            before = merge_calls()
            for members, end_time in buckets:
                engine.ingest_bucket(members, end_time)
            assert merge_calls() == before
            # A query sorts the coordinator's replica lists it reads, and no
            # list of a shard.
            engine.query(np.full(model.num_topics, 0.25), k=3)
            assert merge_calls() > before
            for worker in engine.coordinator.workers:
                for ranked in worker.processor.ranked_lists._lists:
                    assert [len(column) for column in ranked._columns] == [0, 0]

