"""Equivalence of the batched ingest path with the per-element reference.

The batched pipeline (``ProfileBuilder.build_many`` →
``RankedListIndex.bulk_update`` → ``KSIRProcessor.process_bucket``) must
leave exactly the state the element-by-element discipline
(:class:`tests.oracle.Oracle`) produces: same ranked-list membership,
scores within 1e-9, same activity times and dirty-topic sets.
"""

from __future__ import annotations

import random
from dataclasses import fields, replace

import pytest

from repro.core.processor import KSIRProcessor, ProcessorConfig
from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import ProfileBuilder, ScoringConfig
from repro.datasets.synthetic import SyntheticStreamGenerator
from repro.utils.sorted_list import DescendingSortedList
from tests.conftest import build_processor
from tests.oracle import Oracle, ReferenceRankedListIndex
from tests.test_store_columnar import assert_ranked_lists_equal


# ---------------------------------------------------------------------------
# DescendingSortedList bulk operations
# ---------------------------------------------------------------------------


class TestSortedListBulk:
    def test_bulk_insert_equivalent_to_sequential(self):
        rng = random.Random(11)
        for round_index in range(20):
            reference = DescendingSortedList()
            bulk = DescendingSortedList()
            # a pre-existing population, some of which gets superseded.
            for key in range(40):
                score = rng.uniform(0.0, 10.0)
                reference.insert(key, score)
                bulk.insert(key, score)
            batch = [
                (rng.randrange(60), rng.uniform(0.0, 10.0))
                for _ in range(rng.randrange(1, 50))
            ]
            for key, score in batch:
                reference.insert(key, score)
            bulk.bulk_insert(batch)
            assert bulk.items() == reference.items(), f"round {round_index}"
            assert bulk.validate()

    def test_bulk_insert_last_score_wins(self):
        ranked = DescendingSortedList()
        ranked.bulk_insert([(1, 5.0), (2, 3.0), (1, 7.0)])
        assert ranked.score(1) == 7.0
        assert len(ranked) == 2

    def test_bulk_insert_empty_batch_is_noop(self):
        ranked = DescendingSortedList()
        ranked.insert(1, 1.0)
        ranked.bulk_insert([])
        assert ranked.items() == [(1, 1.0)]


# ---------------------------------------------------------------------------
# ProfileBuilder.build_many
# ---------------------------------------------------------------------------


class TestBuildMany:
    def test_matches_scalar_build(self, tiny_dataset):
        builder = ProfileBuilder(
            tiny_dataset.topic_model, ScoringConfig(lambda_weight=0.5, eta=1.0)
        )
        elements = tiny_dataset.stream.elements[:120]
        scalar = [builder.build(element) for element in elements]
        bulk = builder.build_many(elements)
        assert len(scalar) == len(bulk)
        for expected, actual in zip(scalar, bulk):
            assert actual.element_id == expected.element_id
            assert actual.timestamp == expected.timestamp
            assert actual.references == expected.references
            assert actual.topic_probabilities == expected.topic_probabilities
            assert actual.word_weights.keys() == expected.word_weights.keys()
            for topic in expected.word_weights:
                expected_words = expected.word_weights[topic]
                actual_words = actual.word_weights[topic]
                # same words in the same (insertion) order ...
                assert list(actual_words) == list(expected_words)
                # ... with weights within the fast-path tolerance.
                for word_id, weight in expected_words.items():
                    assert actual_words[word_id] == pytest.approx(weight, abs=1e-12)
                assert actual.semantic_scores[topic] == pytest.approx(
                    expected.semantic_scores[topic], abs=1e-12
                )

    def test_empty_bucket(self, tiny_dataset):
        builder = ProfileBuilder(
            tiny_dataset.topic_model, ScoringConfig(lambda_weight=0.5, eta=1.0)
        )
        assert builder.build_many([]) == []

    def test_missing_distribution_raises(self, paper_elements, paper_topic_model):
        builder = ProfileBuilder(paper_topic_model, ScoringConfig())
        stripped = replace(paper_elements[0], topic_distribution=None)
        with pytest.raises(ValueError, match="no topic distribution"):
            builder.build_many([stripped])

    def test_paper_example_profiles(self, paper_topic_model, paper_elements):
        """build_many reproduces the paper's worked-example profiles."""
        builder = ProfileBuilder(
            paper_topic_model, ScoringConfig(lambda_weight=0.5, eta=2.0)
        )
        scalar = [builder.build(element) for element in paper_elements]
        bulk = builder.build_many(paper_elements)
        for expected, actual in zip(scalar, bulk):
            assert actual.semantic_scores == pytest.approx(expected.semantic_scores)


# ---------------------------------------------------------------------------
# RankedListIndex.bulk_update
# ---------------------------------------------------------------------------


def _profiles_for(dataset, count):
    builder = ProfileBuilder(
        dataset.topic_model, ScoringConfig(lambda_weight=0.5, eta=1.0)
    )
    return builder.build_many(dataset.stream.elements[:count])


class TestBulkUpdate:
    def test_bulk_inserts_match_sequential_inserts(self, tiny_dataset):
        profiles = _profiles_for(tiny_dataset, 80)
        config = ScoringConfig(lambda_weight=0.5, eta=1.0)
        topics = tiny_dataset.topic_model.num_topics
        reference = ReferenceRankedListIndex(topics, config)
        bulk = RankedListIndex(topics, config)
        for profile in profiles:
            reference.insert(profile, activity_time=profile.timestamp)
        bulk.bulk_update(inserts=[(p, p.timestamp) for p in profiles])
        for topic in range(topics):
            assert bulk.items(topic) == reference.items(topic)
        assert bulk.take_dirty_topics() == reference.take_dirty_topics()
        assert bulk.validate()

    def test_bulk_refreshes_match_sequential_refreshes(self, tiny_dataset):
        profiles = _profiles_for(tiny_dataset, 80)
        by_id = {profile.element_id: profile for profile in profiles}
        config = ScoringConfig(lambda_weight=0.5, eta=1.0)
        topics = tiny_dataset.topic_model.num_topics
        rng = random.Random(5)
        reference = ReferenceRankedListIndex(topics, config)
        bulk = RankedListIndex(topics, config)
        for profile in profiles:
            reference.insert(profile, activity_time=profile.timestamp)
        bulk.bulk_update(inserts=[(p, p.timestamp) for p in profiles])
        refreshes = []
        for profile in rng.sample(profiles, 30):
            followers = {
                p.element_id: p for p in rng.sample(profiles, rng.randrange(0, 6))
            }
            time = profile.timestamp + rng.randrange(0, 1000)
            refreshes.append((profile, followers, time))
        for profile, followers, time in refreshes:
            reference.refresh(profile, followers, activity_time=time)
        # The caller of bulk_update hands in the refreshed δ_i(e) itself.
        bulk.bulk_update(
            scored_refreshes=[
                (profile.element_id, reference.scores_of(profile.element_id), time)
                for profile, _, time in refreshes
            ]
        )
        for topic in range(topics):
            reference_items = reference.items(topic)
            bulk_items = bulk.items(topic)
            assert [eid for eid, _ in bulk_items] == [eid for eid, _ in reference_items]
            for (eid, expected), (_, actual) in zip(reference_items, bulk_items):
                assert actual == pytest.approx(expected, abs=1e-9), (topic, eid)
        for profile in by_id.values():
            assert bulk.last_activity(profile.element_id) == reference.last_activity(
                profile.element_id
            )

    def test_bulk_removes_match_sequential_removes(self, tiny_dataset):
        profiles = _profiles_for(tiny_dataset, 60)
        config = ScoringConfig(lambda_weight=0.5, eta=1.0)
        topics = tiny_dataset.topic_model.num_topics
        reference = ReferenceRankedListIndex(topics, config)
        bulk = RankedListIndex(topics, config)
        for profile in profiles:
            reference.insert(profile, activity_time=profile.timestamp)
        bulk.bulk_update(inserts=[(p, p.timestamp) for p in profiles])
        victims = [profile.element_id for profile in profiles[::3]]
        for element_id in victims:
            reference.remove(element_id)
        bulk.bulk_update(removes=victims)
        for topic in range(topics):
            assert bulk.items(topic) == reference.items(topic)
        for element_id in victims:
            assert element_id not in bulk

    def test_refresh_supersedes_insert_in_one_call(self, tiny_dataset):
        """insert + refresh of the same element == sequential insert-then-refresh."""
        profiles = _profiles_for(tiny_dataset, 10)
        target = profiles[0]
        followers = {profiles[1].element_id: profiles[1]}
        config = ScoringConfig(lambda_weight=0.5, eta=1.0)
        topics = tiny_dataset.topic_model.num_topics
        reference = ReferenceRankedListIndex(topics, config)
        reference.insert(target, activity_time=target.timestamp)
        reference.refresh(target, followers, activity_time=target.timestamp + 5)
        bulk = RankedListIndex(topics, config)
        bulk.bulk_update(
            inserts=[(target, target.timestamp)],
            scored_refreshes=[
                (
                    target.element_id,
                    reference.scores_of(target.element_id),
                    target.timestamp + 5,
                )
            ],
        )
        for topic in range(topics):
            reference_items = reference.items(topic)
            bulk_items = bulk.items(topic)
            assert [eid for eid, _ in bulk_items] == [eid for eid, _ in reference_items]
            for (_, expected), (_, actual) in zip(reference_items, bulk_items):
                assert actual == pytest.approx(expected, abs=1e-12)
        assert bulk.last_activity(target.element_id) == target.timestamp + 5


# ---------------------------------------------------------------------------
# End-to-end: batched vs element-by-element process_bucket
# ---------------------------------------------------------------------------


def _replay(dataset, window_length=3 * 3600, bucket_length=900):
    """The dataset through the batched processor and through the oracle."""
    config = ProcessorConfig(
        window_length=window_length,
        bucket_length=bucket_length,
        scoring=ScoringConfig(lambda_weight=0.5, eta=1.0),
    )
    processor = build_processor(dataset.topic_model, config)
    processor.process_stream(dataset.stream)
    oracle = Oracle.for_config(dataset.topic_model, config)
    for bucket in dataset.stream.buckets(bucket_length):
        oracle.process_bucket(bucket.elements, bucket.end_time)
    return oracle, processor


def _assert_equivalent(sequential: Oracle, batched: KSIRProcessor):
    assert batched.active_count == len(sequential.window.active_ids())
    index_a, index_b = sequential.ranked_lists, batched.ranked_lists
    assert index_b.total_tuples() == index_a.total_tuples()
    assert_ranked_lists_equal(index_b, index_a)
    for element_id, _ in index_a.items(0):
        assert index_b.last_activity(element_id) == index_a.last_activity(element_id)
    assert index_b.validate()


class TestBatchedProcessorEquivalence:
    def test_tiny_dataset_equivalence(self, tiny_dataset):
        sequential, batched = _replay(tiny_dataset)
        _assert_equivalent(sequential, batched)
        # dirty-topic accounting agrees as well.
        assert (
            batched.ranked_lists.take_dirty_topics()
            == sequential.ranked_lists.take_dirty_topics()
        )

    def test_reactivation_and_expiry_equivalence(self):
        """A short window forces expiry + archive re-activation."""
        profile = SyntheticStreamGenerator.from_profile("tiny", seed=23)
        dataset = profile.generate()
        sequential, batched = _replay(dataset, window_length=1800, bucket_length=600)
        _assert_equivalent(sequential, batched)

    def test_query_results_identical(self, tiny_dataset):
        sequential, batched = _replay(tiny_dataset)
        query = tiny_dataset.make_query(k=5, topic=1)
        for algorithm in ("topk", "mttd", "celf"):
            ids, score = sequential.query(query, algorithm, 0.1)
            result_b = batched.query(query, algorithm=algorithm, epsilon=0.1)
            assert result_b.element_ids == ids, algorithm
            assert result_b.score == pytest.approx(score, abs=1e-9)

    def test_batched_is_default(self):
        """Batched ingest is the only path: no config field selects another."""
        assert [field.name for field in fields(ProcessorConfig)] == [
            "window_length", "bucket_length", "scoring", "default_algorithm",
            "default_epsilon", "archive_windows",
        ]
