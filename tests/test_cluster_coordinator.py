"""Tests for the shard workers, the cluster coordinator and the service seam."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.core.processor import KSIRProcessor, ProcessorConfig
from repro.core.scoring import ScoringConfig
from repro.core.stream import SocialStream
from repro.service import ServiceEngine
from tests.conftest import build_processor, build_service_engine

TINY_CONFIG = ProcessorConfig(
    window_length=3 * 3600,
    bucket_length=900,
    scoring=ScoringConfig(lambda_weight=0.5, eta=1.0),
)


@pytest.fixture(scope="module")
def replayed(tiny_dataset):
    """The tiny stream replayed on a single node and on a 3-shard cluster."""
    single = build_processor(tiny_dataset.topic_model, TINY_CONFIG)
    single.process_stream(tiny_dataset.stream)
    coordinator = ClusterCoordinator(
        tiny_dataset.topic_model,
        TINY_CONFIG,
        cluster=ClusterConfig(num_shards=3, backend="serial"),
    )
    coordinator.process_stream(tiny_dataset.stream)
    yield single, coordinator
    coordinator.close()


class TestClusterConfig:
    def test_backend_validated(self):
        with pytest.raises(ValueError, match="backend"):
            ClusterConfig(backend="carrier-pigeon")

    def test_budget_derivation(self):
        config = ClusterConfig()
        assert config.derive_budget(k=5, epsilon=0.1) == 50
        assert config.derive_budget(k=5, epsilon=0.9) == 6
        fixed = ClusterConfig(candidate_budget=7)
        assert fixed.derive_budget(k=5, epsilon=0.1) == 7
        scaled = ClusterConfig(budget_scale=2.0)
        assert scaled.derive_budget(k=5, epsilon=0.1) == 100


class TestCoordinatorIngestion:
    def test_active_count_matches_single_node(self, replayed):
        single, coordinator = replayed
        assert coordinator.active_count == single.active_count
        assert coordinator.elements_processed == single.elements_processed
        assert coordinator.current_time == single.current_time
        assert coordinator.buckets_processed == single.buckets_processed

    def test_every_active_element_is_home_somewhere(self, replayed):
        single, coordinator = replayed
        home_ids = set()
        for worker in coordinator.workers:
            index = worker.processor.ranked_lists
            ids = {
                eid for topic in range(index.num_topics)
                for eid, _score in index.items(topic)
            }
            assert home_ids.isdisjoint(ids), "ranked lists overlap across shards"
            home_ids.update(ids)
        single_ids = {
            eid for topic in range(single.ranked_lists.num_topics)
            for eid, _score in single.ranked_lists.items(topic)
        }
        assert home_ids == single_ids

    def test_stored_scores_match_single_node(self, replayed):
        single, coordinator = replayed
        for worker in coordinator.workers:
            index = worker.processor.ranked_lists
            for topic in range(index.num_topics):
                for element_id, score in index.items(topic):
                    assert score == pytest.approx(
                        single.ranked_lists.score(topic, element_id), abs=1e-9
                    )

    def test_shard_stats_accounting(self, replayed):
        _single, coordinator = replayed
        stats = coordinator.shard_stats()
        assert len(stats) == 3
        assert sum(s.home_elements for s in stats) == coordinator.elements_processed
        assert all(s.foreign_elements >= 0 for s in stats)
        assert sum(s.active_home for s in stats) == coordinator.active_count

    def test_dirty_topics_union(self, tiny_dataset):
        with ClusterCoordinator(
            tiny_dataset.topic_model,
            TINY_CONFIG,
            cluster=ClusterConfig(num_shards=2, backend="serial"),
        ) as coordinator:
            stream = SocialStream(tiny_dataset.stream.elements[:40])
            coordinator.process_stream(stream)
            dirty = coordinator.take_dirty_topics()
            assert len(dirty) > 0
            # Drained: a second take returns nothing new.
            assert coordinator.take_dirty_topics() == ()

    def test_closed_coordinator_rejects_work(self, tiny_dataset):
        coordinator = ClusterCoordinator(
            tiny_dataset.topic_model,
            TINY_CONFIG,
            cluster=ClusterConfig(num_shards=2, backend="serial"),
        )
        coordinator.close()
        with pytest.raises(RuntimeError):
            coordinator.process_bucket([], end_time=900)
        with pytest.raises(RuntimeError):
            coordinator.query(np.full(tiny_dataset.topic_model.num_topics, 1.0), k=2)


class TestCoordinatorQueries:
    @pytest.mark.parametrize("algorithm", ["mttd", "mtts", "greedy", "celf"])
    def test_query_matches_single_node(self, replayed, tiny_dataset, algorithm):
        single, coordinator = replayed
        query = tiny_dataset.make_query(k=5, topic=2)
        expected = single.query(query, algorithm=algorithm, epsilon=0.1)
        actual = coordinator.query(query, algorithm=algorithm, epsilon=0.1)
        assert set(actual.element_ids) == set(expected.element_ids)
        assert actual.score == pytest.approx(expected.score, abs=1e-9)
        assert actual.extras["shards"] == 3.0
        assert actual.active_elements == single.active_count

    def test_raw_vector_requires_k(self, replayed, tiny_dataset):
        _single, coordinator = replayed
        vector = np.full(tiny_dataset.topic_model.num_topics, 1.0)
        with pytest.raises(ValueError, match="k must be provided"):
            coordinator.query(vector)
        result = coordinator.query(vector, k=3)
        assert len(result) <= 3

    def test_bounded_candidate_budget_still_returns(self, tiny_dataset):
        with ClusterCoordinator(
            tiny_dataset.topic_model,
            TINY_CONFIG,
            cluster=ClusterConfig(
                num_shards=2, backend="serial", candidate_budget=2
            ),
        ) as coordinator:
            coordinator.process_stream(tiny_dataset.stream)
            result = coordinator.query(tiny_dataset.make_query(k=4, topic=0))
            assert len(result) <= 4
            # At most budget × shards candidates are merged.
            assert result.extras["merged_candidates"] <= 4

    def test_thread_backend_equals_serial(self, tiny_dataset):
        results = {}
        for backend in ("serial", "thread"):
            with ClusterCoordinator(
                tiny_dataset.topic_model,
                TINY_CONFIG,
                cluster=ClusterConfig(num_shards=4, backend=backend),
            ) as coordinator:
                coordinator.process_stream(tiny_dataset.stream)
                result = coordinator.query(tiny_dataset.make_query(k=5, topic=1))
                results[backend] = (set(result.element_ids), result.score)
        assert results["serial"][0] == results["thread"][0]
        assert results["serial"][1] == pytest.approx(results["thread"][1], abs=1e-12)


class TestProcessBackend:
    def test_process_backend_matches_single_node(self, tiny_dataset):
        stream = SocialStream(tiny_dataset.stream.elements[:120])
        single = build_processor(tiny_dataset.topic_model, TINY_CONFIG)
        single.process_stream(stream)
        with ClusterCoordinator(
            tiny_dataset.topic_model,
            TINY_CONFIG,
            cluster=ClusterConfig(num_shards=2, backend="process"),
        ) as coordinator:
            coordinator.process_stream(stream)
            assert coordinator.active_count == single.active_count
            query = tiny_dataset.make_query(k=4, topic=3)
            expected = single.query(query, algorithm="mttd", epsilon=0.1)
            actual = coordinator.query(query, algorithm="mttd", epsilon=0.1)
            assert set(actual.element_ids) == set(expected.element_ids)
            assert actual.score == pytest.approx(expected.score, abs=1e-9)


class TestServiceEngineClusterBackend:
    def test_standing_results_match_single_node_engine(self, tiny_dataset):
        queries = [tiny_dataset.make_query(k=4, topic=t) for t in range(4)]

        single_processor = build_processor(tiny_dataset.topic_model, TINY_CONFIG)
        with build_service_engine(single_processor, max_workers=2) as engine:
            for query in queries:
                engine.register(query, algorithm="mttd", epsilon=0.1)
            engine.serve_stream(tiny_dataset.stream)
            single_results = {
                qid: (set(r.result.element_ids), r.result.score)
                for qid, r in engine.results().items()
            }
            assert engine.processor is single_processor
            assert not engine.is_cluster

        coordinator = ClusterCoordinator(
            tiny_dataset.topic_model,
            TINY_CONFIG,
            cluster=ClusterConfig(num_shards=3, backend="serial"),
        )
        with coordinator, build_service_engine(coordinator, max_workers=2) as engine:
            for query in queries:
                engine.register(query, algorithm="mttd", epsilon=0.1)
            engine.serve_stream(tiny_dataset.stream)
            cluster_results = {
                qid: (set(r.result.element_ids), r.result.score)
                for qid, r in engine.results().items()
            }
            assert engine.is_cluster
            assert engine.processor is None
            # No shared single-node snapshot on the scatter-gather path.
            assert engine.metrics.snapshot_hits == 0
            assert engine.metrics.snapshot_misses == 0
            report = engine.report()
            assert "3-shard cluster" in report

        assert set(single_results) == set(cluster_results)
        for qid, (ids, score) in single_results.items():
            assert cluster_results[qid][0] == ids
            assert cluster_results[qid][1] == pytest.approx(score, abs=1e-9)
