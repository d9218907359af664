"""Tests for the continuous serving engine and its supporting pieces."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.core.algorithms import ALGORITHM_REGISTRY
from repro.core.processor import ProcessorConfig
from repro.core.query import KSIRQuery
from repro.core.scoring import ScoringConfig
from repro.core.element import SocialElement
from repro.datasets.profiles import get_profile
from repro.datasets.synthetic import SyntheticStreamGenerator
from repro.service import ServiceEngine
from repro.topics.model import MatrixTopicModel
from repro.topics.vocabulary import Vocabulary
from tests.conftest import (
    PAPER_SCORING,
    PAPER_WINDOW_LENGTH,
    build_paper_elements,
    build_paper_topic_model,
    build_processor,
    build_service_engine,
)


def make_query(*weights: float, k: int = 2) -> KSIRQuery:
    return KSIRQuery(k=k, vector=np.array(weights, dtype=float))


def paper_engine(**engine_kwargs) -> ServiceEngine:
    config = ProcessorConfig(
        window_length=PAPER_WINDOW_LENGTH, bucket_length=1, scoring=PAPER_SCORING
    )
    processor = build_processor(build_paper_topic_model(), config)
    return build_service_engine(processor, **engine_kwargs)


def replay_paper(engine: ServiceEngine, until: int = 8) -> None:
    by_id = {element.element_id: element for element in build_paper_elements()}
    for time in range(1, until + 1):
        bucket = [by_id[time]] if time in by_id else []
        engine.ingest_bucket(bucket, end_time=time)


class TestSnapshotCache:
    """Standing evaluations share the processor's memoised per-bucket snapshot."""

    def _engine(self) -> ServiceEngine:
        engine = paper_engine()
        engine.register(make_query(1.0, 0.0), query_id="on-0")
        engine.register(make_query(0.5, 0.5), query_id="both")
        return engine

    def test_same_context_within_a_bucket(self):
        with self._engine() as engine:
            replay_paper(engine, until=1)
            assert engine.metrics.evaluations == 2
            assert engine.processor.snapshot_builds == 1

    def test_invalidated_by_ingestion(self):
        with self._engine() as engine:
            replay_paper(engine, until=2)
            first = engine.processor.snapshot()
            assert engine.processor.snapshot_builds == 2
            third = build_paper_elements()[2]
            engine.ingest_bucket([third], end_time=third.timestamp)
            assert engine.processor.snapshot() is not first
            assert engine.processor.snapshot_builds == engine.metrics.buckets == 3

    def test_cold_cache_has_no_version(self):
        with self._engine() as engine:
            assert engine.processor.snapshot_builds == 0
            replay_paper(engine, until=2)
            # A restore drops the processor's memo: the next bucket's
            # evaluations pay for exactly one fresh context.
            engine.restore_state(engine.state_dict())
            assert engine.processor.snapshot_builds == 2
            third = build_paper_elements()[2]
            engine.ingest_bucket([third], end_time=third.timestamp)
            assert engine.processor.snapshot_builds == 3


#: Topics of the orthogonal world below: topic ``t`` owns two words of its own.
ORTHOGONAL_TOPICS = 4


def orthogonal_engine() -> ServiceEngine:
    """A service engine whose buckets dirty exactly the topics they name.

    Every word lives on one topic and an element carries a one-hot topic
    distribution without references, so it enters the ranked list of its
    own topic only; the window outlives every test, so nothing expires.
    """
    words = [f"t{topic}w{i}" for topic in range(ORTHOGONAL_TOPICS) for i in range(2)]
    matrix = np.zeros((ORTHOGONAL_TOPICS, len(words)))
    for topic in range(ORTHOGONAL_TOPICS):
        matrix[topic, 2 * topic : 2 * topic + 2] = (0.6, 0.4)
    model = MatrixTopicModel(Vocabulary(words), matrix, normalize=False)
    config = ProcessorConfig(
        window_length=1000, bucket_length=1, scoring=ScoringConfig(eta=1.0)
    )
    return build_service_engine(build_processor(model, config))


def on_topics(end_time: int, *topics: int):
    """One bucket holding one element on each of ``topics``."""
    return [
        SocialElement(
            element_id=100 * end_time + topic,
            timestamp=end_time,
            tokens=(f"t{topic}w0", f"t{topic}w1"),
            references=(),
            topic_distribution=np.eye(ORTHOGONAL_TOPICS)[topic],
        )
        for topic in topics
    ]


def on_topic(topic: int) -> KSIRQuery:
    return KSIRQuery(k=2, vector=np.eye(ORTHOGONAL_TOPICS)[topic])


class TestReevaluationRule:
    """A bucket re-evaluates exactly the queries its dirty topics reach,
    plus the registered ones never evaluated yet."""

    def test_a_mostly_dirty_bucket_spares_the_other_queries(self):
        with orthogonal_engine() as engine:
            for topic in range(ORTHOGONAL_TOPICS):
                engine.register(on_topic(topic), query_id=f"on-{topic}")
            engine.ingest_bucket(on_topics(1, 0, 1, 2, 3), end_time=1)
            update = engine.ingest_bucket(on_topics(2, 0, 1, 2), end_time=2)
            untouched = engine.result("on-3")
            assert untouched.evaluated_at_bucket == 1
            assert untouched.staleness_buckets == 1
            for topic in range(3):
                assert engine.result(f"on-{topic}").evaluated_at_bucket == 2
            assert engine.metrics.evaluations == 4 + 3
            assert engine.metrics.reused == 1
            assert update.dirty_topics == (0, 1, 2)  # 75 % of the topics
            assert sorted(update.updated) == ["on-0", "on-1", "on-2"]

    def test_only_affected_queries_reevaluated(self):
        with orthogonal_engine() as engine:
            engine.register(on_topic(0), query_id="on-0")
            engine.register(on_topic(1), query_id="on-1")
            first = engine.ingest_bucket(on_topics(1, 0, 1), end_time=1)
            assert sorted(first.updated) == ["on-0", "on-1"]
            update = engine.ingest_bucket(on_topics(2, 1), end_time=2)
            assert update.dirty_topics == (1,)
            assert list(update.updated) == ["on-1"]
            assert engine.result("on-0").evaluated_at_bucket == 1

    def test_pending_queries_always_included(self):
        with orthogonal_engine() as engine:
            engine.ingest_bucket(on_topics(1, 0), end_time=1)
            engine.register(on_topic(0), query_id="on-0")
            update = engine.ingest_bucket(on_topics(2, 1), end_time=2)
            assert update.dirty_topics == (1,)
            assert list(update.updated) == ["on-0"]

    def test_pending_ids_no_longer_registered_are_dropped(self):
        with orthogonal_engine() as engine:
            engine.register(on_topic(0), query_id="gone")
            assert engine.unregister("gone")
            update = engine.ingest_bucket(on_topics(1, 0), end_time=1)
            assert update.updated == {}
            assert engine.result("gone") is None
            assert engine.metrics.evaluations == 0

    def test_empty_registry_evaluates_nothing(self):
        with orthogonal_engine() as engine:
            update = engine.ingest_bucket(on_topics(1, 0, 1, 2, 3), end_time=1)
            assert update.dirty_topics == (0, 1, 2, 3)
            assert update.updated == {}
            assert engine.metrics.opportunities == 0


class TestServiceEngineBasics:
    def test_register_validates_vector_dimension(self):
        with paper_engine() as engine:
            with pytest.raises(ValueError):
                engine.register(make_query(0.2, 0.3, 0.5))

    def test_register_with_unknown_algorithm_leaves_no_orphan(self):
        with paper_engine() as engine:
            with pytest.raises(ValueError):
                engine.register(make_query(0.5, 0.5), algorithm="bogus")
            assert len(engine.registry) == 0
            # The engine still serves cleanly afterwards.
            engine.register(make_query(0.5, 0.5), query_id="ok")
            engine.ingest_bucket([build_paper_elements()[0]], end_time=1)
            assert engine.result("ok") is not None

    def test_standing_results_match_adhoc_queries(self):
        with paper_engine() as engine:
            engine.register(make_query(0.5, 0.5), query_id="both")
            engine.register(make_query(1.0, 0.0), query_id="sports")
            replay_paper(engine)

            both = engine.result("both")
            assert both is not None and both.fresh
            adhoc = engine.processor.query([0.5, 0.5], k=2, algorithm="mttd")
            assert set(both.result.element_ids) == set(adhoc.element_ids)
            assert both.result.score == pytest.approx(adhoc.score)

    def test_results_cover_evaluated_queries(self):
        with paper_engine() as engine:
            engine.register(make_query(0.5, 0.5), query_id="a")
            replay_paper(engine)
            engine.register(make_query(1.0, 0.0), query_id="b")
            results = engine.results()
            assert set(results) == {"a"}  # b has not seen a bucket yet
            engine.ingest_bucket([], end_time=9)
            assert set(engine.results()) == {"a", "b"}

    def test_results_are_defensive_copies(self):
        with paper_engine() as engine:
            engine.register(make_query(0.5, 0.5), query_id="guarded")
            replay_paper(engine)
            handed_out = engine.result("guarded")
            assert handed_out is not None
            # Mutating the returned QueryResult must not corrupt the cache.
            handed_out.result.extras["tampered"] = 1.0
            handed_out.result.score = -123.0
            fresh = engine.result("guarded")
            assert "tampered" not in fresh.result.extras
            assert fresh.result.score != -123.0
            # results() hands out copies too.
            engine.results()["guarded"].result.extras["tampered"] = 1.0
            assert "tampered" not in engine.result("guarded").result.extras

    def test_unregister_drops_cached_result(self):
        with paper_engine() as engine:
            engine.register(make_query(0.5, 0.5), query_id="gone")
            replay_paper(engine)
            assert engine.unregister("gone")
            assert engine.result("gone") is None
            assert engine.results() == {}

    def test_ttl_expiry_drops_query_and_result(self):
        with paper_engine() as engine:
            engine.register(make_query(0.5, 0.5), query_id="short", ttl_buckets=3)
            replay_paper(engine, until=5)
            assert "short" not in engine.registry
            assert engine.result("short") is None
            assert engine.metrics.expired_queries == 1

    def test_ttl_of_one_bucket_still_yields_an_answer(self):
        with paper_engine() as engine:
            engine.register(make_query(0.5, 0.5), query_id="once", ttl_buckets=1)
            engine.ingest_bucket([build_paper_elements()[0]], end_time=1)
            # Evaluated on its single TTL bucket and readable during it...
            result = engine.result("once")
            assert result is not None and result.evaluations == 1
            # ...then pruned on the next bucket.
            engine.ingest_bucket([], end_time=2)
            assert "once" not in engine.registry
            assert engine.result("once") is None

    def test_per_query_algorithm_respected(self):
        with paper_engine() as engine:
            engine.register(make_query(0.5, 0.5), query_id="celf", algorithm="celf")
            engine.register(make_query(0.5, 0.5), query_id="mttd", algorithm="mttd")
            replay_paper(engine)
            assert engine.result("celf").result.algorithm == "celf"
            assert engine.result("mttd").result.algorithm == "mttd"

    def test_closed_engine_rejects_ingestion(self):
        engine = paper_engine()
        engine.close()
        with pytest.raises(RuntimeError):
            engine.ingest_bucket([], end_time=1)
        engine.close()  # idempotent

    def test_answers_equal_a_twin_processors_queries(self):
        """After every bucket, each standing answer is what an ad-hoc query
        on a twin processor gave at the bucket the answer was computed."""
        queries = {"sports": make_query(1.0, 0.0), "soccer": make_query(0.0, 1.0)}
        twin = paper_engine().processor
        with paper_engine() as engine:
            for query_id, query in queries.items():
                engine.register(query, query_id=query_id)
            by_id = {element.element_id: element for element in build_paper_elements()}
            history = {}
            for time in range(1, 9):
                bucket = [by_id[time]] if time in by_id else []
                engine.ingest_bucket(bucket, end_time=time)
                twin.process_bucket(bucket, time)
                history[time] = {
                    query_id: twin.query(query) for query_id, query in queries.items()
                }
                for query_id, standing in engine.results().items():
                    adhoc = history[standing.evaluated_at_bucket][query_id]
                    assert standing.result.element_ids == adhoc.element_ids
                    assert standing.result.score == adhoc.score
            metrics = engine.metrics
            assert metrics.opportunities == 16
            assert metrics.evaluations <= metrics.opportunities

    def test_report_mentions_key_metrics(self):
        with paper_engine() as engine:
            engine.register(make_query(0.5, 0.5))
            replay_paper(engine)
            report = engine.report()
            assert "standing queries" in report
            assert "p50" in report and "p99" in report
            assert "re-eval ratio" in report
            assert "snapshot cache" not in report


class TestStandingQueryIsAQuery:
    """A standing evaluation is the substrate's ad-hoc query, field for field."""

    CONFIG = ProcessorConfig(
        window_length=3 * 3600,
        bucket_length=1800,
        scoring=ScoringConfig(lambda_weight=0.5, eta=1.0),
    )
    #: One registry name per registered algorithm class (aliases collapse).
    ALGORITHMS = sorted({cls: name for name, cls in ALGORITHM_REGISTRY.items()}.values())

    def _replay(self, tiny_dataset, substrate, twin, fields):
        """Serve on ``substrate``; after every bucket, hold each standing
        answer to the ad-hoc query ``twin`` (fed the same buckets) answered
        at the bucket the standing answer was computed."""
        query = tiny_dataset.make_query(k=4, topic=1)
        history = {}
        with build_service_engine(substrate) as service:
            for algorithm in self.ALGORITHMS:
                service.register(query, query_id=algorithm, algorithm=algorithm)
            for bucket in tiny_dataset.stream.buckets(self.CONFIG.bucket_length):
                service.ingest_bucket(bucket.elements, bucket.end_time)
                twin.process_bucket(bucket.elements, bucket.end_time)
                history[twin.buckets_processed] = {
                    algorithm: twin.query(query, algorithm=algorithm)
                    for algorithm in self.ALGORITHMS
                }
                for algorithm in self.ALGORITHMS:
                    standing = service.result(algorithm)
                    adhoc = history[standing.evaluated_at_bucket][algorithm]
                    for name in fields:
                        assert getattr(standing.result, name) == getattr(adhoc, name), (
                            twin.buckets_processed, algorithm, name,
                        )
        assert len(history) >= 8

    def test_local_answers_equal_adhoc_answers(self, tiny_dataset):
        assert len(self.ALGORITHMS) == 6
        self._replay(
            tiny_dataset,
            build_processor(tiny_dataset.topic_model, self.CONFIG),
            build_processor(tiny_dataset.topic_model, self.CONFIG),
            ("element_ids", "score", "algorithm", "evaluated_elements",
             "active_elements", "extras"),
        )

    def test_sharded_answers_equal_adhoc_answers(self, tiny_dataset):
        cluster = ClusterConfig(num_shards=3, transport="serial")
        model = tiny_dataset.topic_model
        with ClusterCoordinator(model, self.CONFIG, cluster=cluster) as coordinator:
            with ClusterCoordinator(model, self.CONFIG, cluster=cluster) as twin:
                self._replay(tiny_dataset, coordinator, twin, ("element_ids", "score"))


class TestCarriedTerms:
    """Standing and ad-hoc queries share the backend's one term memo across
    buckets; the sharing never shows in an answer or in its evaluation
    count."""

    CONFIG = ProcessorConfig(
        window_length=3 * 3600,
        bucket_length=900,
        scoring=ScoringConfig(lambda_weight=0.5, eta=1.0),
    )
    ALGORITHMS = ("mttd", "mtts", "celf")

    def test_reregistered_query_answers_from_fresh_terms(self, tiny_dataset):
        """Unregister, then register the same ids with another vector on
        the same topics: every later answer is a twin's fresh query, field
        for field — a term that carried a weight ``x_i`` would carry the
        old one."""
        model = tiny_dataset.topic_model
        first, second = np.zeros(model.num_topics), np.zeros(model.num_topics)
        first[:2], second[:2] = (0.7, 0.3), (0.2, 0.8)
        queries = {algorithm: KSIRQuery(k=4, vector=first) for algorithm in self.ALGORITHMS}
        buckets = list(tiny_dataset.stream.buckets(self.CONFIG.bucket_length))
        twin = build_processor(model, self.CONFIG)
        carried = compared = 0
        with build_service_engine(build_processor(model, self.CONFIG)) as service:
            memo = service.processor._term_memo
            for algorithm, query in queries.items():
                service.register(query, query_id=algorithm, algorithm=algorithm)
            for position, bucket in enumerate(buckets):
                if position == len(buckets) // 2:
                    for algorithm in self.ALGORITHMS:
                        assert service.unregister(algorithm)
                        queries[algorithm] = KSIRQuery(k=4, vector=second)
                        service.register(
                            queries[algorithm], query_id=algorithm, algorithm=algorithm
                        )
                update = service.ingest_bucket(bucket.elements, bucket.end_time)
                twin.process_bucket(bucket.elements, bucket.end_time)
                for query_id, standing in update.updated.items():
                    fresh = twin.query(queries[query_id], algorithm=query_id)
                    for name in ("element_ids", "score", "evaluated_elements", "extras"):
                        assert getattr(standing.result, name) == getattr(fresh, name), (
                            position, query_id, name,
                        )
                    compared += 1
                    # The count is this evaluation's, not the memo's size.
                    carried += len(memo) > fresh.evaluated_elements
        assert len(buckets) >= 10 and compared >= len(buckets)
        assert carried

    def test_the_terms_outlive_their_queries_until_a_restore(self):
        """Terms hold no query weight, so unregistering or expiring a query
        leaves them for the next query on any vector; a restore empties the
        memo."""
        by_id = {element.element_id: element for element in build_paper_elements()}
        with paper_engine() as engine:
            engine.register(make_query(0.5, 0.5), query_id="short", ttl_buckets=3)
            engine.register(make_query(1.0, 0.0), query_id="gone")
            for time in (1, 2, 3):
                engine.ingest_bucket([by_id[time]], end_time=time)
            processor = engine.processor
            assert processor._term_memo
            engine.unregister("gone")
            engine.ingest_bucket([by_id[4]], end_time=4)  # "short" expires
            assert len(engine.registry) == 0
            kept = dict(processor._term_memo)
            assert kept  # nothing re-evaluated bucket 4, elements 1-3 stay
            answer = processor.query(make_query(0.0, 1.0), algorithm="celf")
            assert all(processor._term_memo[e] is kept[e] for e in kept)
            assert answer.evaluated_elements == processor.active_count
            engine.restore_state(engine.state_dict())
            assert processor._term_memo == {}


class TestIncrementalMaintenance:
    """The re-evaluation rule on a many-topic synthetic stream."""

    PROFILE = replace(
        get_profile("tiny"),
        name="service-test",
        num_elements=260,
        vocabulary_size=800,
        num_topics=48,
        duration=6 * 3600,
    )
    CONFIG = ProcessorConfig(
        window_length=2 * 3600,
        bucket_length=600,
        scoring=ScoringConfig(lambda_weight=0.5, eta=1.0),
    )
    NUM_QUERIES = 100

    @pytest.fixture(scope="class")
    def dataset(self):
        return SyntheticStreamGenerator(self.PROFILE, seed=5).generate()

    def _engine(self, dataset) -> ServiceEngine:
        processor = build_processor(dataset.topic_model, self.CONFIG)
        engine = build_service_engine(processor)
        for i in range(self.NUM_QUERIES):
            engine.register(
                dataset.make_query(k=3, topic=i % self.PROFILE.num_topics),
                query_id=f"monitor-{i:03d}",
            )
        return engine

    def _serve(self, dataset) -> ServiceEngine:
        with self._engine(dataset) as engine:
            for bucket in dataset.stream.buckets(self.CONFIG.bucket_length):
                engine.ingest_bucket(bucket.elements, bucket.end_time)
        return engine

    def test_incremental_reevaluates_strictly_fewer_pairs(self, dataset):
        engine = self._serve(dataset)
        assert len(engine.registry) == self.NUM_QUERIES
        metrics = engine.metrics
        assert metrics.opportunities == self.NUM_QUERIES * metrics.buckets
        assert metrics.evaluations < metrics.opportunities
        assert metrics.reeval_ratio < 1.0

    def test_skipped_queries_carry_staleness_metadata(self, dataset):
        engine = self._serve(dataset)
        results = engine.results()
        assert len(results) == self.NUM_QUERIES
        staleness = [result.staleness_buckets for result in results.values()]
        # Some queries were untouched by the last buckets (served stale)...
        assert max(staleness) > 0
        # ...and staleness counts buckets since the recorded evaluation.
        bucket = engine.processor.buckets_processed
        for result in results.values():
            assert result.staleness_buckets == bucket - result.evaluated_at_bucket
            assert result.fresh == (result.staleness_buckets == 0)

    def test_stale_results_match_their_evaluation_bucket(self, dataset):
        """A served-stale answer equals what a fresh run at its bucket gave.

        Feeds a twin processor the same buckets and answers every standing
        query ad hoc on it after each one; after every bucket, each standing
        answer must equal the twin's answer at the bucket it was evaluated
        at — i.e. staleness metadata is truthful.
        """
        twin = build_processor(dataset.topic_model, self.CONFIG)
        stale = 0
        with self._engine(dataset) as engine:
            queries = {standing.query_id: standing.query for standing in engine.registry}
            history = {}
            for bucket in dataset.stream.buckets(self.CONFIG.bucket_length):
                engine.ingest_bucket(bucket.elements, bucket.end_time)
                twin.process_bucket(bucket.elements, bucket.end_time)
                history[twin.buckets_processed] = {
                    query_id: twin.query(query) for query_id, query in queries.items()
                }
                for query_id, standing in engine.results().items():
                    reference = history[standing.evaluated_at_bucket][query_id]
                    assert standing.result.element_ids == reference.element_ids
                    assert standing.result.score == reference.score
                    stale += not standing.fresh
        assert stale > 0
