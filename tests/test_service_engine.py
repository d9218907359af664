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
from repro.core.stream import SocialStream
from repro.datasets.profiles import get_profile
from repro.datasets.synthetic import SyntheticStreamGenerator
from repro.service import (
    IncrementalScheduler,
    QueryRegistry,
    ServiceEngine,
)
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


class TestIncrementalScheduler:
    def _registry(self) -> QueryRegistry:
        registry = QueryRegistry()
        registry.register(make_query(1.0, 0.0), query_id="on-0")
        registry.register(make_query(0.0, 1.0), query_id="on-1")
        return registry

    def test_only_affected_queries_planned(self):
        scheduler = IncrementalScheduler(self._registry(), num_topics=8)
        plan = scheduler.plan([1], active_elements=100)
        assert plan.query_ids == ("on-1",)
        assert not plan.full
        assert plan.reason == "incremental"

    def test_pending_queries_always_included(self):
        scheduler = IncrementalScheduler(self._registry(), num_topics=8)
        plan = scheduler.plan([], pending_ids=("on-0",), active_elements=100)
        assert plan.query_ids == ("on-0",)

    def test_pending_ids_no_longer_registered_are_dropped(self):
        scheduler = IncrementalScheduler(self._registry(), num_topics=8)
        plan = scheduler.plan([], pending_ids=("gone",), active_elements=100)
        assert plan.query_ids == ()

    def test_expiry_churn_falls_back_to_full(self):
        scheduler = IncrementalScheduler(
            self._registry(), num_topics=8, expiry_churn_fraction=0.5
        )
        plan = scheduler.plan([], expired_elements=60, active_elements=100)
        assert plan.full
        assert plan.reason == "expiry-churn"
        assert plan.query_ids == ("on-0", "on-1")

    def test_dirty_fraction_falls_back_to_full(self):
        scheduler = IncrementalScheduler(
            self._registry(), num_topics=4, dirty_fraction_fallback=0.75
        )
        plan = scheduler.plan([0, 1, 2], active_elements=100)
        assert plan.full
        assert plan.reason == "dirty-fraction"

    def test_empty_registry_plans_nothing(self):
        scheduler = IncrementalScheduler(QueryRegistry(), num_topics=8)
        plan = scheduler.plan([0, 1], expired_elements=100, active_elements=1)
        assert plan.query_ids == ()
        assert not plan.full


class TestServiceEngineBasics:
    def test_register_validates_vector_dimension(self):
        with paper_engine() as engine:
            with pytest.raises(ValueError):
                engine.register(make_query(0.2, 0.3, 0.5))

    def test_externally_populated_registry_is_adopted(self):
        registry = QueryRegistry()
        registry.register(make_query(0.5, 0.5), query_id="external", algorithm="celf")
        config = ProcessorConfig(
            window_length=PAPER_WINDOW_LENGTH, bucket_length=1, scoring=PAPER_SCORING
        )
        processor = build_processor(build_paper_topic_model(), config)
        with build_service_engine(processor, registry=registry) as engine:
            engine.ingest_bucket([build_paper_elements()[0]], end_time=1)
            result = engine.result("external")
            assert result is not None
            assert result.result.algorithm == "celf"

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

    def test_naive_mode_reevaluates_everything(self):
        with paper_engine(incremental=False) as engine:
            engine.register(make_query(1.0, 0.0))
            engine.register(make_query(0.0, 1.0))
            replay_paper(engine)
            metrics = engine.metrics
            assert metrics.reeval_ratio == 1.0
            assert metrics.evaluations == metrics.opportunities == 16

    def test_serve_stream_equivalent_to_manual_buckets(self):
        with paper_engine() as engine:
            engine.register(make_query(0.5, 0.5), query_id="q")
            engine.serve_stream(SocialStream(build_paper_elements()))
            manual = paper_engine()
            manual.register(make_query(0.5, 0.5), query_id="q")
            replay_paper(manual)
            assert (
                engine.result("q").result.element_ids
                == manual.result("q").result.element_ids
            )
            manual.close()

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

    def _replay(self, tiny_dataset, substrate, fields):
        query = tiny_dataset.make_query(k=4, topic=1)
        buckets = 0
        # Naive maintenance: every standing query is fresh after every bucket.
        with build_service_engine(substrate, incremental=False) as service:
            for algorithm in self.ALGORITHMS:
                service.register(query, query_id=algorithm, algorithm=algorithm)
            for bucket in tiny_dataset.stream.buckets(self.CONFIG.bucket_length):
                service.ingest_bucket(bucket.elements, bucket.end_time)
                buckets += 1
                for algorithm in self.ALGORITHMS:
                    standing = service.result(algorithm).result
                    adhoc = substrate.query(query, algorithm=algorithm)
                    for name in fields:
                        assert getattr(standing, name) == getattr(adhoc, name), (
                            buckets, algorithm, name,
                        )
        assert buckets >= 8

    def test_local_answers_equal_adhoc_answers(self, tiny_dataset):
        assert len(self.ALGORITHMS) == 6
        self._replay(
            tiny_dataset,
            build_processor(tiny_dataset.topic_model, self.CONFIG),
            ("element_ids", "score", "algorithm", "evaluated_elements",
             "active_elements", "extras"),
        )

    def test_sharded_answers_equal_adhoc_answers(self, tiny_dataset):
        with ClusterCoordinator(
            tiny_dataset.topic_model,
            self.CONFIG,
            cluster=ClusterConfig(num_shards=3, transport="serial"),
        ) as coordinator:
            self._replay(tiny_dataset, coordinator, ("element_ids", "score"))


class TestIncrementalMaintenance:
    """Incremental vs naive maintenance on a many-topic synthetic stream."""

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

    def _serve(self, dataset, incremental: bool) -> ServiceEngine:
        processor = build_processor(dataset.topic_model, self.CONFIG)
        engine = build_service_engine(processor, incremental=incremental)
        for i in range(self.NUM_QUERIES):
            engine.register(
                dataset.make_query(k=3, topic=i % self.PROFILE.num_topics),
                query_id=f"monitor-{i:03d}",
            )
        engine.serve_stream(dataset.stream)
        engine.close()
        return engine

    def test_incremental_reevaluates_strictly_fewer_pairs(self, dataset):
        incremental = self._serve(dataset, incremental=True)
        naive = self._serve(dataset, incremental=False)

        assert len(incremental.registry) == self.NUM_QUERIES
        assert incremental.metrics.opportunities == naive.metrics.opportunities
        assert incremental.metrics.evaluations < naive.metrics.evaluations
        assert incremental.metrics.reeval_ratio < 1.0
        assert naive.metrics.reeval_ratio == 1.0

    def test_skipped_queries_carry_staleness_metadata(self, dataset):
        engine = self._serve(dataset, incremental=True)
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

        Replays the same stream with a naive engine and checks that each
        stale incremental answer matches the naive answer of the bucket it
        was evaluated at — i.e. staleness metadata is truthful.
        """
        incremental = self._serve(dataset, incremental=True)

        processor = build_processor(dataset.topic_model, self.CONFIG)
        with build_service_engine(processor, incremental=False) as naive:
            for i in range(self.NUM_QUERIES):
                naive.register(
                    dataset.make_query(k=3, topic=i % self.PROFILE.num_topics),
                    query_id=f"monitor-{i:03d}",
                )
            history = {}
            for bucket in dataset.stream.buckets(self.CONFIG.bucket_length):
                naive.ingest_bucket(bucket.elements, bucket.end_time)
                history[naive.processor.buckets_processed] = {
                    query_id: result.result.element_ids
                    for query_id, result in naive.results().items()
                }

        checked = 0
        for query_id, standing_result in incremental.results().items():
            if standing_result.staleness_buckets == 0:
                continue
            reference = history[standing_result.evaluated_at_bucket][query_id]
            assert standing_result.result.element_ids == reference
            checked += 1
        assert checked > 0
