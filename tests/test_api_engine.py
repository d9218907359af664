"""Facade tests: KSIREngine must be execution-equivalent to direct backends.

The acceptance contract of the api redesign: for every
execution backend, a ``KSIREngine`` produces *identical* ``QueryResult``s
to constructing the underlying surface (``KSIRProcessor``,
``ClusterCoordinator``, ``ServiceEngine``) by hand — checked both on a
fixed synthetic dataset and on randomized instances (property test).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig, KSIREngine
from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.core.processor import KSIRProcessor, ProcessorConfig
from repro.core.query import KSIRQuery
from repro.core.scoring import ScoringConfig
from repro.service import ServiceEngine

from tests.conftest import build_processor, build_service_engine
from tests.conftest import build_reference_stream as build_stream


def random_query(seed: int, num_topics: int, k: int) -> KSIRQuery:
    rng = np.random.default_rng(seed + 7919)
    active = int(rng.integers(1, min(3, num_topics) + 1))
    topics = rng.choice(num_topics, size=active, replace=False)
    vector = np.zeros(num_topics)
    vector[topics] = rng.dirichlet(np.ones(active))
    return KSIRQuery(k=k, vector=vector)


def small_processor_config(num_elements: int) -> ProcessorConfig:
    # Window shorter than the stream, so expiry and reactivation trigger.
    return ProcessorConfig(
        window_length=max(3, num_elements // 2),
        bucket_length=2,
        scoring=ScoringConfig(lambda_weight=0.5, eta=2.0),
    )


def ingest(target, elements, bucket_length: int) -> None:
    end = elements[-1].timestamp
    bucket_end = elements[0].timestamp + bucket_length - 1
    index = 0
    while True:
        members = []
        while index < len(elements) and elements[index].timestamp <= bucket_end:
            members.append(elements[index])
            index += 1
        target.ingest_bucket(members, bucket_end) if hasattr(
            target, "ingest_bucket"
        ) else target.process_bucket(members, bucket_end)
        if bucket_end >= end and index >= len(elements):
            break
        bucket_end += bucket_length


def assert_results_identical(a, b):
    assert a.element_ids == b.element_ids
    assert a.score == b.score
    assert a.algorithm == b.algorithm
    assert a.evaluated_elements == b.evaluated_elements


@pytest.fixture()
def suppress_deprecations():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        yield


class TestRegistry:
    def test_builtin_backends_registered(self):
        model, _ = build_stream(0, 4, 2, 6)
        for name in ("local", "sharded", "service"):
            with KSIREngine(model, EngineConfig(backend=name)) as engine:
                assert engine.backend_name == name
                assert engine.backend is engine

    def test_unknown_backend_rejected_by_config(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            EngineConfig(backend="nope")


instance_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=6, max_value=12),      # elements
    st.integers(min_value=2, max_value=5),       # topics
    st.integers(min_value=6, max_value=14),      # vocabulary
    st.integers(min_value=2, max_value=4),       # k
)


class TestFacadeEquivalence:
    """KSIREngine == direct construction, for all three backends."""

    @given(params=instance_params)
    @settings(max_examples=20, deadline=None)
    def test_local_facade_matches_direct_processor(self, params):
        seed, num_elements, num_topics, vocab_size, k = params
        model, elements = build_stream(seed, num_elements, num_topics, vocab_size)
        config = small_processor_config(num_elements)
        query = random_query(seed, num_topics, k)

        engine = KSIREngine(model, EngineConfig(processor=config))
        ingest(engine, elements, config.bucket_length)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            direct = build_processor(model, config)
        ingest(direct, elements, config.bucket_length)

        for algorithm in ("mttd", "greedy"):
            assert_results_identical(
                engine.query(query, algorithm=algorithm, epsilon=0.25),
                direct.query(query, algorithm=algorithm, epsilon=0.25),
            )

    @given(params=instance_params, shards=st.integers(min_value=2, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_sharded_facade_matches_direct_coordinator(self, params, shards):
        seed, num_elements, num_topics, vocab_size, k = params
        model, elements = build_stream(seed, num_elements, num_topics, vocab_size)
        config = small_processor_config(num_elements)
        cluster = ClusterConfig(num_shards=shards)
        query = random_query(seed, num_topics, k)

        engine = KSIREngine(
            model, EngineConfig(backend="sharded", processor=config, cluster=cluster)
        )
        ingest(engine, elements, config.bucket_length)

        direct = ClusterCoordinator(model, config, cluster=cluster)
        ingest(direct, elements, config.bucket_length)

        assert_results_identical(
            engine.query(query, algorithm="mttd", epsilon=0.25),
            direct.query(query, algorithm="mttd", epsilon=0.25),
        )
        direct.close()
        engine.close()

    @given(params=instance_params)
    @settings(max_examples=15, deadline=None)
    def test_service_facade_matches_direct_service_engine(self, params):
        seed, num_elements, num_topics, vocab_size, k = params
        model, elements = build_stream(seed, num_elements, num_topics, vocab_size)
        config = small_processor_config(num_elements)
        query = random_query(seed, num_topics, k)

        facade = KSIREngine(
            model,
            EngineConfig(
                backend="service",
                processor=config,
            ),
        )
        facade.register(query, algorithm="mttd", epsilon=0.25)
        ingest(facade, elements, config.bucket_length)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            processor = build_processor(model, config)
            direct = build_service_engine(processor)
        direct.register(query, algorithm="mttd", epsilon=0.25)
        ingest(direct, elements, config.bucket_length)

        ours, theirs = facade.results(), direct.results()
        assert ours.keys() == theirs.keys()
        for query_id in ours:
            assert_results_identical(ours[query_id].result, theirs[query_id].result)
            assert ours[query_id].evaluations == theirs[query_id].evaluations
        facade.close()
        direct.close()


class TestFacadeSurface:
    def test_standing_queries_require_service_backend(self, tiny_dataset):
        engine = KSIREngine(tiny_dataset.topic_model, EngineConfig())
        with pytest.raises(RuntimeError, match="service"):
            engine.register(tiny_dataset.make_query(k=3, topic=0))
        with pytest.raises(RuntimeError, match="service"):
            engine.results()
        assert engine.service_engine is None

    def test_register_by_keywords_requires_k(self, tiny_dataset):
        engine = KSIREngine(
            tiny_dataset.topic_model, EngineConfig(backend="service")
        )
        with pytest.raises(ValueError, match="k must be provided"):
            engine.register(["music"])
        standing = engine.register(["music"], k=3)
        assert standing.query.k == 3
        engine.close()

    def test_query_keywords_round_trip(self, tiny_dataset):
        engine = KSIREngine(tiny_dataset.topic_model, EngineConfig())
        engine.process_stream(tiny_dataset.stream)
        keywords = tiny_dataset.topical_keywords(topic=0, count=3)
        result = engine.query_keywords(keywords, k=4, algorithm="mttd", epsilon=0.1)
        assert len(result) <= 4
        assert result.algorithm.startswith("mttd")

    def test_stats_carry_backend_name(self, tiny_dataset):
        for backend in ("local", "service"):
            engine = KSIREngine(
                tiny_dataset.topic_model, EngineConfig(backend=backend)
            )
            assert engine.stats()["backend"] == backend
            assert engine.backend_name == backend
            engine.close()

    @pytest.mark.parametrize(
        "cluster, substrate_keys",
        [
            (None, {"ranked_tuples", "snapshot_builds"}),
            (ClusterConfig(num_shards=2, transport="serial"), {"num_shards", "shards"}),
        ],
        ids=["local", "sharded"],
    )
    def test_service_stats_are_the_substrate_stats_plus_the_serving_keys(
        self, tiny_dataset, cluster, substrate_keys
    ):
        serving = {"standing_queries", "evaluations", "reused", "sharded"}
        elements = tiny_dataset.stream.elements[:40]
        service = EngineConfig(backend="service", cluster=cluster)
        plain = EngineConfig(
            backend="local" if cluster is None else "sharded", cluster=cluster
        )
        with KSIREngine(tiny_dataset.topic_model, service) as engine, KSIREngine(
            tiny_dataset.topic_model, plain
        ) as substrate:
            engine.register(tiny_dataset.make_query(k=3, topic=0))
            for each in (engine, substrate):
                each.ingest_bucket(elements, elements[-1].timestamp)
            stats, substrate_stats = engine.stats(), substrate.stats()
        assert substrate_keys <= set(substrate_stats)
        assert set(stats) == set(substrate_stats) | serving
        assert stats["backend"] == "service"
        assert stats["sharded"] is (cluster is not None)
        assert stats["standing_queries"] == stats["evaluations"] == 1
        for key in set(substrate_stats) - {"backend", "snapshot_builds", "kernels"}:
            assert stats[key] == substrate_stats[key], key
        if cluster is None:
            # One bucket, one standing evaluation, one snapshot; none ad hoc.
            assert (stats["snapshot_builds"], substrate_stats["snapshot_builds"]) == (1, 0)

    def test_closed_engine_rejects_work(self, tiny_dataset):
        engine = KSIREngine(tiny_dataset.topic_model, EngineConfig())
        engine.close()
        engine.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            engine.process_stream(tiny_dataset.stream)
        with pytest.raises(RuntimeError, match="closed"):
            engine.stats()

    def test_closed_service_engine_rejects_standing_queries(self, tiny_dataset):
        engine = KSIREngine(
            tiny_dataset.topic_model, EngineConfig(backend="service")
        )
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.register(["music"], k=3)
        with pytest.raises(RuntimeError, match="closed"):
            engine.results()

    def test_snapshot_matches_backend_window(self, tiny_dataset):
        engine = KSIREngine(tiny_dataset.topic_model, EngineConfig())
        engine.process_stream(tiny_dataset.stream)
        snapshot = engine.snapshot()
        assert snapshot.active_count == engine.active_count

    def test_sharded_snapshot_matches_local(self):
        model, elements = build_stream(3, 12, 3, 10)
        config = small_processor_config(12)
        local = KSIREngine(model, EngineConfig(processor=config))
        sharded = KSIREngine(
            model,
            EngineConfig(
                backend="sharded",
                processor=config,
                cluster=ClusterConfig(num_shards=2),
            ),
        )
        ingest(local, elements, config.bucket_length)
        ingest(sharded, elements, config.bucket_length)
        a, b = local.snapshot(), sharded.snapshot()
        assert sorted(a.active_ids) == sorted(b.active_ids)
        for element_id in a.active_ids:
            assert sorted(a.followers_of(element_id)) == sorted(
                b.followers_of(element_id)
            )
        sharded.close()
