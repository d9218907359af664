"""The facade adds nothing to the engines it wraps.

:class:`repro.api.KSIREngine` is the entry point; the
:class:`KSIRProcessor` / :class:`ServiceEngine` it builds internally behave
exactly like directly constructed ones.
"""

from __future__ import annotations

import pytest

from repro.api import EngineConfig, KSIREngine
from repro.core.processor import ProcessorConfig
from repro.core.scoring import ScoringConfig
from repro.datasets.synthetic import SyntheticStreamGenerator
from tests.conftest import build_processor, build_service_engine

#: 20-bucket replay of the tiny profile (bucket = 15 simulated minutes).
CONFIG = ProcessorConfig(
    window_length=2 * 3600,
    bucket_length=900,
    scoring=ScoringConfig(lambda_weight=0.5, eta=1.0),
)
NUM_BUCKETS = 20


@pytest.fixture(scope="module")
def dataset():
    return SyntheticStreamGenerator.from_profile("tiny", seed=19).generate()


@pytest.fixture(scope="module")
def twenty_buckets(dataset):
    buckets = list(dataset.stream.buckets(CONFIG.bucket_length))[:NUM_BUCKETS]
    assert len(buckets) == NUM_BUCKETS
    return buckets


class TestEquivalence:
    """Internally-built engines behave exactly like facade-built engines."""

    def test_internal_processor_equals_facade_on_twenty_buckets(
        self, dataset, twenty_buckets
    ):
        direct = build_processor(dataset.topic_model, CONFIG)
        facade = KSIREngine(dataset.topic_model, EngineConfig(processor=CONFIG))
        for bucket in twenty_buckets:
            direct.process_bucket(bucket.elements, bucket.end_time)
            facade.ingest_bucket(bucket.elements, bucket.end_time)

        assert direct.active_count == facade.active_count
        assert direct.buckets_processed == facade.buckets_processed

        assert facade.processor is not None
        index_a, index_b = direct.ranked_lists, facade.processor.ranked_lists
        for topic in range(index_a.num_topics):
            assert dict(index_a.items(topic)) == dict(index_b.items(topic))

        for topic in (0, 1, 2):
            query = dataset.make_query(k=4, topic=topic)
            a = direct.query(query, algorithm="mttd", epsilon=0.1)
            b = facade.query(query, algorithm="mttd", epsilon=0.1)
            assert a.element_ids == b.element_ids
            assert a.score == b.score

    def test_internal_service_engine_equals_facade_on_twenty_buckets(
        self, dataset, twenty_buckets
    ):
        processor = build_processor(dataset.topic_model, CONFIG)
        direct = build_service_engine(processor)
        facade = KSIREngine(
            dataset.topic_model,
            EngineConfig(
                backend="service",
                processor=CONFIG,
            ),
        )
        for topic in range(4):
            query = dataset.make_query(k=3, topic=topic)
            direct.register(query, algorithm="mttd", epsilon=0.1)
            facade.register(query, algorithm="mttd", epsilon=0.1)
        for bucket in twenty_buckets:
            direct.ingest_bucket(bucket.elements, bucket.end_time)
            facade.ingest_bucket(bucket.elements, bucket.end_time)

        ours, theirs = facade.results(), direct.results()
        assert ours.keys() == theirs.keys()
        for query_id in theirs:
            assert ours[query_id].result.element_ids == theirs[query_id].result.element_ids
            assert ours[query_id].result.score == theirs[query_id].result.score
            assert ours[query_id].evaluations == theirs[query_id].evaluations
        direct.close()
        facade.close()
