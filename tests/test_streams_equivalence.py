"""Event-time ingest equivalence: disordered arrivals answer like in-order.

The contract of the ingestion subsystem is transparency: feeding an
arrival sequence with bounded disorder (every element delayed at most
``allowed_lateness`` buckets) through ``KSIREngine.ingest`` must drop
nothing and answer every query within 1e-9 of the classic in-order
``process_stream`` replay — on the single-node, sharded and service
backends alike.  A Hypothesis property pins that over random instances;
deterministic tests cover the engine-facade ingest API itself.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import build_reference_stream
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig, KSIREngine
from repro.cluster import ClusterConfig
from repro.core.processor import ProcessorConfig
from repro.core.query import KSIRQuery
from repro.core.scoring import ScoringConfig
from repro.core.stream import SocialStream
from repro.streams import MemorySource, StreamConfig, inject_disorder

BUCKET_LENGTH = 2


def random_query(seed: int, num_topics: int, k: int) -> KSIRQuery:
    rng = np.random.default_rng(seed + 104729)
    active = int(rng.integers(1, min(3, num_topics) + 1))
    topics = rng.choice(num_topics, size=active, replace=False)
    vector = np.zeros(num_topics)
    vector[topics] = rng.dirichlet(np.ones(active))
    return KSIRQuery(k=k, vector=vector)


def engine_configs(n: int, allowed_lateness: int):
    """One config per execution backend, sharing the processor section."""
    processor = ProcessorConfig(
        window_length=max(4, n // 2),
        bucket_length=BUCKET_LENGTH,
        scoring=ScoringConfig(lambda_weight=0.5, eta=2.0),
    )
    streams = StreamConfig(allowed_lateness=allowed_lateness)
    yield EngineConfig(backend="local", processor=processor, streams=streams)
    yield EngineConfig(
        backend="cluster",
        processor=processor,
        cluster=ClusterConfig(num_shards=2),
        streams=streams,
    )
    yield EngineConfig(backend="service", processor=processor, streams=streams)


instance_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=8, max_value=16),      # elements
    st.integers(min_value=2, max_value=4),       # topics
    st.integers(min_value=6, max_value=12),      # vocabulary
    st.integers(min_value=2, max_value=3),       # k
    st.integers(min_value=1, max_value=3),       # disorder bound (buckets)
)


class TestBoundedDisorderEquivalence:
    @given(params=instance_params)
    @settings(max_examples=10, deadline=None)
    def test_disordered_ingest_matches_in_order_on_every_backend(self, params):
        seed, n, z, v, k, max_delay = params
        model, elements = build_reference_stream(seed, n, z, v)
        arrivals = inject_disorder(
            elements,
            bucket_length=BUCKET_LENGTH,
            max_delay_buckets=max_delay,
            fraction=1.0,
            seed=seed,
        )
        query = random_query(seed, z, k)
        for config in engine_configs(n, allowed_lateness=max_delay):
            ordered = KSIREngine(model, config)
            ordered.process_stream(SocialStream(elements))
            disordered = KSIREngine(model, config)
            disordered.ingest(arrivals)
            disordered.ingest_flush()

            metrics = disordered.stream_metrics()
            assert metrics.dropped_late == 0, config.backend
            assert metrics.pending_events == 0, config.backend
            assert disordered.buckets_processed == ordered.buckets_processed
            assert disordered.current_time == ordered.current_time
            a = disordered.query(query, algorithm="mttd", epsilon=0.1)
            b = ordered.query(query, algorithm="mttd", epsilon=0.1)
            assert a.element_ids == b.element_ids, config.backend
            assert abs(a.score - b.score) <= 1e-9, config.backend
            ordered.close()
            disordered.close()


class TestEngineIngestApi:
    def setup_method(self):
        self.model, self.elements = build_reference_stream(31, 40, 3, 10)

    def make_engine(self, **stream_kwargs) -> KSIREngine:
        return KSIREngine(
            self.model,
            EngineConfig(
                processor=ProcessorConfig(
                    window_length=20,
                    bucket_length=BUCKET_LENGTH,
                    scoring=ScoringConfig(lambda_weight=0.5, eta=2.0),
                ),
                streams=StreamConfig(**stream_kwargs),
            ),
        )

    def test_ingest_counts_sealed_buckets(self):
        engine = self.make_engine(allowed_lateness=0)
        sealed = engine.ingest(self.elements)
        sealed += engine.ingest_flush()
        assert sealed == engine.buckets_processed > 0
        engine.close()

    def test_ingest_source_named_with_options(self):
        engine = self.make_engine(allowed_lateness=2)
        metrics = engine.ingest_source(
            "memory",
            elements=self.elements,
            bucket_length=BUCKET_LENGTH,
            disorder=1.0,
            max_delay_buckets=2,
            seed=5,
        )
        assert metrics.events_total == len(self.elements)
        assert metrics.dropped_late == 0
        assert metrics.pending_events == 0
        assert engine.elements_processed == len(self.elements)
        engine.close()

    def test_ingest_source_accepts_instances_but_not_their_options(self):
        engine = self.make_engine()
        source = MemorySource(self.elements)
        metrics = engine.ingest_source(source)
        assert metrics.events_total == len(self.elements)
        with pytest.raises(ValueError, match="source options"):
            engine.ingest_source(MemorySource(self.elements), seed=1)
        engine.close()

    def test_ingest_source_defaults_to_configured_source(self):
        engine = self.make_engine(source="memory")
        metrics = engine.ingest_source(elements=self.elements[:5])
        assert metrics.events_total == 5
        engine.close()

    def test_stream_metrics_before_any_ingest_is_zeroed(self):
        engine = self.make_engine()
        metrics = engine.stream_metrics()
        assert metrics.events_total == 0
        assert metrics.buckets_sealed == 0
        assert metrics.watermark is None
        engine.close()

    def test_ingest_without_streams_config_uses_defaults(self):
        engine = KSIREngine(
            self.model,
            EngineConfig(
                processor=ProcessorConfig(
                    window_length=20,
                    bucket_length=BUCKET_LENGTH,
                    scoring=ScoringConfig(lambda_weight=0.5, eta=2.0),
                )
            ),
        )
        ordered = sorted(
            self.elements, key=lambda e: (e.timestamp, e.element_id)
        )
        engine.ingest(ordered)
        engine.ingest_flush()
        assert engine.stream_metrics().allowed_lateness == 0
        assert engine.elements_processed == len(self.elements)
        engine.close()

    def test_ingest_after_close_is_an_error(self):
        engine = self.make_engine()
        engine.close()
        with pytest.raises(RuntimeError):
            engine.ingest(self.elements)
