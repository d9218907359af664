"""Tests for standing queries, the registry and the service metrics helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import KSIRQuery
from repro.service.metrics import ServiceMetrics, percentile
from repro.service.registry import QueryRegistry, StandingQuery


def make_query(*weights: float, k: int = 3) -> KSIRQuery:
    return KSIRQuery(k=k, vector=np.array(weights, dtype=float))


class TestStandingQuery:
    def test_topics_mirror_query_support(self):
        standing = StandingQuery("q1", make_query(0.0, 0.4, 0.6))
        assert standing.topics == (1, 2)

    def test_no_ttl_never_expires(self):
        standing = StandingQuery("q1", make_query(1.0, 0.0))
        assert not standing.expired(10**9)

    def test_ttl_countdown_from_registration_bucket(self):
        standing = StandingQuery(
            "q1", make_query(1.0, 0.0), ttl_buckets=3, registered_at_bucket=5
        )
        # Served on buckets 6..8 (three answers), pruned from bucket 9 on.
        assert not standing.expired(7)
        assert not standing.expired(8)
        assert standing.expired(9)

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            StandingQuery("q1", make_query(1.0, 0.0), ttl_buckets=0)
        with pytest.raises(ValueError):
            StandingQuery("q1", make_query(1.0, 0.0), registered_at_bucket=-1)


class TestQueryRegistry:
    def test_register_and_get(self):
        registry = QueryRegistry()
        standing = registry.register(make_query(1.0, 0.0), algorithm="celf", epsilon=0.2)
        assert registry.get(standing.query_id) is standing
        assert standing.algorithm == "celf"
        assert standing.epsilon == 0.2
        assert len(registry) == 1
        assert standing.query_id in registry

    def test_auto_ids_are_unique(self):
        registry = QueryRegistry()
        ids = {registry.register(make_query(1.0, 0.0)).query_id for _ in range(10)}
        assert len(ids) == 10

    def test_auto_ids_skip_explicitly_taken_ids(self):
        registry = QueryRegistry()
        registry.register(make_query(1.0, 0.0), query_id="q00000")
        auto = registry.register(make_query(0.0, 1.0))
        assert auto.query_id != "q00000"
        assert len(registry) == 2

    def test_duplicate_id_rejected(self):
        registry = QueryRegistry()
        registry.register(make_query(1.0, 0.0), query_id="mine")
        with pytest.raises(ValueError):
            registry.register(make_query(0.0, 1.0), query_id="mine")

    def test_unregister(self):
        registry = QueryRegistry()
        standing = registry.register(make_query(1.0, 1.0))
        assert registry.unregister(standing.query_id)
        assert not registry.unregister(standing.query_id)
        assert len(registry) == 0
        assert registry.affected_by([0]) == set()

    def test_topic_inverted_index(self):
        registry = QueryRegistry()
        a = registry.register(make_query(1.0, 0.0, 0.0))
        b = registry.register(make_query(0.0, 1.0, 1.0))
        c = registry.register(make_query(1.0, 0.0, 1.0))
        assert registry.affected_by([0]) == {a.query_id, c.query_id}
        assert registry.affected_by([1]) == {b.query_id}
        assert registry.affected_by([2]) == {b.query_id, c.query_id}
        assert registry.affected_by([3]) == set()

    def test_affected_by_unions_dirty_topics(self):
        registry = QueryRegistry()
        a = registry.register(make_query(1.0, 0.0, 0.0))
        b = registry.register(make_query(0.0, 1.0, 0.0))
        registry.register(make_query(0.0, 0.0, 1.0))
        assert registry.affected_by([0, 1]) == {a.query_id, b.query_id}
        assert registry.affected_by([]) == set()
        assert registry.affected_by([7]) == set()

    def test_prune_expired(self):
        registry = QueryRegistry()
        keep = registry.register(make_query(1.0, 0.0))
        drop = registry.register(make_query(0.0, 1.0), ttl_buckets=2, at_bucket=0)
        assert registry.prune_expired(1) == ()
        assert registry.prune_expired(2) == ()  # still served on its last bucket
        expired = registry.prune_expired(3)
        assert [standing.query_id for standing in expired] == [drop.query_id]
        assert registry.ids() == (keep.query_id,)

    def test_iteration_in_registration_order(self):
        registry = QueryRegistry()
        first = registry.register(make_query(1.0, 0.0))
        second = registry.register(make_query(0.0, 1.0))
        assert [s.query_id for s in registry] == [first.query_id, second.query_id]


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_nearest_rank(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(samples, 0.5) == 3.0
        assert percentile(samples, 0.99) == 5.0
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 5.0

    def test_unsorted_input(self):
        assert percentile([5.0, 1.0, 3.0], 0.5) == 3.0

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestServiceMetrics:
    def test_ratios(self):
        metrics = ServiceMetrics()
        metrics.evaluations = 25
        metrics.reused = 75
        assert metrics.opportunities == 100
        assert metrics.reeval_ratio == pytest.approx(0.25)
        assert metrics.result_cache_hit_rate == pytest.approx(0.75)

    def test_empty_metrics_render(self):
        text = ServiceMetrics().render()
        assert "re-eval ratio" in text
        assert "p50" in text and "p99" in text

    def test_throughput_counts_all_pairs(self):
        metrics = ServiceMetrics()
        metrics.evaluations = 10
        metrics.reused = 30
        metrics.maintenance_timer.add(2.0)
        assert metrics.queries_per_sec == pytest.approx(20.0)
        assert metrics.evaluations_per_sec == pytest.approx(5.0)
