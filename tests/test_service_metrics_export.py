"""JSON export of the service metrics (`ServiceMetrics.to_dict`).

The serving tier ships these numbers over ``/telemetry`` and
``/metrics``, so the snapshot must be plain-JSON serialisable, complete,
and a value copy detached from the live accumulator.
"""

from __future__ import annotations

import json

from server_harness import element, ingest_payload, make_engine

from repro.core.query import KSIRQuery
from repro.server.json_codec import parse_ingest
from repro.service.metrics import ServiceMetrics, timer_summary
from repro.utils.timing import TimingStats


class TestToDict:
    def test_empty_metrics_round_trip(self) -> None:
        snapshot = ServiceMetrics().to_dict()
        decoded = json.loads(json.dumps(snapshot))
        assert decoded["buckets"] == 0
        assert decoded["opportunities"] == 0
        assert decoded["reeval_ratio"] == 0.0
        assert decoded["eval_latency"]["count"] == 0.0
        assert decoded["maintenance_timer"]["p99_ms"] == 0.0

    def test_snapshot_matches_counters_and_rates(self) -> None:
        metrics = ServiceMetrics(
            buckets=4,
            evaluations=6,
            reused=2,
            full_reevals=1,
            expired_queries=1,
        )
        metrics.eval_latency.add_ms(2.0)
        metrics.eval_latency.add_ms(4.0)
        metrics.maintenance_timer.add(0.5)

        snapshot = metrics.to_dict()
        assert snapshot["buckets"] == 4
        assert snapshot["evaluations"] == 6
        assert snapshot["reused"] == 2
        assert snapshot["opportunities"] == 8
        assert snapshot["reeval_ratio"] == 6 / 8
        assert snapshot["result_cache_hit_rate"] == 2 / 8
        assert not [key for key in snapshot if key.startswith("snapshot")]
        assert snapshot["maintenance_seconds"] == 0.5
        assert snapshot["queries_per_sec"] == 8 / 0.5
        assert snapshot["evaluations_per_sec"] == 6 / 0.5
        assert snapshot["eval_latency"]["count"] == 2.0
        assert snapshot["eval_latency"]["total_ms"] == 6.0
        assert snapshot["eval_latency"]["p50_ms"] == 2.0
        assert snapshot["eval_latency"]["max_ms"] == 4.0

    def test_snapshot_is_detached_value_copy(self) -> None:
        metrics = ServiceMetrics(buckets=1)
        snapshot = metrics.to_dict()
        snapshot["buckets"] = 99
        snapshot["eval_latency"]["count"] = 99.0
        assert metrics.buckets == 1
        assert metrics.eval_latency.count == 0

    def test_snapshot_is_json_serialisable(self) -> None:
        metrics = ServiceMetrics(buckets=2, evaluations=3)
        metrics.eval_latency.add_ms(1.25)
        text = json.dumps(metrics.to_dict(), sort_keys=True)
        assert json.loads(text)["evaluations"] == 3

    def test_live_engine_snapshot(self) -> None:
        engine = make_engine()
        try:
            service = engine.service_engine
            assert service is not None
            service.register(KSIRQuery(k=2, vector=[1.0, 0.0]), query_id="qa")
            elements, end_time = parse_ingest(ingest_payload(1, element(1, 1, 0)))
            engine.ingest_bucket(elements, end_time)
            snapshot = service.metrics.to_dict()
        finally:
            engine.close()
        assert snapshot["buckets"] == 1
        assert snapshot["opportunities"] >= 1
        json.dumps(snapshot)


class TestTimerSummary:
    def test_empty_stats(self) -> None:
        summary = timer_summary(TimingStats(name="t"))
        assert summary == {
            "count": 0.0,
            "total_ms": 0.0,
            "mean_ms": 0.0,
            "p50_ms": 0.0,
            "p95_ms": 0.0,
            "p99_ms": 0.0,
            "max_ms": 0.0,
        }

    def test_percentiles_from_samples(self) -> None:
        stats = TimingStats(name="t")
        for ms in (1.0, 2.0, 3.0, 4.0, 100.0):
            stats.add_ms(ms)
        summary = timer_summary(stats)
        assert summary["count"] == 5.0
        assert summary["p50_ms"] == 3.0
        assert summary["p99_ms"] == 100.0
        assert summary["max_ms"] == 100.0
