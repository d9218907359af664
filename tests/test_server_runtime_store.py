"""The serving tier's runtime telemetry: counts held in the process.

:class:`repro.server.metrics.HttpTelemetry` keeps the request counters
and the per-endpoint latency histograms, the :class:`repro.server.hub.PushHub`
the WebSocket session totals.  Nothing outlives the process: a new server
starts from zero, which Prometheus handles for a counter.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.server.hub import PushHub
from repro.server.metrics import LATENCY_BUCKETS_MS, HttpTelemetry


class TestCounters:
    def test_increment_visible_through_buffer(self) -> None:
        """An increment is visible to the very next read."""
        telemetry = HttpTelemetry()
        telemetry.increment("http_requests", "GET /health|200")
        telemetry.increment("http_requests", "GET /health|200", by=2)
        telemetry.increment("http_requests", "POST /queries|201")
        counters = telemetry.counters()
        assert counters["http_requests"]["GET /health|200"] == 3
        assert counters["http_requests"]["POST /queries|201"] == 1

    def test_memory_store_is_ephemeral(self) -> None:
        """Counts live in one object: a new one starts from zero."""
        telemetry = HttpTelemetry()
        telemetry.increment("x")
        telemetry.observe_latency("GET /health", 1.0)
        assert telemetry.counters()["x"][""] == 1
        fresh = HttpTelemetry()
        assert fresh.counters() == {}
        assert fresh.histograms() == {}


class TestLatencyHistograms:
    def test_observations_land_in_log_spaced_buckets(self) -> None:
        telemetry = HttpTelemetry()
        telemetry.observe_latency("GET /health", 0.4)     # le=1
        telemetry.observe_latency("GET /health", 3.0)     # le=5
        telemetry.observe_latency("GET /health", 5.0)     # le=5: bounds are inclusive
        telemetry.observe_latency("GET /health", 900.0)   # le=1000
        telemetry.observe_latency("GET /health", 99999.0)  # +Inf
        histogram = telemetry.histograms()["GET /health"]
        assert histogram["count"] == 5
        assert histogram["buckets"] == {
            "1": 1, "2": 0, "5": 2, "10": 0, "25": 0, "50": 0, "100": 0,
            "250": 0, "500": 0, "1000": 1, "2500": 0, "10000": 0, "+Inf": 1,
        }
        assert list(histogram["buckets"])[:-1] == [f"{b:g}" for b in LATENCY_BUCKETS_MS]
        assert histogram["total_ms"] > 100_000
        assert histogram["mean_ms"] == histogram["total_ms"] / 5

    def test_percentile_estimates_are_ordered(self) -> None:
        telemetry = HttpTelemetry()
        for ms in (1.5, 2.5, 3.0, 40.0, 600.0):
            telemetry.observe_latency("POST /ingest/bucket", ms)
        histogram = telemetry.histograms()["POST /ingest/bucket"]
        assert 0.0 < histogram["p50_ms"] <= histogram["p95_ms"]
        assert histogram["p95_ms"] <= max(LATENCY_BUCKETS_MS)

    def test_percentile_interpolates_from_the_true_lower_bound(self) -> None:
        """1 request at 0.5 ms and 9 at 40 ms: the median lies in
        ``(25, 50]``, so its estimate does too.  Interpolating from the
        previous *observed* bound (1 ms) used to put p50 at 22.8 and p95
        at 47.3; Prometheus' convention gives 25 + 25·4/9 and 25 + 25·8.5/9.
        """
        telemetry = HttpTelemetry()
        telemetry.observe_latency("GET /stats", 0.5)
        for _ in range(9):
            telemetry.observe_latency("GET /stats", 40.0)
        histogram = telemetry.histograms()["GET /stats"]
        assert 25.0 < histogram["p50_ms"] <= 50.0
        assert histogram["p50_ms"] == pytest.approx(25.0 + 25.0 * 4 / 9)
        assert histogram["p95_ms"] == pytest.approx(25.0 + 25.0 * 8.5 / 9)

    def test_a_rank_in_the_overflow_bucket_reports_the_highest_bound(self) -> None:
        telemetry = HttpTelemetry()
        telemetry.observe_latency("GET /stats", 20_000.0)
        histogram = telemetry.histograms()["GET /stats"]
        assert histogram["p50_ms"] == histogram["p95_ms"] == max(LATENCY_BUCKETS_MS)


class TestWebSocketSessions:
    def test_session_lifecycle_recorded(self) -> None:
        """The hub counts every session it opened; the live ones are its
        subscribers."""
        loop = asyncio.new_event_loop()
        try:
            hub = PushHub()
            first = hub.subscribe("qa", loop)
            hub.subscribe("qb", loop)
            hub.unsubscribe(first)
            hub.unsubscribe(first)  # idempotent
            assert hub.sessions == 2
            assert hub.subscriber_count() == 1
            assert hub.subscriber_count("qa") == 0
        finally:
            loop.close()


class TestSnapshot:
    def test_snapshot_document_shape(self) -> None:
        telemetry = HttpTelemetry()
        telemetry.increment("http_requests", "GET /health|200")
        telemetry.observe_latency("GET /health", 1.0)
        snapshot = telemetry.snapshot()
        assert set(snapshot) == {"counters", "latency"}
        assert snapshot["counters"] == {"http_requests": {"GET /health|200": 1}}
        assert set(snapshot["latency"]["GET /health"]) == {
            "buckets", "total_ms", "count", "mean_ms", "p50_ms", "p95_ms",
        }
        assert snapshot["latency"]["GET /health"]["count"] == 1


class TestThreadSafety:
    def test_concurrent_writers_lose_nothing(self) -> None:
        telemetry = HttpTelemetry()
        per_thread = 500

        def work() -> None:
            for _ in range(per_thread):
                telemetry.increment("hits")
                telemetry.observe_latency("GET /health", 1.0)
                telemetry.histograms()  # a concurrent reader

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert telemetry.counters()["hits"][""] == 4 * per_thread
        histogram = telemetry.histograms()["GET /health"]
        assert histogram["count"] == 4 * per_thread
        assert histogram["buckets"]["1"] == 4 * per_thread
