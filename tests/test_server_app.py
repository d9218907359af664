"""HTTP surface of the serving tier (repro.server.app) — in-process ASGI.

Driven through :class:`repro.server.testing.TestClient`, so these tests
exercise the exact scope/receive/send messages a production ASGI server
would deliver, without sockets.  A two-topic orthogonal model keeps every
scenario hand-checkable: ``alpha`` elements live purely on topic 0 and
``beta`` elements purely on topic 1.
"""

from __future__ import annotations

import numpy as np
import pytest
from server_harness import element, ingest_payload, make_engine

from repro.api import EngineConfig, KSIREngine
from repro.server.app import KSIRServer, create_app
from repro.server.testing import TestClient
from repro.topics.model import MatrixTopicModel
from repro.topics.vocabulary import Vocabulary


@pytest.fixture()
def app() -> KSIRServer:
    application = create_app(make_engine())
    yield application
    application.close()


@pytest.fixture()
def client(app: KSIRServer) -> TestClient:
    with TestClient(app) as test_client:
        yield test_client


class TestHealthAndStats:
    def test_health(self, client: TestClient) -> None:
        response = client.get("/health")
        assert response.status == 200
        payload = response.json()
        assert payload["status"] == "ok"
        assert payload["backend"] == "service"
        assert payload["standing_queries"] == 0

    def test_stats(self, client: TestClient) -> None:
        response = client.get("/stats")
        assert response.status == 200
        assert "stats" in response.json()

    def test_unknown_path_is_404(self, client: TestClient) -> None:
        assert client.get("/nope").status == 404

    def test_wrong_method_is_405(self, client: TestClient) -> None:
        assert client.request("PUT", "/queries").status == 405


class _FakeSupervisor:
    """Stands in for repro.ha.ClusterSupervisor: only status() is consulted."""

    def __init__(self, healthy: bool = True) -> None:
        self.healthy = healthy

    def status(self) -> dict:
        return {
            "supervised": True,
            "healthy": self.healthy,
            "shards": [
                {"shard_id": 0, "alive": True},
                {"shard_id": 1, "alive": self.healthy},
            ],
        }


class TestProbes:
    def test_healthz_is_alive(self, client: TestClient) -> None:
        response = client.get("/healthz")
        assert response.status == 200
        assert response.json() == {"status": "alive"}

    def test_readyz_without_supervisor(self, client: TestClient) -> None:
        response = client.get("/readyz")
        assert response.status == 200
        payload = response.json()
        assert payload["status"] == "ready"
        assert payload["backend"] == "service"

    def test_readyz_with_healthy_supervisor(self) -> None:
        application = create_app(make_engine(), supervisor=_FakeSupervisor())
        try:
            with TestClient(application) as client:
                assert client.get("/readyz").status == 200
        finally:
            application.close()

    def test_readyz_degraded_when_shard_dead(self) -> None:
        supervisor = _FakeSupervisor(healthy=False)
        application = create_app(make_engine(), supervisor=supervisor)
        try:
            with TestClient(application) as client:
                response = client.get("/readyz")
                assert response.status == 503
                payload = response.json()
                assert payload["status"] == "degraded"
                assert payload["dead_shards"] == [1]
                # Liveness is unaffected: the process still serves.
                assert client.get("/healthz").status == 200
        finally:
            application.close()

    def test_telemetry_includes_supervisor_status(self) -> None:
        application = create_app(make_engine(), supervisor=_FakeSupervisor())
        try:
            with TestClient(application) as client:
                payload = client.get("/telemetry").json()
                assert payload["supervisor"]["supervised"] is True
                assert payload["supervisor"]["healthy"] is True
        finally:
            application.close()


class TestQueryCrud:
    def test_register_list_get_delete(self, client: TestClient) -> None:
        created = client.post(
            "/queries", {"keywords": ["alpha"], "k": 2, "query_id": "q-alpha"}
        )
        assert created.status == 201
        body = created.json()["query"]
        assert body["query_id"] == "q-alpha"
        # Keyword inference may smooth mass across topics; the keyword's
        # own topic must dominate the support either way.
        assert 0 in body["topics"]

        listing = client.get("/queries")
        assert listing.status == 200
        assert listing.json()["count"] == 1

        fetched = client.get("/queries/q-alpha")
        assert fetched.status == 200
        assert fetched.json()["query"]["result"] is None

        deleted = client.delete("/queries/q-alpha")
        assert deleted.status == 200
        assert deleted.json() == {"removed": True, "query_id": "q-alpha"}
        assert client.get("/queries/q-alpha").status == 404
        assert client.delete("/queries/q-alpha").status == 404

    def test_register_by_vector(self, client: TestClient) -> None:
        created = client.post("/queries", {"vector": [0.0, 1.0], "k": 1})
        assert created.status == 201
        assert created.json()["query"]["topics"] == [1]

    def test_register_rejects_malformed(self, client: TestClient) -> None:
        assert client.post("/queries", {"k": 2}).status == 422
        assert (
            client.post(
                "/queries", {"keywords": ["a"], "vector": [1.0], "k": 2}
            ).status
            == 422
        )
        assert client.post("/queries", {"keywords": ["a"]}).status == 422
        assert (
            client.post("/queries", {"keywords": ["a"], "k": 2, "bogus": 1}).status
            == 422
        )
        assert client.post("/queries", {"keywords": ["a"], "k": 0}).status == 422

    def test_duplicate_query_id_conflicts(self, client: TestClient) -> None:
        assert (
            client.post(
                "/queries", {"vector": [1.0, 0.0], "k": 1, "query_id": "dup"}
            ).status
            == 201
        )
        second = client.post(
            "/queries", {"vector": [1.0, 0.0], "k": 1, "query_id": "dup"}
        )
        assert second.status in (400, 409)

    def test_result_of_unknown_query_is_404(self, client: TestClient) -> None:
        assert client.get("/queries/unknown/result").status == 404

    @pytest.mark.parametrize("query_id", ["", "a/b"], ids=["empty", "slash"])
    def test_unroutable_query_id_is_refused(self, client: TestClient, query_id) -> None:
        """``/queries/{query_id}`` matches one non-empty segment: such an id
        used to register a standing query no route could read or delete."""
        response = client.post(
            "/queries", {"vector": [1.0, 0.0], "k": 1, "query_id": query_id}
        )
        assert response.status == 422
        assert "query_id" in response.json()["error"]
        assert client.get("/health").json()["standing_queries"] == 0

    def test_boolean_k_is_refused(self, client: TestClient) -> None:
        """``int(True)`` is 1, so ``k: true`` used to register a k = 1 query."""
        for route in ("/query", "/queries"):
            response = client.post(route, {"vector": [1.0, 0.0], "k": True})
            assert response.status == 422, route
            assert "'k' must be an integer" in response.json()["error"]
        assert client.get("/health").json()["standing_queries"] == 0


class TestIngestAndQuery:
    def test_ingest_reports_updated_queries(self, client: TestClient) -> None:
        client.post("/queries", {"vector": [1.0, 0.0], "k": 2, "query_id": "qa"})
        response = client.post(
            "/ingest/bucket", ingest_payload(1, element(1, 1, 0))
        )
        assert response.status == 200
        summary = response.json()
        assert summary["ingested"] == 1
        assert summary["bucket"] == 1
        assert summary["updated"] == ["qa"]

        result = client.get("/queries/qa/result")
        assert result.status == 200
        standing = result.json()["result"]
        assert standing["result"]["element_ids"] == [1]
        assert standing["fresh"] is True

    def test_ingest_skips_unaffected_queries(self, client: TestClient) -> None:
        client.post("/queries", {"vector": [1.0, 0.0], "k": 2, "query_id": "qa"})
        client.post("/ingest/bucket", ingest_payload(1, element(1, 1, 0)))
        # A pure topic-1 bucket cannot change a topic-0 answer.
        response = client.post(
            "/ingest/bucket", ingest_payload(2, element(2, 2, 1))
        )
        assert response.json()["updated"] == []

    @pytest.mark.parametrize("vector", [["nan", 1], ["inf", 0]])
    def test_non_finite_vector_is_client_error(self, client: TestClient, vector) -> None:
        client.post("/ingest/bucket", ingest_payload(1, element(1, 1, 0)))
        response = client.post("/query", {"vector": vector, "k": 1})
        assert response.status == 400
        assert "finite" in response.json()["error"]
        assert client.post("/queries", {"vector": vector, "k": 1}).status == 400
        assert client.get("/health").json()["standing_queries"] == 0

    @pytest.mark.parametrize("algorithm", ["mtts", "mttd"])
    def test_nan_epsilon_is_client_error(self, client: TestClient, algorithm) -> None:
        client.post("/ingest/bucket", ingest_payload(1, element(1, 1, 0)))
        response = client.post(
            "/query",
            {"vector": [1.0, 0.0], "k": 1, "algorithm": algorithm, "epsilon": "nan"},
        )
        assert response.status == 400

    def test_ad_hoc_query(self, client: TestClient) -> None:
        client.post("/ingest/bucket", ingest_payload(1, element(1, 1, 0)))
        response = client.post("/query", {"keywords": ["alpha"], "k": 1})
        assert response.status == 200
        assert response.json()["result"]["element_ids"] == [1]

    def test_ingest_rejects_malformed(self, client: TestClient) -> None:
        assert client.post("/ingest/bucket", {"elements": []}).status == 422
        assert (
            client.post(
                "/ingest/bucket", {"end_time": 1, "elements": [{"nope": 1}]}
            ).status
            == 422
        )

    def test_infinite_reference_is_client_error(self, client: TestClient) -> None:
        event = {**element(1, 1, 0), "references": [float("inf")]}
        assert client.post("/ingest", {"events": [event]}).status == 422
        assert client.post("/ingest/bucket", ingest_payload(1, event)).status == 422

    def test_string_tokens_are_client_error(self, client: TestClient) -> None:
        event = {"element_id": 1, "timestamp": 1, "tokens": "abc"}
        response = client.post("/ingest", {"events": [event]})
        assert response.status == 422
        assert "'tokens' must be a list of strings" in response.json()["error"]
        assert client.post("/ingest/bucket", ingest_payload(1, event)).status == 422

    def test_non_monotonic_ingest_is_client_error(self, client: TestClient) -> None:
        assert (
            client.post("/ingest/bucket", ingest_payload(5, element(1, 5, 0))).status
            == 200
        )
        response = client.post(
            "/ingest/bucket", ingest_payload(3, element(2, 3, 0))
        )
        assert response.status in (400, 422)


def _out_of_range_requests(value: object):
    """(route, body) pairs that put ``value`` in one integer field each."""
    bad_element = {**element(1, 1, 0)}
    return {
        "k": [
            ("/query", {"vector": [1.0, 0.0], "k": value}),
            ("/queries", {"vector": [1.0, 0.0], "k": value}),
        ],
        "ttl_buckets": [
            ("/queries", {"vector": [1.0, 0.0], "k": 1, "ttl_buckets": value}),
        ],
        "end_time": [("/ingest/bucket", {"end_time": value, "elements": []})],
        "element_id": [
            ("/ingest/bucket", ingest_payload(1, {**bad_element, "element_id": value})),
            ("/ingest", {"events": [{**bad_element, "element_id": value}]}),
        ],
        "timestamp": [
            ("/ingest/bucket", ingest_payload(1, {**bad_element, "timestamp": value})),
            ("/ingest", {"events": [{**bad_element, "timestamp": value}]}),
        ],
    }


class TestOutOfRangeIntegers:
    """Integer fields are finite and within int64, the width of the
    engine's timestamps and element ids: ``inf`` used to escape as ``OverflowError`` (an uncounted 500), and a
    ``2**70`` timestamp was accepted and later sealed buckets toward it."""

    @pytest.mark.parametrize("value", [float("inf"), 2**70], ids=["inf", "2**70"])
    @pytest.mark.parametrize(
        "field", ["k", "ttl_buckets", "end_time", "element_id", "timestamp"]
    )
    def test_is_unprocessable_and_counted(self, app: KSIRServer, field, value) -> None:
        with TestClient(app) as client:
            for route, body in _out_of_range_requests(value)[field]:
                response = client.post(route, body)
                assert response.status == 422, (route, response.body)
                assert field in response.json()["error"]
                counted = app.telemetry.counters()["http_requests"]
                assert counted[f"POST {route}|422"] >= 1
            assert client.get("/health").json()["standing_queries"] == 0
            assert client.get("/stats").json()["stats"]["buckets_processed"] == 0


class TestBadTopicDistribution:
    """An element's topic distribution is ``num_topics`` finite
    probabilities: ``[5, 0]`` used to lift its parent's answer score,
    ``[1e308, 0]`` to overflow it, and a wrong length posted to ``/ingest``
    to fail the next client's request and lose the bucket it sealed."""

    @pytest.mark.parametrize(
        "distribution",
        [[5.0, 0.0], [1e308, 0.0], [1.0, 0.0, 0.0], [-0.5, 1.0], ["nan", 1.0]],
        ids=["above-one", "huge", "wrong-length", "negative", "nan"],
    )
    def test_is_refused_and_changes_nothing(self, app: KSIRServer, distribution) -> None:
        bad = {**element(2, 2, 0), "references": [1], "topic_distribution": distribution}
        with TestClient(app) as client:
            client.post("/ingest/bucket", ingest_payload(1, element(1, 1, 0)))
            stats = app.engine.stats()
            for route, body in (
                ("/ingest", {"events": [element(3, 2, 1), bad]}),
                ("/ingest/bucket", ingest_payload(2, element(3, 2, 1), bad)),
            ):
                response = client.post(route, body)
                assert 400 <= response.status < 500, route
                assert "topic distribution" in response.json()["error"], route
                assert app.engine.stats() == stats, route
                assert app.engine.stream_metrics().events_total == 0, route
            # The next request ingests as if the refused ones never came.
            response = client.post(
                "/ingest", {"events": [element(3, 2, 1), element(4, 3, 1)]}
            )
            assert response.status == 200
            assert app.engine.stats()["elements_processed"] == 2


class TestCheckpoint:
    def test_save_and_load_roundtrip(self, client: TestClient, tmp_path) -> None:
        client.post("/queries", {"vector": [1.0, 0.0], "k": 2, "query_id": "qa"})
        client.post("/ingest/bucket", ingest_payload(1, element(1, 1, 0)))
        path = str(tmp_path / "ckpt")

        saved = client.post("/checkpoint/save", {"path": path})
        assert saved.status == 200

        client.post("/ingest/bucket", ingest_payload(2, element(2, 2, 0)))
        assert client.get("/health").json()["buckets_processed"] == 2

        restored = client.post("/checkpoint/load", {"path": path})
        assert restored.status == 200
        assert restored.json()["buckets_processed"] == 1
        assert restored.json()["standing_queries"] == 1
        # The restored engine keeps serving: the standing query is intact.
        assert client.get("/queries/qa").status == 200

    def test_load_missing_path_is_client_error(self, client: TestClient) -> None:
        response = client.post("/checkpoint/load", {"path": "/nonexistent/ckpt"})
        assert response.status in (400, 404)

    def test_save_requires_path(self, client: TestClient) -> None:
        assert client.post("/checkpoint/save", {}).status == 422


class TestMetricsAndTelemetry:
    def test_metrics_exposition(self, client: TestClient) -> None:
        client.get("/health")
        client.post("/queries", {"vector": [1.0, 0.0], "k": 1, "query_id": "qa"})
        client.post("/ingest/bucket", ingest_payload(1, element(1, 1, 0)))

        response = client.get("/metrics")
        assert response.status == 200
        assert response.headers["content-type"].startswith("text/plain")
        text = response.body.decode()
        assert "ksir_http_requests_total" in text
        assert 'endpoint="GET /health",status="200"' in text
        assert "ksir_service_evaluations" in text

        # The kernel layer exports under its own namespace, not flattened
        # into ksir_engine_*: per-kernel counters, and no backend gauge,
        # since NumPy is the only one.
        assert "ksir_kernel_backend" not in text
        assert 'ksir_kernel_calls_total{kernel="ranked_merge"}' in text
        assert 'ksir_kernel_time_ns_total{kernel="window_scan"}' in text
        assert "ksir_engine_kernels" not in text

        # Histogram buckets must be cumulative and end at the total count.
        rows = [
            line for line in text.splitlines()
            if line.startswith(
                'ksir_http_request_duration_ms_bucket{endpoint="GET /health"'
            )
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in rows]
        assert counts == sorted(counts)
        assert len(rows) == 13  # 12 bounds plus +Inf, empty buckets included
        assert rows[-1].split("le=")[1].startswith('"+Inf"')
        count_line = next(
            line for line in text.splitlines()
            if line.startswith(
                'ksir_http_request_duration_ms_count{endpoint="GET /health"'
            )
        )
        assert counts[-1] == int(count_line.rsplit(" ", 1)[1])
        assert 'ksir_http_request_duration_ms_sum{endpoint="GET /health"}' in text

        # The WebSocket counters are the hub's; the counters that repeated
        # other ones, or only made sense across restarts, are gone.
        values = dict(
            line.rsplit(" ", 1) for line in text.splitlines()
            if line.startswith("ksir_ws_")
        )
        assert values == {
            "ksir_ws_sessions_total": "0",
            "ksir_ws_pushes_total": "0",
            "ksir_ws_dropped_total": "0",
            "ksir_ws_subscribers": "0",
        }
        for gone in ("elements_ingested", "ws_pushes", "ws_connects", "restarts"):
            assert f"ksir_runtime_{gone}" not in text

    def test_telemetry_document(self, client: TestClient) -> None:
        client.get("/health")
        response = client.get("/telemetry")
        assert response.status == 200
        payload = response.json()
        assert set(payload) == {
            "engine",
            "service",
            "streams",
            "push",
            "runtime",
            "supervisor",
        }
        assert payload["push"] == {
            "subscribers": 0, "sessions": 0, "pushes": 0, "dropped": 0,
        }
        assert payload["supervisor"] is None  # no supervised cluster attached
        assert set(payload["runtime"]) == {"counters", "latency"}
        assert payload["runtime"]["counters"]["http_requests"] == {
            "GET /health|200": 1
        }
        assert set(payload["runtime"]["latency"]["GET /health"]) == {
            "buckets", "total_ms", "count", "mean_ms", "p50_ms", "p95_ms",
        }

    def test_latency_recorded_per_endpoint(self, app: KSIRServer) -> None:
        with TestClient(app) as client:
            client.get("/health")
            client.get("/health")
        histograms = app.telemetry.histograms()
        assert histograms["GET /health"]["count"] == 2


class TestConstruction:
    def test_requires_service_backend(self) -> None:
        vocabulary = Vocabulary(["alpha", "beta"])
        model = MatrixTopicModel(
            vocabulary, np.array([[1.0, 0.0], [0.0, 1.0]]), normalize=False
        )
        engine = KSIREngine(model, EngineConfig(backend="local"))
        try:
            with pytest.raises(ValueError, match="service"):
                create_app(engine)
        finally:
            engine.close()
