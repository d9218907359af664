"""WebSocket push channel of the serving tier.

The contract under test: a subscriber receives a delta within the same
ingest call whenever the serving engine re-evaluated its standing query —
and receives *nothing* for a bucket whose dirty topics miss the query's.  The orthogonal two-topic model makes "irrelevant" exact: a
pure topic-1 bucket can never touch a pure topic-0 query.
"""

from __future__ import annotations

import asyncio

import pytest
from server_harness import element, ingest_payload, make_engine

from repro.server.app import KSIRServer, create_app
from repro.server.testing import TestClient


@pytest.fixture()
def app() -> KSIRServer:
    application = create_app(make_engine())
    yield application
    application.close()


@pytest.fixture()
def client(app: KSIRServer) -> TestClient:
    with TestClient(app) as test_client:
        yield test_client


class TestPushDelivery:
    def test_delta_within_one_bucket_and_silence_on_noop(
        self, client: TestClient
    ) -> None:
        client.post("/queries", {"vector": [1.0, 0.0], "k": 2, "query_id": "qa"})
        with client.websocket("/ws/queries/qa") as ws:
            assert ws.accepted
            snapshot = ws.receive_json()
            assert snapshot["type"] == "snapshot"
            assert snapshot["result"] is None

            # Result-changing bucket: the delta arrives for that bucket.
            response = client.post(
                "/ingest/bucket", ingest_payload(1, element(1, 1, 0))
            )
            assert response.json()["updated"] == ["qa"]
            delta = ws.receive_json(timeout=10)
            assert delta["type"] == "delta"
            assert delta["query_id"] == "qa"
            assert delta["bucket"] == 1
            assert delta["changed"] is True
            assert delta["element_ids"] == [1]
            assert delta["added"] == [1]
            assert delta["removed"] == []

            # No-op bucket (pure topic 1): provably no push.
            response = client.post(
                "/ingest/bucket", ingest_payload(2, element(2, 2, 1))
            )
            assert response.json()["updated"] == []
            assert ws.expect_nothing(timeout=0.5)

            # A further relevant bucket pushes again with a true delta.
            client.post("/ingest/bucket", ingest_payload(3, element(3, 3, 0)))
            delta = ws.receive_json(timeout=10)
            assert delta["bucket"] == 3
            assert set(delta["added"]).issubset({3})

    def test_snapshot_carries_existing_result(self, client: TestClient) -> None:
        client.post("/queries", {"vector": [1.0, 0.0], "k": 1, "query_id": "qa"})
        client.post("/ingest/bucket", ingest_payload(1, element(1, 1, 0)))
        with client.websocket("/ws/queries/qa") as ws:
            snapshot = ws.receive_json()
            assert snapshot["type"] == "snapshot"
            assert snapshot["result"]["result"]["element_ids"] == [1]

    def test_two_subscribers_both_receive(self, client: TestClient) -> None:
        client.post("/queries", {"vector": [1.0, 0.0], "k": 1, "query_id": "qa"})
        with client.websocket("/ws/queries/qa") as first:
            with client.websocket("/ws/queries/qa") as second:
                first.receive_json()
                second.receive_json()
                client.post("/ingest/bucket", ingest_payload(1, element(1, 1, 0)))
                assert first.receive_json(timeout=10)["type"] == "delta"
                assert second.receive_json(timeout=10)["type"] == "delta"

    def test_subscriber_counted_in_listing(self, client: TestClient) -> None:
        client.post("/queries", {"vector": [1.0, 0.0], "k": 1, "query_id": "qa"})
        with client.websocket("/ws/queries/qa") as ws:
            ws.receive_json()
            entry = client.get("/queries/qa").json()["query"]
            assert entry["subscribers"] == 1
        entry = client.get("/queries/qa").json()["query"]
        assert entry["subscribers"] == 0


class TestSessionLifecycle:
    def test_unknown_query_closes_4404(self, client: TestClient) -> None:
        with client.websocket("/ws/queries/ghost") as ws:
            message = ws.receive_json()
            assert message["type"] == "error"
            assert ws.receive_json() is None
            assert ws.close_code == 4404

    def test_bad_path_closes_without_accept(self, client: TestClient) -> None:
        with client.websocket("/ws/bogus") as ws:
            assert not ws.accepted
            assert ws.close_code == 4400

    def test_unregister_notifies_and_closes(self, client: TestClient) -> None:
        client.post("/queries", {"vector": [1.0, 0.0], "k": 1, "query_id": "qa"})
        with client.websocket("/ws/queries/qa") as ws:
            ws.receive_json()
            client.delete("/queries/qa")
            farewell = ws.receive_json(timeout=10)
            assert farewell["type"] == "unregistered"
            assert ws.receive_json(timeout=10) is None
            assert ws.close_code == 1000

    def test_ttl_expiry_notifies(self, client: TestClient) -> None:
        client.post("/queries", {
            "vector": [1.0, 0.0], "k": 1, "query_id": "qa", "ttl_buckets": 1,
        })
        with client.websocket("/ws/queries/qa") as ws:
            ws.receive_json()
            client.post("/ingest/bucket", ingest_payload(1, element(1, 1, 0)))
            ws.receive_json(timeout=10)  # the bucket-1 delta
            client.post("/ingest/bucket", ingest_payload(2, element(2, 2, 0)))
            farewell = ws.receive_json(timeout=10)
            assert farewell["type"] == "expired"

    def test_session_stats_recorded(self, app: KSIRServer) -> None:
        with TestClient(app) as client:
            client.post("/queries", {"vector": [1.0, 0.0], "k": 1, "query_id": "qa"})
            with client.websocket("/ws/queries/qa") as ws:
                ws.receive_json()
                client.post("/ingest/bucket", ingest_payload(1, element(1, 1, 0)))
                ws.receive_json(timeout=10)
        assert app.hub.sessions == 1
        assert app.hub.subscriber_count() == 0  # the session closed
        assert app.hub.pushes >= 1
        assert app.hub.dropped == 0

    def test_slow_consumer_drops_are_counted(self) -> None:
        """A subscriber that never reads, behind a one-message queue, keeps
        only the latest of three deltas: the hub counts the two it dropped,
        and ``/metrics`` and ``/telemetry`` report that count."""
        application = create_app(make_engine(), push_queue_size=1)
        never_run = asyncio.new_event_loop()
        try:
            with TestClient(application) as client:
                client.post(
                    "/queries", {"vector": [1.0, 0.0], "k": 1, "query_id": "qa"}
                )
                subscription = application.hub.subscribe("qa", never_run)
                for step in (1, 2, 3):
                    client.post(
                        "/ingest/bucket", ingest_payload(step, element(step, step, 0))
                    )
                # Run the three queued puts, and nothing that would read.
                never_run.run_until_complete(asyncio.sleep(0))
                dropped = application.hub.dropped
                assert dropped >= 2
                assert subscription.queue.qsize() == 1
                assert client.get("/telemetry").json()["push"]["dropped"] == dropped
                metrics = client.get("/metrics").body.decode()
                assert f"ksir_ws_dropped_total {dropped}" in metrics
        finally:
            never_run.close()
            application.close()
