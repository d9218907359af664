"""The bundled stdlib ASGI server over real TCP sockets.

`repro.server.asgi.serve` + the stdlib HTTP/WebSocket clients from
`repro.server.ws_client` give an end-to-end path with zero third-party
dependencies: real HTTP parsing, real RFC 6455 frames, real keep-alive —
the environment `repro-ksir server` runs in when uvicorn is absent.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from server_harness import element, ingest_payload, make_engine

from repro.server.app import create_app
from repro.server.asgi import serve
from repro.server.ws_client import HttpClient, WebSocketClient


def run(coroutine):
    """Drive one async scenario from a synchronous test."""
    return asyncio.run(coroutine)


async def _with_server(scenario) -> None:
    app = create_app(make_engine())
    try:
        async with await serve(app, host="127.0.0.1", port=0) as handle:
            await scenario(handle)
    finally:
        app.close()


class TestHttpOverSockets:
    def test_roundtrip_and_keep_alive(self) -> None:
        async def scenario(handle) -> None:
            async with HttpClient(handle.host, handle.port) as client:
                health = await client.get("/health")
                assert health.status == 200
                assert health.json()["status"] == "ok"

                # Same kept-alive socket serves a POST and another GET.
                created = await client.post(
                    "/queries",
                    {"vector": [1.0, 0.0], "k": 2, "query_id": "qa"},
                )
                assert created.status == 201
                listing = await client.get("/queries")
                assert listing.json()["count"] == 1

        run(_with_server(scenario))

    def test_ingest_then_result(self) -> None:
        async def scenario(handle) -> None:
            async with HttpClient(handle.host, handle.port) as client:
                await client.post(
                    "/queries", {"vector": [1.0, 0.0], "k": 2, "query_id": "qa"}
                )
                ingested = await client.post(
                    "/ingest/bucket", ingest_payload(1, element(1, 1, 0))
                )
                assert ingested.status == 200
                assert ingested.json()["updated"] == ["qa"]
                result = await client.get("/queries/qa/result")
                assert result.json()["result"]["result"]["element_ids"] == [1]

        run(_with_server(scenario))

    def test_error_statuses_over_the_wire(self) -> None:
        async def scenario(handle) -> None:
            async with HttpClient(handle.host, handle.port) as client:
                assert (await client.get("/nope")).status == 404
                bad = await client.post("/queries", {"k": 2})
                assert bad.status == 422
                assert "error" in bad.json()
                assert (await client.delete("/queries/ghost")).status == 404

        run(_with_server(scenario))

    def test_metrics_exposition_served(self) -> None:
        async def scenario(handle) -> None:
            async with HttpClient(handle.host, handle.port) as client:
                await client.get("/health")
                metrics = await client.get("/metrics")
                assert metrics.status == 200
                assert b"ksir_http_requests_total" in metrics.body

        run(_with_server(scenario))


class TestWebSocketOverSockets:
    def test_push_roundtrip(self) -> None:
        async def scenario(handle) -> None:
            async with HttpClient(handle.host, handle.port) as client:
                await client.post(
                    "/queries", {"vector": [1.0, 0.0], "k": 2, "query_id": "qa"}
                )
                ws = await WebSocketClient.connect(
                    handle.host, handle.port, "/ws/queries/qa"
                )
                try:
                    snapshot = await ws.recv_json(timeout=10)
                    assert snapshot["type"] == "snapshot"

                    await client.post(
                        "/ingest/bucket", ingest_payload(1, element(1, 1, 0))
                    )
                    delta = await ws.recv_json(timeout=10)
                    assert delta["type"] == "delta"
                    assert delta["element_ids"] == [1]
                finally:
                    await ws.close()

        run(_with_server(scenario))

    def test_client_text_is_tolerated(self) -> None:
        async def scenario(handle) -> None:
            async with HttpClient(handle.host, handle.port) as client:
                await client.post(
                    "/queries", {"vector": [1.0, 0.0], "k": 1, "query_id": "qa"}
                )
                ws = await WebSocketClient.connect(
                    handle.host, handle.port, "/ws/queries/qa"
                )
                try:
                    await ws.recv_json(timeout=10)  # snapshot
                    # A client frame must not kill the session.
                    await ws.send_text(json.dumps({"type": "ping"}))
                    await client.post(
                        "/ingest/bucket", ingest_payload(1, element(1, 1, 0))
                    )
                    delta = await ws.recv_json(timeout=10)
                    assert delta["type"] == "delta"
                finally:
                    await ws.close()

        run(_with_server(scenario))

    def test_unknown_query_rejected_with_app_close_code(self) -> None:
        async def scenario(handle) -> None:
            ws = await WebSocketClient.connect(
                handle.host, handle.port, "/ws/queries/ghost"
            )
            try:
                message = await ws.recv_json(timeout=10)
                assert message["type"] == "error"
                assert await ws.recv(timeout=10) is None
                assert ws.close_code == 4404
            finally:
                await ws.close()

        run(_with_server(scenario))

    def test_bad_upgrade_path_is_refused(self) -> None:
        async def scenario(handle) -> None:
            # Close-before-accept surfaces as an HTTP refusal, not a 101.
            with pytest.raises(ConnectionError):
                await WebSocketClient.connect(
                    handle.host, handle.port, "/ws/bogus"
                )

        run(_with_server(scenario))

    def test_subscriber_fleet_loses_no_delta_under_rest_load(self) -> None:
        """64 subscribers x 16 queries x 6 buckets beside 8 REST readers.

        Every ``POST /ingest/bucket`` response names the queries it
        re-evaluated, so the push contract is exactly checkable: one delta
        per subscriber per bucket that names its query, nothing otherwise.
        Counts only — nothing here is timed.
        """
        queries = [f"q{index}" for index in range(16)]
        assigned = [queries[index % len(queries)] for index in range(64)]

        async def scenario(handle) -> None:
            control = HttpClient(handle.host, handle.port)
            for index, query_id in enumerate(queries):
                vector = [1.0, 0.0] if index % 2 == 0 else [0.0, 1.0]
                created = await control.post(
                    "/queries", {"vector": vector, "k": 2, "query_id": query_id}
                )
                assert created.status == 201

            sockets = await asyncio.gather(*(
                WebSocketClient.connect(handle.host, handle.port, f"/ws/queries/{query_id}")
                for query_id in assigned
            ))
            for ws in sockets:
                assert (await ws.recv_json(timeout=10))["type"] == "snapshot"
            assert (await control.get("/telemetry")).json()["push"]["subscribers"] == 64

            stop = asyncio.Event()

            async def rest_reader(worker: int) -> int:
                count = 0
                async with HttpClient(handle.host, handle.port) as client:
                    while not stop.is_set():
                        target = queries[(worker + count) % len(queries)]
                        assert (await client.get(f"/queries/{target}/result")).status == 200
                        assert (await client.get("/health")).status == 200
                        count += 2
                return count

            readers = [asyncio.ensure_future(rest_reader(w)) for w in range(8)]
            expected = {query_id: [] for query_id in queries}
            try:
                for bucket in range(1, 7):
                    # Even buckets live purely on topic 0, odd ones on topic 1.
                    response = await control.post("/ingest/bucket", ingest_payload(
                        bucket,
                        element(2 * bucket, bucket, bucket % 2),
                        element(2 * bucket + 1, bucket, bucket % 2),
                    ))
                    assert response.status == 200
                    summary = response.json()
                    for query_id in summary["updated"]:
                        expected[query_id].append(summary["bucket"])
            finally:
                stop.set()
                rest_requests = await asyncio.gather(*readers)
            assert all(count > 0 for count in rest_requests)
            # Past the first evaluation a pure topic-1 bucket never touches a
            # topic-0 query, so "nothing otherwise" is exercised too.
            assert expected["q0"][1:] == [2, 4, 6] and expected["q1"][1:] == [3, 5]

            for ws, query_id in zip(sockets, assigned):
                received = []
                for _ in expected[query_id]:
                    message = await ws.recv_json(timeout=10)
                    assert message["type"] == "delta"
                    received.append(message["bucket"])
                assert received == expected[query_id]
            # ... and nothing else was ever fanned out.
            pushed = (await control.get("/telemetry")).json()["push"]["pushes"]
            assert pushed == sum(len(expected[query_id]) for query_id in assigned)
            await asyncio.gather(*(ws.close() for ws in sockets))
            await control.close()

        run(_with_server(scenario))
