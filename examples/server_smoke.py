"""End-to-end smoke test of a running `repro-ksir server` instance.

Drives a live server over real sockets with the bundled stdlib clients
(no third-party HTTP or WebSocket library needed): registers a standing
query, subscribes over WebSocket, ingests one real bucket of the tiny
profile's stream, and asserts the delta push plus the Prometheus
exposition.  CI boots `repro-ksir server --profile tiny` and runs this
against it; it works the same against the app hosted by any ASGI server.

Usage::

    repro-ksir server --profile tiny --port 8000 &
    python examples/server_smoke.py --port 8000
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time

from repro.datasets.synthetic import SyntheticStreamGenerator
from repro.server.json_codec import element_to_json
from repro.server.ws_client import HttpClient, WebSocketClient


async def wait_until_up(host: str, port: int, deadline_s: float = 30.0) -> None:
    """Poll ``/health`` until the server answers (or the deadline passes)."""
    started = time.monotonic()
    while True:
        try:
            async with HttpClient(host, port) as client:
                response = await client.get("/health")
            if response.status == 200:
                return
        except OSError:
            pass
        if time.monotonic() - started > deadline_s:
            raise TimeoutError(f"server on {host}:{port} never became healthy")
        await asyncio.sleep(0.5)


async def smoke(host: str, port: int, profile: str, seed: int) -> None:
    await wait_until_up(host, port)
    dataset = SyntheticStreamGenerator.from_profile(profile, seed=seed).generate()
    num_topics = dataset.topic_model.num_topics
    bucket_length = 900
    buckets = iter(dataset.stream.buckets(bucket_length))

    async with HttpClient(host, port) as client:
        health = await client.get("/health")
        assert health.json()["backend"] == "service", health.body

        vector = [0.0] * num_topics
        vector[0] = 1.0
        created = await client.post(
            "/queries", {"vector": vector, "k": 5, "query_id": "smoke"}
        )
        assert created.status == 201, created.body
        listing = await client.get("/queries")
        assert listing.json()["count"] >= 1, listing.body

        ws = await WebSocketClient.connect(host, port, "/ws/queries/smoke")
        try:
            snapshot = await ws.recv_json(timeout=10)
            assert snapshot["type"] == "snapshot", snapshot

            # Replay real buckets until one re-evaluates the standing
            # query; the freshly registered query is pending, so the very
            # first bucket evaluates it.
            delta = None
            for bucket in buckets:
                payload = {
                    "end_time": int(bucket.end_time),
                    "elements": [element_to_json(e) for e in bucket.elements],
                }
                ingested = await client.post("/ingest/bucket", payload)
                assert ingested.status == 200, ingested.body
                if "smoke" in ingested.json()["updated"]:
                    delta = await ws.recv_json(timeout=10)
                    break
            assert delta is not None, "no bucket updated the standing query"
            assert delta["type"] == "delta", delta
            assert delta["query_id"] == "smoke", delta
        finally:
            await ws.close()

        metrics = await client.get("/metrics")
        assert metrics.status == 200
        body = metrics.body.decode()
        assert "ksir_http_requests_total" in body
        assert "ksir_ws_sessions_total" in body

        telemetry = await client.get("/telemetry")
        assert telemetry.json()["push"]["pushes"] >= 1, telemetry.body

    print("server smoke OK: register + WS delta push + metrics exposition")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000)
    parser.add_argument("--profile", default="tiny")
    parser.add_argument("--seed", type=int, default=2019)
    args = parser.parse_args()
    asyncio.run(smoke(args.host, args.port, args.profile, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
