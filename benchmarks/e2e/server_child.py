"""The server process of ``serve_text``: engine + ASGI app + stdlib server.

Started by :mod:`serve` as ``python server_child.py <fd> <seed> <traced>``,
so the system under test shares nothing with the load generator but a TCP
port and one inherited control pipe (``fd``).  The pipe carries
``("ready", port)`` up, and ``"report"`` / ``"stop"`` down; the report
holds what only this process can know —
its own resident set, the engine counters, the buckets on which the
watched standing query was re-evaluated, and (in the traced pass) its
spans.  Everything is built through the public API.
"""

from __future__ import annotations

import asyncio
import gc
import sys
from time import perf_counter
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Dict, List, Optional

if __name__ == "__main__":  # run as a script: repro is not on the path yet
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import common
import gen
import tracing
from repro import (
    EngineConfig,
    InferenceConfig,
    KSIREngine,
    StreamConfig,
)
from repro.kernels import kernel_stats
from repro.server import create_app, serve

#: Out-of-order tolerance in buckets; the generator delays events by less.
ALLOWED_LATENESS = 2
#: The standing query the load generator subscribes to.
WATCHED_QUERY = "q0"
#: The server times the calibration kernel (``common.calibrate``) itself, at
#: most this often and only while no request is in flight: the host's two
#: cores do not slow down together, so the load generator cannot tell how
#: fast the server's is.
CALIBRATION_PERIOD_S = 0.05
#: How long after a response the kernel runs, so the response is on the wire.
CALIBRATION_DELAY_S = 0.003


CONFIG = EngineConfig(
    backend="service",
    processor=common.PROCESSOR,
    streams=StreamConfig(allowed_lateness=ALLOWED_LATENESS),
    inference=InferenceConfig(alpha=0.05, sparsity_threshold=0.05),
)


def main(connection, seed: int, traced: bool) -> None:
    """Process entry point."""
    tracer: Optional[tracing.Tracer] = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    gc.collect()
    rss_before = common.rss_mb()
    engine = KSIREngine(gen.build_topic_model(seed), CONFIG)
    app = create_app(engine)
    watched_buckets: List[int] = []

    def remember(update) -> None:
        if WATCHED_QUERY in update.updated:
            watched_buckets.append(update.bucket)

    engine.service_engine.add_update_listener(remember)

    speed = common.HostSpeed()
    in_flight = 0
    last_sample = 0.0

    def calibrate_if_idle() -> None:
        nonlocal last_sample
        if in_flight == 0 and perf_counter() - last_sample >= CALIBRATION_PERIOD_S:
            speed.sample()
            last_sample = perf_counter()

    async def calibrated_app(scope, receive, send) -> None:
        nonlocal in_flight
        if scope["type"] != "http":
            await app(scope, receive, send)
            return
        in_flight += 1
        try:
            await app(scope, receive, send)
        finally:
            in_flight -= 1
            asyncio.get_running_loop().call_later(CALIBRATION_DELAY_S, calibrate_if_idle)

    def report() -> Dict[str, object]:
        stats = engine.stats()
        service = engine.service_engine
        return {
            "rss_growth_mb": common.rss_mb() - rss_before,
            "watched_buckets": list(watched_buckets),
            "evaluations": stats["evaluations"],
            "reused": stats["reused"],
            "active_count": stats["active_count"],
            "ranked_tuples": service.processor.ranked_lists.total_tuples(),
            "kernels": kernel_stats(),
            "hub_pushes": app.hub.pushes,
            "streams": engine.stream_metrics().to_dict(),
            "calibration_s": list(speed.samples),
            "calibration_at": list(speed.times),
            "spans": list(tracer.spans) if tracer is not None else [],
            "missing_spans": list(tracer.missing) if tracer is not None else [],
        }

    async def run() -> None:
        handle = await serve(calibrated_app)
        loop = asyncio.get_running_loop()
        connection.send(("ready", handle.port))
        try:
            while True:
                message = await loop.run_in_executor(None, connection.recv)
                if message == "report":
                    connection.send(report())
                else:
                    break
        finally:
            await handle.stop()

    try:
        asyncio.run(run())
    except EOFError:  # the load generator went away without saying stop
        pass
    finally:
        app.close()
        connection.close()


if __name__ == "__main__":
    main(Connection(int(sys.argv[1])), int(sys.argv[2]), bool(int(sys.argv[3])))
