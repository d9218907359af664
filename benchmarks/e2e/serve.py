"""The open-loop workload ``serve_text``: raw events into a server process.

One asyncio thread is the whole load generator: one keep-alive HTTP
connection and one WebSocket.  Phases of the timed part, in order:

1. **paced** — ``POST /ingest`` of one bucket's worth of raw-token events
   (arrival order, 10 % held back by up to 2 buckets, cut in the middle of
   a bucket: see ``LEAD_IN``) every ``1/POST_RATE`` seconds, whatever the
   server does.  A POST is timed from when it was *due*; ``push_ms`` is the
   WebSocket delta's receive time minus the due time of the POST whose
   events sealed that bucket.  ``bucket_ms`` is the POST's own round trip.
   Both are reported as the median of ``PACED_SEGMENTS`` consecutive runs.
2. **saturation** — POSTs back to back.  ``ingest_eps`` is events ÷ summed
   round trip over the POSTs of both phases: one connection carries one POST
   at a time, so a round trip is service time in either phase, and 40
   back-to-back POSTs alone last a second, too short to be steady.
3. **ad-hoc** — ``POST /query`` back to back on the now-quiet window;
   ``query_ms``.

The prefill goes through ``POST /ingest/bucket`` with pre-inferred vectors
and before any standing query exists, so set-up costs bucket ingest only;
it ends with the half-bucket lead-in through ``POST /ingest``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import multiprocessing
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional, Tuple

import numpy as np

import common
import gen
import server_child
import tracing
from repro.server.ws_client import HttpClient, WebSocketClient

HOST = "127.0.0.1"
#: Fixed arrival rate of the paced phase, about 50 % of the measured capacity
#: of the reference box (a 25-event POST takes ~32 ms of service).
POST_RATE = 16.0
PACED_SHARE = 0.8
SATURATION_POSTS_PER_SECOND = 2.5
#: Twice what the closed loops ask: on the quiet window nothing is cold, the
#: p95 is set by the few costliest query classes, and 300 queries held too
#: few of them (p95 25-46 ms across seeds).  512 = 16 blocks of the mix in 20 s.
QUERIES_PER_SECOND = 25.6
#: The paced phase is cut into this many consecutive runs of POSTs and the
#: median run's p50 and p95 are reported.  About one pass in five meets a host
#: stall of a few hundred ms; in an open loop that delays the next twenty
#: POSTs too, more than the 5 % a whole-phase p95 can absorb (46 ms, then
#: 283 ms), but not more than two runs of five.
PACED_SEGMENTS = 5
LATE_SHARE = 0.10
SHAPE = gen.TWITTER_SERVED
#: Events sent during set-up, half a bucket's worth, so that every timed POST
#: runs from the middle of one bucket to the middle of the next and its events
#: seal exactly one bucket.  POSTs cut at the bucket boundary seal none, one or
#: two depending on a few delayed events, 3 to 7 % of them two: a p95 on the
#: edge between two modes, which one seed put at 47 ms and the next at 63 ms.
LEAD_IN = SHAPE.per_bucket // 2


@dataclass
class _Server:
    process: subprocess.Popen
    connection: object
    port: int

    def report(self) -> Dict[str, object]:
        self.connection.send("report")
        return self.connection.recv()

    def stop(self, check: Optional[common.Checker] = None) -> None:
        """Ask the server to end, wait for it, kill it if it will not."""
        if self in _RUNNING:
            _RUNNING.remove(self)
        try:
            self.connection.send("stop")
        except (BrokenPipeError, OSError):
            pass
        try:
            exit_code: Optional[int] = self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            exit_code = None
            self.process.kill()
            self.process.wait()
        if check is not None:
            check.ok(exit_code == 0, f"server process ended with exit code {exit_code}")
        self.connection.close()


#: Servers started and not yet stopped; ``run`` stops them on every way out.
_RUNNING: List[_Server] = []


def _start_server(seed: int, traced: bool) -> _Server:
    # A plain child process with one inherited socket as its control pipe.
    # ``multiprocessing.Process`` with the spawn method would do, but it also
    # starts a resource-tracker process that nobody waits for and that is
    # still there, for a moment, after the benchmark has exited.
    parent_end, child_end = multiprocessing.Pipe()
    try:
        process = subprocess.Popen(
            [
                sys.executable, server_child.__file__,
                str(child_end.fileno()), str(seed), str(int(traced)),
            ],
            pass_fds=[child_end.fileno()],
            stdin=subprocess.DEVNULL,
        )
    finally:
        child_end.close()
    server = _Server(process, parent_end, 0)
    _RUNNING.append(server)
    if not parent_end.poll(60):
        raise RuntimeError("the server process did not come up within 60 s")
    _, port = parent_end.recv()
    server.port = int(port)
    return server


@dataclass
class _Inputs:
    stream: gen.Stream
    standing: List[gen.QuerySpec]
    queries: List[gen.QuerySpec]
    posts: List[Dict[str, object]]
    post_bytes: List[int]
    digest: str


def _vector(query: gen.QuerySpec) -> List[float]:
    return [float(value) for value in query.vector]


async def _set_up(seed: int, counts: Tuple[int, int, int], traced: bool):
    """Generate inputs, boot the server, prefill, register, subscribe."""
    speed = common.HostSpeed()
    speed.sample(common.SETUP_CALIBRATIONS)
    started = perf_counter()
    paced, saturation, adhoc = counts
    model = gen.build_topic_model(seed)
    timed_buckets = paced + saturation
    # One bucket more than is posted: the lead-in shifts every POST by half a
    # bucket, and the last half bucket is never sent.
    stream = gen.build_stream(seed, SHAPE, gen.WINDOW_BUCKETS + timed_buckets + 1, model)
    materialiser = gen.Materialiser(stream, model)
    first = stream.bucket_bounds(gen.WINDOW_BUCKETS)[0]
    order = first + gen.arrival_order(
        seed, stream.timestamps[first:], LATE_SHARE, server_child.ALLOWED_LATENESS
    )
    lead_in = {"events": materialiser.events(order[:LEAD_IN].tolist())}
    posts = [
        {"events": materialiser.events(order[i : i + SHAPE.per_bucket].tolist())}
        for i in range(LEAD_IN, LEAD_IN + timed_buckets * SHAPE.per_bucket, SHAPE.per_bucket)
    ]
    standing = gen.build_standing_queries()
    queries = gen.build_queries(adhoc + common.VERIFY_QUERIES)
    sent = order[: LEAD_IN + timed_buckets * SHAPE.per_bucket]
    digest = gen.input_sha256(stream, standing + queries, extra=[sent])
    post_bytes = [len(json.dumps(post)) for post in posts]
    inputs = _Inputs(stream, standing, queries, posts, post_bytes, digest)

    server = _start_server(seed, traced)
    client = HttpClient(HOST, server.port)
    for bucket in range(gen.WINDOW_BUCKETS):
        response = await client.post(
            "/ingest/bucket",
            {
                "end_time": stream.end_time(bucket),
                "elements": [e.to_dict() for e in materialiser.elements(bucket)],
            },
        )
        if response.status != 200:
            raise RuntimeError(f"prefill bucket {bucket}: HTTP {response.status}")
    response = await client.post("/ingest", lead_in)
    if response.status != 200 or response.json().get("buckets_sealed") != 0:
        raise RuntimeError(f"lead-in: HTTP {response.status} {response.body[:200]!r}")
    for index, query in enumerate(standing):
        response = await client.post(
            "/queries",
            {
                "vector": _vector(query),
                "k": query.k,
                "query_id": f"q{index}",
                "algorithm": query.algorithm,
            },
        )
        if response.status != 201:
            raise RuntimeError(f"register q{index}: HTTP {response.status}")
    socket = await WebSocketClient.connect(
        HOST, server.port, f"/ws/queries/{server_child.WATCHED_QUERY}"
    )
    await socket.recv_json(timeout=30)  # the initial snapshot message
    took = perf_counter() - started
    speed.sample(common.SETUP_CALIBRATIONS)
    return inputs, server, client, socket, took / speed.index


async def _tear_down(server: _Server, client: HttpClient, socket: WebSocketClient,
                     check: Optional[common.Checker] = None) -> None:
    await socket.close()
    await client.close()
    server.stop(check)


async def _drive(seed: int, seconds: float, tracer: Optional[tracing.Tracer], setups: int) -> common.PassResult:
    check = common.Checker()
    paced = max(4, round(PACED_SHARE * seconds * POST_RATE))
    saturation = max(2, round(SATURATION_POSTS_PER_SECOND * seconds))
    adhoc = max(2, round(QUERIES_PER_SECOND * seconds))
    counts = (paced, saturation, adhoc)
    setup_seconds: List[float] = []

    inputs, server, client, socket, took = await _set_up(seed, counts, tracer is not None)
    setup_seconds.append(took)
    stream = inputs.stream
    per_post = SHAPE.per_bucket

    deltas: List[Tuple[float, Dict[str, object]]] = []

    async def read_pushes() -> None:
        while True:
            message = await socket.recv_json()
            if message is None:
                return
            if message.get("type") == "delta":
                deltas.append((perf_counter(), message))

    reader = asyncio.ensure_future(read_pushes())

    due_s: List[float] = []
    late_s: List[float] = []
    round_trip_s: List[float] = []
    post_at: List[float] = []
    sealed: List[int] = []
    bytes_in = 0
    last_streams: Dict[str, object] = {}
    # Two speed indexes (see ``common.calibrate``).  While POSTs are paced the
    # server is what works, on a core of its own, so it times the kernel
    # itself whenever a response has left it idle.  The ad-hoc queries are a
    # ping-pong that the kernel's scheduler keeps on one core, the server is
    # never idle long enough, and the generator times the kernel after each.
    # Measured on ten runs, the phase's own index tracks its round trips at
    # r = 0.92-0.96 and the other phase's at 0.4-0.6.
    query_speed = common.HostSpeed()

    def calibrate() -> None:
        if tracer is not None:
            tracer.tag = None
            span = tracer.begin("loadgen.calibrate")
        query_speed.sample()
        if tracer is not None:
            tracer.end(span)

    async def post_events(index: int) -> None:
        nonlocal bytes_in, last_streams
        if tracer is not None:
            tracer.tag = f"post {index}"
            span = tracer.begin("server.http")
        started = perf_counter()
        try:
            response = await client.post("/ingest", inputs.posts[index])
            body = response.json() if response.status == 200 else {}
            failure = None if response.status == 200 else f"HTTP {response.status}"
        except (ConnectionError, asyncio.IncompleteReadError, ValueError) as error:
            body, failure = {}, repr(error)
        round_trip_s.append(perf_counter() - started)
        post_at.append(started)
        if tracer is not None:
            tracer.end(span)
        check.ok(
            failure is None and body.get("accepted") == per_post,
            f"POST /ingest {index}: {failure or body}",
        )
        sealed.append(int(body.get("buckets_sealed", 0)))
        last_streams = body.get("streams", last_streams)
        bytes_in += inputs.post_bytes[index]

    # -- phase 1: paced, open loop ---------------------------------------------------
    gc.collect()
    period = 1.0 / POST_RATE
    phase_started_ns = perf_counter_ns()
    phase_started = perf_counter()
    origin = phase_started + period
    for index in range(paced):
        due = origin + index * period
        wait = due - perf_counter()
        if wait > 0:
            if tracer is not None:
                tracer.tag = None
                idle = tracer.begin("loadgen.idle")
            await asyncio.sleep(wait)
            if tracer is not None:
                tracer.end(idle)
        due_s.append(due)
        late_s.append(max(0.0, perf_counter() - due))
        await post_events(index)
    paced_round_trip = list(round_trip_s)

    # -- phase 2: saturation, back to back --------------------------------------------
    for index in range(paced, paced + saturation):
        await post_events(index)
    saturation_s = sum(round_trip_s[paced:])

    # -- phase 3: ad-hoc queries on the quiet window -----------------------------------
    # The window ends at the last sealed bucket, which trails the last one
    # sent by the allowed lateness: oldest id from there, newest from here.
    last_sent = gen.WINDOW_BUCKETS + paced + saturation
    oldest_id = stream.active_id_range(last_sent - server_child.ALLOWED_LATENESS - 1)[0]
    newest_id = stream.active_id_range(last_sent)[1]
    query_s: List[float] = []
    query_at: List[float] = []
    evaluated = active = 0
    for index in range(adhoc):
        query = inputs.queries[index]
        payload = {"vector": _vector(query), "k": query.k, "algorithm": query.algorithm}
        if tracer is not None:
            tracer.tag = f"query {index}"
            span = tracer.begin("server.http")
        started = perf_counter()
        response = await client.post("/query", payload)
        query_s.append(perf_counter() - started)
        query_at.append(started)
        if tracer is not None:
            tracer.end(span)
        if check.ok(response.status == 200, f"POST /query {index}: HTTP {response.status}"):
            result = response.json()["result"]
            common.check_answer(
                check, result["element_ids"], query.k, oldest_id, newest_id,
                f"ad-hoc query {index}",
            )
            evaluated += int(result["evaluated_elements"])
            active += int(result["active_elements"])
        calibrate()
    elapsed = perf_counter() - phase_started
    phase_ended_ns = perf_counter_ns()

    # -- drain: every bucket that re-evaluated the watched query owes one delta --------
    child = server.report()
    post_speed = common.HostSpeed(child["calibration_s"], child["calibration_at"])
    expected = set(child["watched_buckets"])
    deadline = perf_counter() + 10.0
    while len(deltas) < len(expected) and perf_counter() < deadline:
        await asyncio.sleep(0.02)
    received = [int(message["bucket"]) for _, message in deltas]
    check.ok(
        set(received) == expected and len(received) == len(expected),
        f"deltas: {len(received)} received ({len(set(received))} distinct buckets), "
        f"{len(expected)} buckets updated {server_child.WATCHED_QUERY}",
    )
    check.ok(
        int(last_streams.get("dropped_late", -1)) == 0,
        f"stream metrics report dropped_late={last_streams.get('dropped_late')}",
    )
    watched_k = inputs.standing[0].k
    for _, message in deltas:
        common.check_answer(
            check, message["element_ids"], watched_k, 0, newest_id,
            f"delta for bucket {message['bucket']}",
        )

    # Which POST sealed which bucket: the server numbers buckets as it commits
    # them, and each response says how many its events sealed.
    sealed_by: Dict[int, int] = {}
    committed = gen.WINDOW_BUCKETS
    for index, count in enumerate(sealed):
        for _ in range(count):
            committed += 1
            sealed_by[committed] = index
    pushes = [
        (due_s[sealed_by[int(message["bucket"])]], received_at)
        for received_at, message in deltas
        if sealed_by.get(int(message["bucket"]), paced) < paced
    ]
    push_s = [received_at - due for due, received_at in pushes]

    end_to_end: Dict[str, float] = {}
    samples: Dict[str, int] = {}
    post_index = post_speed.index_at(post_at)
    end_to_end["ingest_eps"] = len(round_trip_s) * per_post / float(
        np.sum(np.asarray(round_trip_s) / post_index)
    )
    common.timing_metrics(
        "bucket_ms", paced_round_trip, post_index[:paced], end_to_end, samples, PACED_SEGMENTS
    )
    common.timing_metrics(
        "push_ms", push_s, post_speed.index_at([due for due, _ in pushes]),
        end_to_end, samples, PACED_SEGMENTS,
    )
    common.timing_metrics(
        "query_ms", query_s, query_speed.index_at(query_at), end_to_end, samples
    )
    end_to_end["rss_growth_mb"] = float(child["rss_growth_mb"])
    # A generator that ran later than one period at p95 did not offer the
    # stated load: the run is flagged invalid, not counted as a failure of
    # the system under test.
    late_p95_ms = common.percentile(late_s, 95) * 1e3
    valid = late_p95_ms < period * 1e3

    # -- answer quality against CELF, over HTTP ----------------------------------------
    ratios: List[float] = []
    for index, query in enumerate(inputs.queries[adhoc:]):
        scores = {}
        for algorithm in (gen.QUERY_ALGORITHMS[index % 2], "celf"):
            response = await client.post(
                "/query", {"vector": _vector(query), "k": query.k, "algorithm": algorithm}
            )
            scores[algorithm] = (
                float(response.json()["result"]["score"]) if response.status == 200 else 0.0
            )
        if check.ok(scores["celf"] > 0.0, f"verify query {index}: CELF scored {scores['celf']}"):
            ratios.append(scores[gen.QUERY_ALGORITHMS[index % 2]] / scores["celf"])
    ratio = sum(ratios) / max(1, len(ratios))
    check.ok(ratio >= common.MIN_SCORE_RATIO, f"score_ratio {ratio:.4f} is below {common.MIN_SCORE_RATIO}")
    end_to_end["score_ratio"] = ratio

    info: Dict[str, object] = {
        "posts": {"paced": paced, "saturation": saturation, "adhoc": adhoc},
        "post_rate": POST_RATE,
        "speed_index": post_speed.index,
        "query_speed_index": query_speed.index,
        "calibrations": {"server": len(post_speed.samples), "queries": len(query_speed.samples)},
        "valid": valid,
        "late_ms_p95": late_p95_ms,
        "late_posts": sum(1 for late in late_s if late > period),
        "round_trip_ms_max": max(round_trip_s) * 1e3,
        # What tracing can slow down here: the paced phase lasts what the
        # schedule says, the back-to-back phases last what the server takes
        # (at nominal host speed, like every reported time).
        "overhead_base_s": saturation_s / post_speed.index + sum(query_s) / query_speed.index,
    }
    per_layer: Dict[str, float] = {}
    if tracer is not None:
        spans = tracing.adopt(
            tracing.clip(tracer.spans, phase_started_ns, phase_ended_ns),
            "server.http",
            tracing.clip(child["spans"], phase_started_ns, phase_ended_ns),
        )
        per_layer = tracing.layer_metrics(spans, child["missing_spans"], elapsed)
        per_layer.update(tracing.kernel_metrics({}, child["kernels"]))
        streams = child["streams"]
        evaluations, reused = child["evaluations"], child["reused"]
        per_layer.update(
            {
                "core.eval_ratio": evaluated / max(1, active),
                "core.ranked_tuples": float(child["ranked_tuples"]),
                "store.active_rows": float(child["active_count"]),
                "store.expired": float(
                    (gen.WINDOW_BUCKETS + paced + saturation) * per_post + LEAD_IN
                    - child["active_count"] - streams["pending_events"]
                ),
                "streams.late_events": float(streams["late_events"]),
                "streams.dropped_late": float(streams["dropped_late"]),
                "streams.watermark_lag_p95": float(streams["watermark_lag_p95"]),
                "service.reeval_ratio": evaluations / max(1, evaluations + reused),
                "server.post_ms_p50": common.percentile(paced_round_trip, 50) * 1e3,
                "host.speed_index": post_speed.index,
                "server.bytes_in": float(bytes_in),
                "server.pushes": float(child["hub_pushes"]),
                "loadgen.late_ms_p95": late_p95_ms,
                "loadgen.sent": float(paced + saturation + adhoc),
            }
        )
        info["spans"] = spans

    reader.cancel()
    await asyncio.gather(reader, return_exceptions=True)
    await _tear_down(server, client, socket, check)

    for _ in range(setups - 1):
        _, extra_server, extra_client, extra_socket, took = await _set_up(seed, counts, False)
        await _tear_down(extra_server, extra_client, extra_socket)
        setup_seconds.append(took)
    end_to_end["setup_s"] = common.percentile(setup_seconds, 50)
    samples["setup_s"] = len(setup_seconds)
    end_to_end["ok_share"] = check.ok_share

    return common.PassResult(
        workload="serve_text",
        seed=seed,
        seconds=seconds,
        traced=tracer is not None,
        input_sha256=inputs.digest,
        elapsed_s=elapsed,
        end_to_end=end_to_end,
        samples=samples,
        per_layer=per_layer,
        check=check,
        info=info,
    )


def run(seed: int, seconds: float, tracer: Optional[tracing.Tracer], setups: int) -> common.PassResult:
    """One pass of ``serve_text``."""
    try:
        return asyncio.run(_drive(seed, seconds, tracer, setups))
    finally:
        for server in list(_RUNNING):
            server.stop()
