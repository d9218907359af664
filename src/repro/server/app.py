"""The ASGI application serving a :class:`~repro.api.engine.KSIREngine`.

Framework-free ASGI 3 (the ``scope``/``receive``/``send`` protocol): the
bundled stdlib server (:mod:`repro.server.asgi`) runs it, and so can any
other ASGI 3 server.

Surface
-------

================  ======================================  =====================
``GET``           ``/health``                             liveness + engine id
``GET``           ``/healthz``                            pure liveness (no engine)
``GET``           ``/readyz``                             engine ready to serve
``GET``           ``/stats``                              backend counters
``POST``          ``/queries``                            register standing query
``GET``           ``/queries``                            list standing queries
``GET``           ``/queries/{id}``                       one query + answer
``DELETE``        ``/queries/{id}``                       unregister
``GET``           ``/queries/{id}/result``                cached standing answer
``POST``          ``/query``                              ad-hoc top-k query
``POST``          ``/ingest``                             raw out-of-order events
``POST``          ``/ingest/bucket``                      batched bucket ingest
``POST``          ``/checkpoint/save``                    persist engine state
``POST``          ``/checkpoint/load``                    restore + hot-swap
``GET``           ``/metrics``                            Prometheus text format
``GET``           ``/telemetry``                          the same state as JSON
``WS``            ``/ws/queries/{id}``                    push channel
================  ======================================  =====================

Engine calls are synchronous and potentially slow, so every handler that
touches the engine runs in a worker thread under one mutation lock; the
event loop only shuffles bytes.  WebSocket pushes ride the
:class:`~repro.server.hub.PushHub` wired into the service engine's
update-listener hook — one push per (re-evaluated query × subscriber) per
bucket, none for a query whose topics the bucket left untouched.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Pattern,
    Tuple,
)

from repro.api.checkpoint import CheckpointError
from repro.api.engine import KSIREngine
from repro.core.query import KSIRQuery
from repro.server import json_codec as codec
from repro.server.hub import PushHub
from repro.server.metrics import HttpTelemetry, render_prometheus
from repro.service.engine import ServiceEngine

#: ASGI protocol aliases (PEP 484-friendly, no external types).
Scope = MutableMapping[str, Any]
Message = MutableMapping[str, Any]
Receive = Callable[[], Awaitable[Message]]
Send = Callable[[Message], Awaitable[None]]

#: Close code sent when the requested standing query does not exist.
WS_CLOSE_UNKNOWN_QUERY = 4404


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    params: Dict[str, str]
    query_string: str
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Mapping[str, Any]:
        """The body as a JSON object (raises :class:`codec.PayloadError`)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise codec.PayloadError("request body is not valid JSON") from None
        return codec.require_mapping(payload, "request body")


@dataclass
class Response:
    """One HTTP response about to be serialised."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: List[Tuple[str, str]] = field(default_factory=list)

    @classmethod
    def json(cls, payload: Mapping[str, Any], status: int = 200) -> "Response":
        """A JSON response."""
        return cls(status=status, body=json.dumps(payload).encode("utf-8"))

    @classmethod
    def error(cls, message: str, status: int) -> "Response":
        """A JSON error envelope."""
        return cls.json({"error": message}, status=status)

    @classmethod
    def text(cls, body: str, content_type: str = "text/plain; charset=utf-8") -> "Response":
        """A plain-text response (``/metrics``)."""
        return cls(status=200, body=body.encode("utf-8"), content_type=content_type)


Handler = Callable[["KSIRServer", Request], Awaitable[Response]]


@dataclass(frozen=True)
class Route:
    """One HTTP route: method + compiled path pattern + handler."""

    method: str
    name: str
    pattern: Pattern[str]
    handler: Handler


def _route(method: str, template: str, handler: Handler) -> Route:
    pattern = re.compile(
        "^" + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", template) + "$"
    )
    return Route(method=method, name=f"{method} {template}", pattern=pattern,
                 handler=handler)


class KSIRServer:
    """The serving-tier application state over one :class:`KSIREngine`.

    The engine must run the ``service`` backend (standing queries are the
    product of this tier).  The instance is itself the ASGI callable:
    ``await server(scope, receive, send)``.
    """

    def __init__(
        self,
        engine: KSIREngine,
        max_workers: int = 8,
        push_queue_size: int = 256,
        supervisor: Optional[Any] = None,
    ) -> None:
        if engine.service_engine is None:
            raise ValueError(
                "the serving tier requires the 'service' backend; construct the "
                'engine with EngineConfig(backend="service")'
            )
        self._engine = engine
        self._telemetry = HttpTelemetry()
        self._hub = PushHub(queue_size=push_queue_size)
        self._engine_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="ksir-http"
        )
        self._closed = False
        # Optional repro.ha supervisor (duck-typed: needs status()); used
        # by /readyz for shard health and surfaced under /telemetry.
        self._supervisor = supervisor
        self._wire_listeners(self._service())

    # -- accessors ---------------------------------------------------------------------

    @property
    def engine(self) -> KSIREngine:
        """The engine currently serving (hot-swapped by checkpoint load)."""
        return self._engine

    @property
    def telemetry(self) -> HttpTelemetry:
        """The request counters and latency histograms of this process."""
        return self._telemetry

    @property
    def hub(self) -> PushHub:
        """The WebSocket push hub."""
        return self._hub

    @property
    def supervisor(self) -> Optional[Any]:
        """The attached HA supervisor, if any."""
        return self._supervisor

    def _service(self) -> ServiceEngine:
        service = self._engine.service_engine
        assert service is not None  # enforced at construction and on swap
        return service

    def _wire_listeners(self, service: ServiceEngine) -> None:
        service.add_update_listener(self._hub.on_update)

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Shut down the executor and the engine (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        self._engine.close()

    # -- ASGI entry point --------------------------------------------------------------

    async def __call__(self, scope: Scope, receive: Receive, send: Send) -> None:
        """The ASGI application callable."""
        scope_type = scope.get("type")
        if scope_type == "http":
            await self._handle_http(scope, receive, send)
        elif scope_type == "websocket":
            await self._handle_websocket(scope, receive, send)
        elif scope_type == "lifespan":
            await self._handle_lifespan(receive, send)
        else:  # pragma: no cover - unknown scope types
            raise RuntimeError(f"unsupported ASGI scope type {scope_type!r}")

    # -- HTTP --------------------------------------------------------------------------

    async def _handle_http(self, scope: Scope, receive: Receive, send: Send) -> None:
        method = str(scope.get("method", "GET")).upper()
        path = str(scope.get("path", "/"))
        route, params, seen_path = self._match(method, path)
        body = await _read_body(receive)
        if route is None:
            response = Response.error(
                "method not allowed" if seen_path else "not found",
                405 if seen_path else 404,
            )
            label = "*"
        else:
            headers = {
                key.decode("latin-1").lower(): value.decode("latin-1")
                for key, value in scope.get("headers", [])
            }
            request = Request(
                method=method,
                path=path,
                params=params,
                query_string=scope.get("query_string", b"").decode("latin-1"),
                headers=headers,
                body=body,
            )
            label = route.name
            loop = asyncio.get_running_loop()
            started = loop.time()
            try:
                response = await route.handler(self, request)
            except codec.PayloadError as error:
                response = Response.error(str(error), 422)
            except (KeyError, FileNotFoundError) as error:
                response = Response.error(str(error) or "not found", 404)
            except (ValueError, CheckpointError) as error:
                response = Response.error(str(error), 400)
            except RuntimeError as error:
                response = Response.error(str(error), 409)
            self._telemetry.observe_latency(label, (loop.time() - started) * 1000.0)
        self._telemetry.increment("http_requests", f"{label}|{response.status}")
        await _send_response(send, response)

    def _match(
        self, method: str, path: str
    ) -> Tuple[Optional[Route], Dict[str, str], bool]:
        seen_path = False
        for route in _ROUTES:
            match = route.pattern.match(path)
            if match is None:
                continue
            seen_path = True
            if route.method == method:
                return route, dict(match.groupdict()), True
        return None, {}, seen_path

    async def _run(self, fn: Callable[[], Any]) -> Any:
        """Run an engine-touching callable on a worker thread, serialised."""

        def locked() -> Any:
            with self._engine_lock:
                return fn()

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, locked)

    # -- WebSocket ---------------------------------------------------------------------

    async def _handle_websocket(
        self, scope: Scope, receive: Receive, send: Send
    ) -> None:
        path = str(scope.get("path", ""))
        match = re.match(r"^/ws/queries/(?P<query_id>[^/]+)$", path)
        message = await receive()
        if message.get("type") != "websocket.connect":  # pragma: no cover
            return
        if match is None:
            await send({"type": "websocket.close", "code": 4400})
            return
        query_id = match.group("query_id")
        await send({"type": "websocket.accept"})
        with self._engine_lock:
            service = self._service()
            registered = query_id in service.registry
            snapshot = service.result(query_id) if registered else None
        if not registered:
            await _send_json(send, {
                "type": "error",
                "error": f"no standing query {query_id!r}",
            })
            await send({"type": "websocket.close", "code": WS_CLOSE_UNKNOWN_QUERY})
            self._telemetry.increment("ws_rejects")
            return

        loop = asyncio.get_running_loop()
        subscription = self._hub.subscribe(query_id, loop)
        try:
            await _send_json(send, {
                "type": "snapshot",
                "query_id": query_id,
                "result": (
                    None if snapshot is None
                    else codec.standing_result_to_json(snapshot)
                ),
            })
            receiver = asyncio.ensure_future(receive())
            getter = asyncio.ensure_future(subscription.queue.get())
            try:
                while True:
                    done, _ = await asyncio.wait(
                        {receiver, getter}, return_when=asyncio.FIRST_COMPLETED
                    )
                    if receiver in done:
                        incoming = receiver.result()
                        if incoming.get("type") == "websocket.disconnect":
                            break
                        # Client text frames are treated as keepalives.
                        receiver = asyncio.ensure_future(receive())
                    if getter in done:
                        payload = getter.result()
                        await _send_json(send, payload)
                        if payload.get("type") in ("expired", "unregistered"):
                            await send({"type": "websocket.close", "code": 1000})
                            break
                        getter = asyncio.ensure_future(subscription.queue.get())
            finally:
                receiver.cancel()
                getter.cancel()
        except (ConnectionError, asyncio.CancelledError):  # pragma: no cover
            pass
        finally:
            self._hub.unsubscribe(subscription)

    # -- lifespan ----------------------------------------------------------------------

    async def _handle_lifespan(self, receive: Receive, send: Send) -> None:
        while True:
            message = await receive()
            kind = message.get("type")
            if kind == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif kind == "lifespan.shutdown":
                await send({"type": "lifespan.shutdown.complete"})
                return


# -- handlers --------------------------------------------------------------------------


async def _health(server: KSIRServer, request: Request) -> Response:
    engine = server.engine
    return Response.json({
        "status": "ok",
        "backend": engine.backend_name,
        "buckets_processed": engine.buckets_processed,
        "standing_queries": len(server._service().registry),
    })


async def _healthz(server: KSIRServer, request: Request) -> Response:
    # Pure liveness: if this handler runs, the process serves.  No engine
    # access, no lock — safe as a container liveness probe even while a
    # checkpoint load or recovery holds the engine lock.
    return Response.json({"status": "alive"})


async def _readyz(server: KSIRServer, request: Request) -> Response:
    if server._closed:
        return Response.json({"status": "closed"}, status=503)
    supervisor = server.supervisor
    if supervisor is not None:
        status = supervisor.status()
        if not status.get("healthy", False):
            dead = [
                shard["shard_id"]
                for shard in status.get("shards", ())
                if not shard.get("alive", True)
            ]
            return Response.json(
                {"status": "degraded", "dead_shards": dead}, status=503
            )
    try:
        backend = server.engine.backend_name
    except RuntimeError:
        return Response.json({"status": "engine closed"}, status=503)
    return Response.json({"status": "ready", "backend": backend})


async def _stats(server: KSIRServer, request: Request) -> Response:
    stats = await server._run(lambda: server.engine.stats())
    return Response.json({"stats": stats})


async def _list_queries(server: KSIRServer, request: Request) -> Response:
    def collect() -> List[Dict[str, Any]]:
        service = server._service()
        entries = []
        for standing in service.registry:
            entry = codec.standing_to_json(standing)
            result = service.result(standing.query_id)
            entry["has_result"] = result is not None
            entry["subscribers"] = server.hub.subscriber_count(standing.query_id)
            entries.append(entry)
        return entries

    queries = await server._run(collect)
    return Response.json({"queries": queries, "count": len(queries)})


async def _register_query(server: KSIRServer, request: Request) -> Response:
    options = codec.parse_registration(request.json())

    def register() -> Dict[str, Any]:
        engine = server.engine
        if options["vector"] is not None:
            query: Any = KSIRQuery(k=options["k"], vector=options["vector"])
            standing = engine.register(
                query,
                query_id=options["query_id"],
                algorithm=options["algorithm"],
                epsilon=options["epsilon"],
                ttl_buckets=options["ttl_buckets"],
            )
        else:
            standing = engine.register(
                options["keywords"],
                k=options["k"],
                query_id=options["query_id"],
                algorithm=options["algorithm"],
                epsilon=options["epsilon"],
                ttl_buckets=options["ttl_buckets"],
            )
        return codec.standing_to_json(standing)

    registered = await server._run(register)
    return Response.json({"query": registered}, status=201)


async def _get_query(server: KSIRServer, request: Request) -> Response:
    query_id = request.params["query_id"]

    def fetch() -> Optional[Dict[str, Any]]:
        service = server._service()
        if query_id not in service.registry:
            return None
        entry = codec.standing_to_json(service.registry.get(query_id))
        result = service.result(query_id)
        entry["result"] = (
            None if result is None else codec.standing_result_to_json(result)
        )
        entry["subscribers"] = server.hub.subscriber_count(query_id)
        return entry

    entry = await server._run(fetch)
    if entry is None:
        return Response.error(f"no standing query {query_id!r}", 404)
    return Response.json({"query": entry})


async def _delete_query(server: KSIRServer, request: Request) -> Response:
    query_id = request.params["query_id"]
    removed = await server._run(lambda: server.engine.unregister(query_id))
    if not removed:
        return Response.error(f"no standing query {query_id!r}", 404)
    server.hub.close_query(query_id)
    return Response.json({"removed": True, "query_id": query_id})


async def _get_result(server: KSIRServer, request: Request) -> Response:
    query_id = request.params["query_id"]

    def fetch() -> Tuple[bool, Optional[Dict[str, Any]]]:
        service = server._service()
        if query_id not in service.registry:
            return False, None
        result = service.result(query_id)
        return True, (
            None if result is None else codec.standing_result_to_json(result)
        )

    registered, result = await server._run(fetch)
    if not registered:
        return Response.error(f"no standing query {query_id!r}", 404)
    return Response.json({"query_id": query_id, "result": result})


async def _ad_hoc_query(server: KSIRServer, request: Request) -> Response:
    payload = request.json()
    keywords, vector, k = codec.parse_query_spec(payload)
    algorithm = payload.get("algorithm")
    epsilon = payload.get("epsilon")
    if epsilon is not None:
        epsilon = float(epsilon)

    def run() -> Dict[str, Any]:
        engine = server.engine
        if keywords is not None:
            result = engine.query_keywords(
                keywords, k=k, algorithm=algorithm, epsilon=epsilon
            )
        else:
            query = KSIRQuery(k=k, vector=vector or [])
            result = engine.query(query, algorithm=algorithm, epsilon=epsilon)
        return codec.result_to_json(result)

    result_json = await server._run(run)
    return Response.json({"result": result_json})


async def _ingest_bucket(server: KSIRServer, request: Request) -> Response:
    elements, end_time = codec.parse_ingest(request.json())

    def ingest() -> Dict[str, Any]:
        engine = server.engine
        update = engine.ingest_bucket(elements, end_time)
        assert update is not None  # the server runs the service backend only
        return {
            "ingested": len(elements),
            "bucket": engine.buckets_processed,
            "time": engine.current_time,
            "updated": sorted(update.updated),
            "expired": sorted(update.expired),
        }

    return Response.json(await server._run(ingest))


async def _ingest_events(server: KSIRServer, request: Request) -> Response:
    events, flush = codec.parse_events(request.json())

    def ingest() -> Dict[str, Any]:
        engine = server.engine
        sealed = engine.ingest(events)
        if flush:
            sealed += engine.ingest_flush()
        metrics = engine.stream_metrics()
        return {
            "accepted": len(events),
            "buckets_sealed": sealed,
            "time": engine.current_time,
            "streams": metrics.to_dict(),
        }

    return Response.json(await server._run(ingest))


async def _checkpoint_save(server: KSIRServer, request: Request) -> Response:
    payload = request.json()
    path = payload.get("path")
    if not isinstance(path, str) or not path:
        raise codec.PayloadError("'path' must be a non-empty string")
    written = await server._run(lambda: server.engine.save(path))
    return Response.json({"saved": True, "path": str(written)})


async def _checkpoint_load(server: KSIRServer, request: Request) -> Response:
    payload = request.json()
    path = payload.get("path")
    if not isinstance(path, str) or not path:
        raise codec.PayloadError("'path' must be a non-empty string")

    def load() -> Dict[str, Any]:
        restored = KSIREngine.load(path)
        if restored.service_engine is None:
            restored.close()
            raise codec.PayloadError(
                "checkpoint does not hold a 'service' backend engine"
            )
        previous = server._engine
        server._engine = restored
        server._wire_listeners(restored.service_engine)
        server.hub.reset()
        previous.close()
        return {
            "restored": True,
            "path": path,
            "buckets_processed": restored.buckets_processed,
            "standing_queries": len(restored.service_engine.registry),
        }

    summary = await server._run(load)
    return Response.json(summary)


def _engine_view(
    server: KSIRServer,
) -> Tuple[Dict[str, Any], Dict[str, object], Dict[str, object]]:
    return (
        dict(server.engine.stats()),
        server._service().metrics.to_dict(),
        server.engine.stream_metrics().to_dict(),
    )


async def _metrics(server: KSIRServer, request: Request) -> Response:
    stats, service_metrics, stream_metrics = await server._run(
        partial(_engine_view, server)
    )
    text = render_prometheus(
        server.telemetry, server.hub, stats, service_metrics, stream_metrics
    )
    return Response.text(text, content_type="text/plain; version=0.0.4; charset=utf-8")


async def _telemetry(server: KSIRServer, request: Request) -> Response:
    stats, service_metrics, stream_metrics = await server._run(
        partial(_engine_view, server)
    )
    supervisor = server.supervisor
    return Response.json({
        "engine": stats,
        "service": service_metrics,
        "streams": stream_metrics,
        "push": {
            "subscribers": server.hub.subscriber_count(),
            "sessions": server.hub.sessions,
            "pushes": server.hub.pushes,
            "dropped": server.hub.dropped,
        },
        "runtime": server.telemetry.snapshot(),
        "supervisor": None if supervisor is None else supervisor.status(),
    })


_ROUTES: Tuple[Route, ...] = (
    _route("GET", "/health", _health),
    _route("GET", "/healthz", _healthz),
    _route("GET", "/readyz", _readyz),
    _route("GET", "/stats", _stats),
    _route("GET", "/queries", _list_queries),
    _route("POST", "/queries", _register_query),
    _route("GET", "/queries/{query_id}", _get_query),
    _route("DELETE", "/queries/{query_id}", _delete_query),
    _route("GET", "/queries/{query_id}/result", _get_result),
    _route("POST", "/query", _ad_hoc_query),
    _route("POST", "/ingest", _ingest_events),
    _route("POST", "/ingest/bucket", _ingest_bucket),
    _route("POST", "/checkpoint/save", _checkpoint_save),
    _route("POST", "/checkpoint/load", _checkpoint_load),
    _route("GET", "/metrics", _metrics),
    _route("GET", "/telemetry", _telemetry),
)


def create_app(
    engine: KSIREngine,
    max_workers: int = 8,
    push_queue_size: int = 256,
    supervisor: Optional[Any] = None,
) -> KSIRServer:
    """Build the ASGI application over an engine (the public constructor).

    ``supervisor`` attaches a :class:`repro.ha.ClusterSupervisor` whose
    shard health gates ``/readyz`` and is exported under ``/telemetry``.
    The returned object is both the application state and the ASGI
    callable.
    """
    return KSIRServer(
        engine,
        max_workers=max_workers,
        push_queue_size=push_queue_size,
        supervisor=supervisor,
    )


# -- ASGI plumbing ---------------------------------------------------------------------


async def _read_body(receive: Receive) -> bytes:
    chunks: List[bytes] = []
    while True:
        message = await receive()
        kind = message.get("type")
        if kind == "http.request":
            chunks.append(bytes(message.get("body", b"")))
            if not message.get("more_body", False):
                break
        elif kind == "http.disconnect":  # pragma: no cover - client hangup
            break
    return b"".join(chunks)


async def _send_response(send: Send, response: Response) -> None:
    headers = [
        (b"content-type", response.content_type.encode("latin-1")),
        (b"content-length", str(len(response.body)).encode("latin-1")),
    ]
    headers.extend(
        (key.encode("latin-1"), value.encode("latin-1"))
        for key, value in response.headers
    )
    await send({
        "type": "http.response.start",
        "status": response.status,
        "headers": headers,
    })
    await send({"type": "http.response.body", "body": response.body})


async def _send_json(send: Send, payload: Mapping[str, Any]) -> None:
    await send({"type": "websocket.send", "text": json.dumps(payload)})
