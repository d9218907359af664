"""repro.server — the HTTP + WebSocket serving tier over :class:`~repro.api.engine.KSIREngine`.

The serving tier turns the library into a deployable network service: a
standard **ASGI** application (:func:`create_app`) exposing standing-query
CRUD, on-demand top-k queries, batched stream ingest, engine
checkpoint/restore, Prometheus ``/metrics`` and a JSON ``/telemetry``
document, plus a WebSocket channel (``/ws/queries/{id}``) that pushes a
result delta whenever a bucket re-evaluates a standing query because it
dirtied one of the query's topics — pushes ride the ranked lists'
dirty-topic set through
:meth:`~repro.service.engine.ServiceEngine.add_update_listener`, never
polling.

The application is framework-free (pure ASGI 3 on the stdlib), so the
tier adds **no dependency**.  :func:`serve` / :class:`ServerHandle` run it
on the bundled asyncio HTTP/1.1 + WebSocket server
(:mod:`repro.server.asgi`): ``repro-ksir server``, the tests, the CI smoke
job and the end-to-end benchmark's ``serve_text`` workload all take that
path.  Any other ASGI 3 server can host the same application object.

Everything is exported lazily: importing :mod:`repro` or building engines
never touches the serving modules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.server.app import KSIRServer, create_app
    from repro.server.asgi import ServerHandle, serve
    from repro.server.hub import PushHub
    from repro.server.testing import TestClient

__all__: Tuple[str, ...] = (
    "KSIRServer",
    "PushHub",
    "ServerHandle",
    "TestClient",
    "create_app",
    "serve",
)

_EXPORTS = {
    "KSIRServer": ("repro.server.app", "KSIRServer"),
    "create_app": ("repro.server.app", "create_app"),
    "ServerHandle": ("repro.server.asgi", "ServerHandle"),
    "serve": ("repro.server.asgi", "serve"),
    "PushHub": ("repro.server.hub", "PushHub"),
    "TestClient": ("repro.server.testing", "TestClient"),
}


def __getattr__(name: str) -> object:
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)
