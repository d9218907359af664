"""repro.server — the HTTP + WebSocket serving tier over :class:`~repro.api.engine.KSIREngine`.

The serving tier turns the library into a deployable network service: a
standard **ASGI** application (:func:`create_app`) exposing standing-query
CRUD, on-demand top-k queries, batched stream ingest, engine
checkpoint/restore, Prometheus ``/metrics`` and a persistent ``/telemetry``
surface, plus a WebSocket channel (``/ws/queries/{id}``) that pushes a
result delta whenever the incremental scheduler marks a standing query
dirty — pushes ride the ranked lists' dirty-topic set through
:meth:`~repro.service.engine.ServiceEngine.add_update_listener`, never
polling.

The application is framework-free (pure ASGI on the stdlib), so the core
library gains **zero hard dependencies**:

* under ``uvicorn`` (or any ASGI server, installed via the ``server``
  extra) it deploys like any FastAPI-style app:
  ``uvicorn --factory your_module:build_app``;
* without it, :func:`serve` / :class:`ServerHandle` run the bundled
  asyncio HTTP/1.1 + WebSocket server (:mod:`repro.server.asgi`) — the
  same code path the tests, the CI smoke job and the end-to-end
  benchmark's ``serve_text`` workload exercise.

Everything is exported lazily: importing :mod:`repro` or building engines
never touches the serving modules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.server.app import KSIRServer, create_app
    from repro.server.asgi import ServerHandle, serve
    from repro.server.hub import PushHub
    from repro.server.runtime_store import RuntimeStore
    from repro.server.testing import TestClient

__all__: Tuple[str, ...] = (
    "KSIRServer",
    "PushHub",
    "RuntimeStore",
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
    "RuntimeStore": ("repro.server.runtime_store", "RuntimeStore"),
    "TestClient": ("repro.server.testing", "TestClient"),
}


def __getattr__(name: str) -> object:
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)
