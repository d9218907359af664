"""repro.api — the unified facade over every k-SIR execution surface.

One :class:`KSIREngine`, constructed from one composable
:class:`EngineConfig`, runs the same workload on any registered
:class:`ExecutionBackend` — single-node (``"local"``), sharded
(``"sharded"``) or standing-query serving (``"service"``) — and persists
or resumes full execution state through the versioned checkpoint format
(:meth:`KSIREngine.save` / :meth:`KSIREngine.load`).

* :class:`EngineConfig` / :class:`ServiceConfig` / :class:`InferenceConfig`
  / :class:`~repro.streams.StreamConfig` — the nested configuration with ``to_dict``/``from_dict`` round-trip and
  ``argparse`` integration;
* :class:`ExecutionBackend` + :func:`register_backend` /
  :func:`create_backend` / :func:`backend_names` — the formal backend
  protocol and its adapter registry;
* :class:`LocalBackend` / :class:`ShardedBackend` / :class:`ServiceBackend`
  — the built-in adapters (importing this package registers them);
* :class:`KSIREngine` — the facade;
* :class:`CheckpointError` + the format constants — checkpoint handling.
"""

from repro.api.backend import (
    ExecutionBackend,
    backend_names,
    create_backend,
    register_backend,
)
from repro.api.backends import LocalBackend, ServiceBackend, ShardedBackend
from repro.api.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.api.config import (
    BACKEND_ALIASES,
    QUERY_INFERENCE,
    EngineConfig,
    InferenceConfig,
    ServiceConfig,
    canonical_backend_name,
)
from repro.api.engine import KSIREngine
from repro.streams.config import StreamConfig

__all__ = [
    "BACKEND_ALIASES",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "EngineConfig",
    "ExecutionBackend",
    "InferenceConfig",
    "KSIREngine",
    "LocalBackend",
    "QUERY_INFERENCE",
    "ServiceBackend",
    "ServiceConfig",
    "ShardedBackend",
    "StreamConfig",
    "backend_names",
    "canonical_backend_name",
    "create_backend",
    "read_checkpoint",
    "register_backend",
    "write_checkpoint",
]
