"""repro.api — the unified facade over every k-SIR execution surface.

One :class:`KSIREngine`, constructed from one composable
:class:`EngineConfig`, runs the same workload single-node (``"local"``:
one :class:`~repro.core.processor.KSIRProcessor`), sharded (``"sharded"``:
one :class:`~repro.cluster.coordinator.ClusterCoordinator`) or as a
standing-query service over either (``"service"``) — and persists or
resumes full execution state through the versioned checkpoint format
(:meth:`KSIREngine.save` / :meth:`KSIREngine.load`).

* :class:`EngineConfig` / :class:`InferenceConfig` /
  :class:`~repro.streams.StreamConfig` — the nested configuration with
  ``to_dict``/``from_dict`` round-trip and ``argparse`` integration;
* :class:`KSIREngine` — the facade (``engine.processor`` /
  ``engine.coordinator`` / ``engine.service_engine`` reach the layer
  below);
* :class:`CheckpointError` + the format constants — checkpoint handling.
"""

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
    "InferenceConfig",
    "KSIREngine",
    "QUERY_INFERENCE",
    "StreamConfig",
    "canonical_backend_name",
    "read_checkpoint",
    "write_checkpoint",
]
