"""``repro.ha`` — the supervised cluster runtime.

High availability for the sharded k-SIR engine: heartbeat failure
detection over process shard workers, a bucket write-ahead log, chained
full + delta checkpoints, single-shard restore-and-replay recovery, live
shard re-partitioning, and the fault-injection harness the tests and
``repro-ksir ha drill`` drive it all with.

Entry points
------------
* :class:`HAConfig` — supervision tuning (also embeddable as
  ``EngineConfig.ha``);
* :class:`ClusterSupervisor` — wrap a sharded engine, call
  :meth:`~repro.ha.supervisor.ClusterSupervisor.start`, ingest through
  :meth:`~repro.ha.supervisor.ClusterSupervisor.ingest_bucket`;
* :class:`CheckpointChain` — delta-checkpoint chains, usable standalone;
* :class:`BucketWAL` — the bucket log;
* :func:`repartition_state` — N→M shard state transformation;
* :mod:`repro.ha.chaos` — kill/delay/corrupt fault injection.

Only the stdlib-light configuration and WAL are imported eagerly; the
supervisor, chain and rebalancer pull in the engine stack and are loaded
on first attribute access (this also keeps ``repro.api.config`` free to
import :class:`HAConfig` without a cycle).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ha.config import HAConfig
from repro.ha.wal import BucketWAL, WALEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ha.delta import CheckpointChain, apply_delta, diff_state
    from repro.ha.rebalance import repartition_state
    from repro.ha.supervisor import ClusterSupervisor

__all__ = [
    "HAConfig",
    "BucketWAL",
    "WALEntry",
    "CheckpointChain",
    "ClusterSupervisor",
    "apply_delta",
    "diff_state",
    "repartition_state",
]

_LAZY = {
    "CheckpointChain": ("repro.ha.delta", "CheckpointChain"),
    "apply_delta": ("repro.ha.delta", "apply_delta"),
    "diff_state": ("repro.ha.delta", "diff_state"),
    "repartition_state": ("repro.ha.rebalance", "repartition_state"),
    "ClusterSupervisor": ("repro.ha.supervisor", "ClusterSupervisor"),
}


def __getattr__(name: str) -> object:
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    return getattr(import_module(module_name), attribute)
