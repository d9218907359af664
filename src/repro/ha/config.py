"""Configuration of the supervised cluster runtime (:mod:`repro.ha`).

Imports nothing but :mod:`repro.utils.config`, so
:class:`~repro.api.config.EngineConfig` can embed an ``ha`` section without
creating an import cycle through the heavier supervisor/checkpoint modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping

from repro.utils.config import config_from_dict, config_to_dict


@dataclass(frozen=True)
class HAConfig:
    """Tuning of failure detection, checkpoint cadence and the bucket WAL.

    Parameters
    ----------
    heartbeat_interval:
        Seconds between liveness probes of the shard worker processes.
    heartbeat_timeout:
        Seconds a worker may take to answer a probe before it is declared
        dead (a timed-out worker is always restarted: its late reply can no
        longer be matched to a request).
    checkpoint_every:
        Buckets between automatic checkpoints taken by the supervisor
        (``0`` = checkpoints are taken only on explicit
        :meth:`~repro.ha.supervisor.ClusterSupervisor.checkpoint` calls).
    wal_capacity:
        Bucket count at which the supervisor forces a checkpoint so the
        replay gap — and with it worst-case recovery time — stays bounded.
    auto_restart:
        Whether the heartbeat loop restarts and restores dead workers
        automatically (``False`` = detect and report only).
    """

    heartbeat_interval: float = 0.5
    heartbeat_timeout: float = 2.0
    checkpoint_every: int = 0
    wal_capacity: int = 4096
    auto_restart: bool = True

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.wal_capacity < 1:
            raise ValueError("wal_capacity must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable view (inverse of :meth:`from_dict`)."""
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "HAConfig":
        """Rebuild from :meth:`to_dict` output (missing keys = defaults)."""
        return config_from_dict(cls, payload, "ha")
