"""The formal transport-backend protocol of the cluster layer.

A way of reaching the shard workers is a :class:`TransportBackend`: a
scatter-gather executor with one command surface, small enough to state as
a transition system::

    ingest* ─┬─ sync / take_dirty_topics / home_active_counts / stats
             ├─ states ──► restore_all          (checkpoint, any transport
             │                                   to any transport)
             ├─ restore_shard ─► ingest_shard*  (one shard's failover: its
             │                                   checkpoint slice, then the
             │                                   WAL gap)
             └─ close (idempotent)

The :class:`~repro.cluster.coordinator.ClusterCoordinator` programs against
this protocol only; ``ClusterConfig.transport`` picks one of the two
adapters from a fixed table in :mod:`repro.cluster.coordinator`
(:func:`~repro.cluster.coordinator.transport_names`):

``serial``
    In-process workers driven from the calling thread.  The default, the
    reference the oracle and the recorded answers run on, and the only one
    whose windows :meth:`ClusterCoordinator.snapshot` can read.
``pipe``
    One OS process per shard; buckets and sync deltas are pickled over
    pipes.  The one `repro.ha` can supervise, kill and restart.
"""

from __future__ import annotations

from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    runtime_checkable,
)

from repro.cluster.partition import RoutedBucket
from repro.cluster.worker import ShardDelta, ShardStats, ShardWorker


@runtime_checkable
class TransportBackend(Protocol):
    """The contract every cluster fan-out adapter satisfies.

    Structural typing keeps the adapters decoupled from the coordinator:
    neither built-in imports this module.
    """

    #: The shard workers when they live in this process, else ``()``.
    workers: Tuple[ShardWorker, ...]

    def ingest(self, routed: Sequence[RoutedBucket], end_time: int) -> None:
        """Deliver one routed bucket per shard and advance every window."""
        ...

    def sync(self, generations: Sequence[Optional[int]]) -> List[ShardDelta]:
        """``ShardWorker.sync`` on every shard, each handed its generation;
        every reply, in shard order, or an exception."""
        ...

    def take_dirty_topics(self) -> Set[int]:
        """Union of the shards' dirty-topic sets since the last drain."""
        ...

    def home_active_counts(self) -> List[int]:
        """Per-shard count of active home elements."""
        ...

    def stats(self) -> List[ShardStats]:
        """Per-shard accounting snapshots."""
        ...

    def states(self) -> List[Dict[str, object]]:
        """Every worker's ``ShardWorker.state_dict``, in shard order."""
        ...

    def restore_all(self, states: Sequence[Mapping[str, object]]) -> None:
        """Restore every worker from :meth:`states` output."""
        ...

    def restore_shard(self, shard_id: int, state: Mapping[str, object]) -> None:
        """:meth:`restore_all` for one (freshly restarted) worker."""
        ...

    def ingest_shard(self, bucket: RoutedBucket, end_time: int) -> None:
        """:meth:`ingest` for one shard (WAL gap replay after a restore)."""
        ...

    def close(self) -> None:
        """Release process resources (idempotent)."""
        ...
