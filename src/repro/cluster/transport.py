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
this protocol only and resolves the concrete adapter through a registry,
exactly like :func:`repro.api.register_backend` resolves execution
backends — so new transports (sockets, a remote worker pool, ...) plug in by
registering a factory under a new name, with no coordinator changes.

Built-in transports (registered by :mod:`repro.cluster.coordinator`):

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
    TYPE_CHECKING,
    Callable,
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

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.cluster.coordinator import ClusterCoordinator


@runtime_checkable
class TransportBackend(Protocol):
    """The contract every cluster fan-out adapter satisfies.

    Structural typing keeps adapters decoupled from the coordinator:
    anything with these members — including third-party classes that never
    import this module — can serve as a transport.
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


#: Signature of a transport factory: the owning coordinator (which carries
#: the topic model, processor/cluster configs and inferencer) → a
#: ready fan-out adapter.
TransportFactory = Callable[["ClusterCoordinator"], TransportBackend]

_REGISTRY: Dict[str, TransportFactory] = {}


def register_transport(name: str, factory: TransportFactory) -> None:
    """Register a cluster fan-out transport under a (case-insensitive) name.

    The public extension hook of the cluster layer, mirroring
    :func:`repro.api.register_backend`: ``factory`` receives the owning
    :class:`~repro.cluster.coordinator.ClusterCoordinator` and returns an
    object satisfying :class:`TransportBackend`.  Select the transport via
    ``ClusterConfig(transport=name)``.  Re-registering a name replaces the
    factory (useful for tests and instrumented adapters).
    """
    _REGISTRY[name.strip().lower()] = factory


def transport_names() -> Tuple[str, ...]:
    """The registered transport names, sorted."""
    return tuple(sorted(_REGISTRY))


def transport_factory(name: str) -> TransportFactory:
    """The factory registered under ``name``; ``ValueError`` when none is."""
    try:
        return _REGISTRY[name.strip().lower()]
    except KeyError as error:
        available = ", ".join(transport_names()) or "<none registered>"
        raise ValueError(
            f"unknown cluster transport {name!r}; registered: {available} "
            "(the thread-pool and shared-memory transports were retired in "
            "PR 16 after losing to 'serial' and 'pipe' on every end-to-end "
            "metric: use those)"
        ) from error


def create_transport(name: str, coordinator: "ClusterCoordinator") -> TransportBackend:
    """Instantiate the transport registered under ``name``."""
    return transport_factory(name)(coordinator)
