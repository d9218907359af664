"""The formal transport-backend protocol of the cluster layer.

Every way of fanning work out to shard workers — same-thread, thread pool,
one OS process per shard over pipes, one OS process per shard over shared
memory — is a :class:`TransportBackend`: a scatter-gather executor with a
uniform command surface (``ingest`` → ``export`` / ``stats`` → ``close``).
The :class:`~repro.cluster.coordinator.ClusterCoordinator` programs against
this protocol only and resolves the concrete adapter through a registry,
exactly like :func:`repro.api.register_backend` resolves execution
backends — so new transports (RDMA, sockets, a remote worker pool, ...)
plug in by registering a factory under a new name, with no coordinator
changes.

Built-in transports (registered by :mod:`repro.cluster.coordinator`):

``serial``
    Same-thread fan-out over in-process workers (deterministic; used for
    per-shard measurement).
``thread``
    Thread-pool fan-out over in-process workers (shares the GIL).
``pipe``
    One OS process per shard; buckets and candidate pools are pickled over
    pipes (accepted alias: ``process``).
``shm``
    One OS process per shard; workers attach shared-memory store columns
    and exchange buckets/candidate pools through fixed-layout array slices
    in shared segments — pipes carry only small control tuples.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    runtime_checkable,
)

import numpy as np
import numpy.typing as npt

from repro.cluster.partition import RoutedBucket
from repro.cluster.worker import CandidatePool, ShardStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.cluster.coordinator import ClusterCoordinator


@runtime_checkable
class TransportBackend(Protocol):
    """The contract every cluster fan-out adapter satisfies.

    Structural typing keeps adapters decoupled from the coordinator:
    anything with these members — including third-party classes that never
    import this module — can serve as a transport.  Adapters that ship
    routed buckets to *remote* workers (other processes or machines) should
    additionally expose ``ships_owners = True`` so the planner includes the
    ownership entries the remote home filters replay.
    """

    def ingest(self, routed: Sequence[RoutedBucket], end_time: int) -> None:
        """Deliver one routed bucket per shard and advance every window."""
        ...

    def export(
        self, vector: npt.NDArray[np.float64], budget: Optional[int]
    ) -> List[CandidatePool]:
        """Gather one bounded candidate pool per shard for a query vector."""
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

    def close(self) -> None:
        """Release executor/process/segment resources (idempotent)."""
        ...


#: Signature of a transport factory: the owning coordinator (which carries
#: the topic model, processor/cluster configs, planner and inferencer) → a
#: ready fan-out adapter.
TransportFactory = Callable[["ClusterCoordinator"], TransportBackend]

#: Accepted spellings → canonical transport names.  ``process`` stays an
#: alias of ``pipe`` so pre-transport ``ClusterConfig(backend="process")``
#: configurations (and their checkpoints) keep working unchanged.
TRANSPORT_ALIASES: Dict[str, str] = {
    "process": "pipe",
}

_REGISTRY: Dict[str, TransportFactory] = {}


def canonical_transport_name(name: str) -> str:
    """Resolve a transport spelling to its canonical registry name."""
    key = name.strip().lower()
    return TRANSPORT_ALIASES.get(key, key)


def register_transport(name: str, factory: TransportFactory) -> None:
    """Register a cluster fan-out transport under a canonical name.

    The public extension hook of the cluster layer, mirroring
    :func:`repro.api.register_backend`: ``factory`` receives the owning
    :class:`~repro.cluster.coordinator.ClusterCoordinator` and returns an
    object satisfying :class:`TransportBackend`.  Select the transport via
    ``ClusterConfig(transport=name)``.  Re-registering a name replaces the
    factory (useful for tests and instrumented adapters).
    """
    _REGISTRY[canonical_transport_name(name)] = factory


def transport_names() -> Tuple[str, ...]:
    """The registered canonical transport names, sorted."""
    return tuple(sorted(_REGISTRY))


def create_transport(name: str, coordinator: "ClusterCoordinator") -> TransportBackend:
    """Instantiate the transport registered under ``name``."""
    key = canonical_transport_name(name)
    try:
        factory = _REGISTRY[key]
    except KeyError as error:
        available = ", ".join(transport_names()) or "<none registered>"
        raise ValueError(
            f"unknown cluster transport {name!r}; registered: {available}"
        ) from error
    return factory(coordinator)
