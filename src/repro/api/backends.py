"""The built-in execution-backend adapters: local, sharded and service.

:class:`~repro.core.processor.KSIRProcessor` and
:class:`~repro.cluster.coordinator.ClusterCoordinator` expose one surface
under the same names, so the pass-through half of the
:class:`~repro.api.backend.ExecutionBackend` protocol is written once, on a
private base over "the substrate".  :class:`LocalBackend` and
:class:`ShardedBackend` add a constructor, a typed accessor
(``backend.processor`` / ``backend.coordinator``) and their own statistics;
:class:`ServiceBackend` composes whichever of the two ``config.cluster``
selects and runs a :class:`~repro.service.engine.ServiceEngine`
(``backend.engine``) on its substrate.  Importing this module registers all
three factories.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence, Union

from repro.api.backend import AlgorithmLike, QueryLike, register_backend
from repro.api.config import (
    LOCAL_BACKEND,
    SERVICE_BACKEND,
    SHARDED_BACKEND,
    EngineConfig,
)
from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator
from repro.core.element import SocialElement
from repro.core.processor import KSIRProcessor, ProcessorConfig
from repro.core.query import QueryResult
from repro.core.scoring import ScoringContext
from repro.service.engine import ServiceEngine
from repro.topics.inference import TopicInferencer
from repro.topics.model import TopicModel


class _SubstrateBackend:
    """The protocol members that only forward to the execution substrate."""

    #: The backend's registry name.
    name: str
    #: The key the substrate's state sits under in a checkpoint.
    _state_key: str
    _substrate: Union[KSIRProcessor, ClusterCoordinator]

    @property
    def topic_model(self) -> TopicModel:
        """The topic-model oracle in use."""
        return self._substrate.topic_model

    @property
    def processor_config(self) -> ProcessorConfig:
        """The (per-node) stream-processor configuration."""
        return self._substrate.config

    @property
    def buckets_processed(self) -> int:
        """Buckets ingested so far."""
        return self._substrate.buckets_processed

    @property
    def elements_processed(self) -> int:
        """Stream elements ingested so far (before any replication)."""
        return self._substrate.elements_processed

    @property
    def active_count(self) -> int:
        """Number of currently active elements."""
        return self._substrate.active_count

    @property
    def current_time(self) -> Optional[int]:
        """Stream time of the last ingested bucket."""
        return self._substrate.current_time

    def ingest_bucket(self, elements: Sequence[SocialElement], end_time: int) -> None:
        """Ingest one stream bucket."""
        self._substrate.process_bucket(elements, end_time)

    def query(
        self,
        query: QueryLike,
        k: Optional[int] = None,
        algorithm: AlgorithmLike = None,
        epsilon: Optional[float] = None,
    ) -> QueryResult:
        """Answer an ad-hoc k-SIR query (scatter-gather on shards)."""
        return self._substrate.query(query, k, algorithm=algorithm, epsilon=epsilon)

    def snapshot(self) -> ScoringContext:
        """A frozen scoring snapshot of the substrate's active window."""
        return self._substrate.snapshot()

    def stats(self) -> Dict[str, object]:
        """The counters every backend reports."""
        return {
            "backend": self.name,
            "elements_processed": self.elements_processed,
            "buckets_processed": self.buckets_processed,
            "active_count": self.active_count,
            "current_time": self.current_time,
        }

    def state_dict(self) -> Dict[str, object]:
        """Checkpoint state (delegates to the substrate)."""
        return {self._state_key: self._substrate.state_dict()}

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self._substrate.restore_state(state[self._state_key])

    def close(self) -> None:
        """Nothing to release unless a subclass holds executor resources."""


class LocalBackend(_SubstrateBackend):
    """Single-node execution: one :class:`KSIRProcessor` owns the window."""

    name = LOCAL_BACKEND
    _state_key = "processor"

    def __init__(
        self,
        topic_model: TopicModel,
        config: EngineConfig,
        inferencer: Optional[TopicInferencer] = None,
    ) -> None:
        self._substrate = self._processor = KSIRProcessor(
            topic_model, config.processor, inferencer=inferencer
        )

    @property
    def processor(self) -> KSIRProcessor:
        """The wrapped single-node processor."""
        return self._processor

    def stats(self) -> Dict[str, object]:
        """Single-node counters."""
        return {
            **super().stats(),
            "ranked_tuples": self._processor.ranked_lists.total_tuples(),
            "snapshot_builds": self._processor.snapshot_builds,
        }


class ShardedBackend(_SubstrateBackend):
    """Sharded execution: a :class:`ClusterCoordinator` over ``N`` workers."""

    name = SHARDED_BACKEND
    _state_key = "coordinator"

    def __init__(
        self,
        topic_model: TopicModel,
        config: EngineConfig,
        inferencer: Optional[TopicInferencer] = None,
    ) -> None:
        cluster = config.cluster or ClusterConfig()
        self._substrate = self._coordinator = ClusterCoordinator(
            topic_model, config.processor, cluster=cluster, inferencer=inferencer
        )

    @property
    def coordinator(self) -> ClusterCoordinator:
        """The wrapped cluster coordinator."""
        return self._coordinator

    def stats(self) -> Dict[str, object]:
        """Cluster counters, including per-shard accounting."""
        return {
            **super().stats(),
            "num_shards": self._coordinator.num_shards,
            "shards": [
                {
                    "shard_id": stat.shard_id,
                    "home_elements": stat.home_elements,
                    "foreign_elements": stat.foreign_elements,
                    "active_home": stat.active_home,
                }
                for stat in self._coordinator.shard_stats()
            ],
        }

    def close(self) -> None:
        """Shut down the fan-out executor."""
        self._coordinator.close()


class ServiceBackend(_SubstrateBackend):
    """Standing-query serving over a local or sharded execution substrate."""

    name = SERVICE_BACKEND

    def __init__(
        self,
        topic_model: TopicModel,
        config: EngineConfig,
        inferencer: Optional[TopicInferencer] = None,
    ) -> None:
        self._inner: Union[LocalBackend, ShardedBackend]
        if config.cluster is None:
            self._inner = LocalBackend(topic_model, config, inferencer)
        else:
            self._inner = ShardedBackend(topic_model, config, inferencer)
        self._substrate = self._inner._substrate
        self._engine = ServiceEngine(
            self._substrate, incremental=config.service.incremental
        )

    @property
    def engine(self) -> ServiceEngine:
        """The wrapped standing-query serving engine."""
        return self._engine

    def ingest_bucket(self, elements: Sequence[SocialElement], end_time: int) -> None:
        """Ingest one bucket and maintain the affected standing queries."""
        self._engine.ingest_bucket(elements, end_time)

    def stats(self) -> Dict[str, object]:
        """The substrate backend's counters plus the serving ones."""
        metrics = self._engine.metrics
        return {
            **self._inner.stats(),
            "backend": self.name,
            "standing_queries": len(self._engine.registry),
            "evaluations": metrics.evaluations,
            "reused": metrics.reused,
            "incremental": self._engine.incremental,
            "sharded": self._engine.processor is None,
        }

    def state_dict(self) -> Dict[str, object]:
        """Checkpoint state (substrate + registry + standing results)."""
        return {"service": self._engine.state_dict()}

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self._engine.restore_state(state["service"])

    def close(self) -> None:
        """Close the serving engine and the substrate backend, in that order."""
        self._engine.close()
        self._inner.close()


# The adapter classes already satisfy the BackendFactory signature
# (topic_model, config, inferencer) -> ExecutionBackend.
register_backend(LOCAL_BACKEND, LocalBackend)
register_backend(SHARDED_BACKEND, ShardedBackend)
register_backend(SERVICE_BACKEND, ServiceBackend)
