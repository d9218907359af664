"""The built-in execution-backend adapters: local, sharded and service.

Each adapter wraps one of the historical entry surfaces —
:class:`~repro.core.processor.KSIRProcessor`,
:class:`~repro.cluster.coordinator.ClusterCoordinator`,
:class:`~repro.service.engine.ServiceEngine` — behind the uniform
:class:`~repro.api.backend.ExecutionBackend` protocol, and importing this
module registers all three factories.  The wrapped objects remain fully
reachable (``backend.processor`` / ``backend.coordinator`` /
``backend.engine``) for code that needs layer-specific surface such as
ranked-list inspection or per-shard statistics.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence, Union

from repro.api.backend import (
    AlgorithmLike,
    QueryLike,
    register_backend,
)
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


class LocalBackend:
    """Single-node execution: one :class:`KSIRProcessor` owns the window."""

    def __init__(
        self,
        topic_model: TopicModel,
        config: EngineConfig,
        inferencer: Optional[TopicInferencer] = None,
    ) -> None:
        self._processor = KSIRProcessor(
            topic_model, config.processor, inferencer=inferencer
        )

    @property
    def name(self) -> str:
        """The backend's registry name."""
        return LOCAL_BACKEND

    @property
    def processor(self) -> KSIRProcessor:
        """The wrapped single-node processor."""
        return self._processor

    @property
    def topic_model(self) -> TopicModel:
        """The topic-model oracle in use."""
        return self._processor.topic_model

    @property
    def processor_config(self) -> ProcessorConfig:
        """The stream-processor configuration."""
        return self._processor.config

    @property
    def buckets_processed(self) -> int:
        """Buckets ingested so far."""
        return self._processor.buckets_processed

    @property
    def elements_processed(self) -> int:
        """Stream elements ingested so far."""
        return self._processor.elements_processed

    @property
    def active_count(self) -> int:
        """Number of currently active elements."""
        return self._processor.active_count

    @property
    def current_time(self) -> Optional[int]:
        """Stream time of the last ingested bucket."""
        return self._processor.current_time

    def ingest_bucket(
        self, elements: Sequence[SocialElement], end_time: int
    ) -> None:
        """Ingest one stream bucket."""
        self._processor.process_bucket(elements, end_time)

    def query(
        self,
        query: QueryLike,
        k: Optional[int] = None,
        algorithm: AlgorithmLike = None,
        epsilon: Optional[float] = None,
    ) -> QueryResult:
        """Answer an ad-hoc k-SIR query."""
        return self._processor.query(query, k, algorithm=algorithm, epsilon=epsilon)

    def snapshot(self) -> ScoringContext:
        """The processor's memoised per-bucket scoring snapshot."""
        return self._processor.snapshot()

    def stats(self) -> Dict[str, object]:
        """Single-node counters."""
        return {
            "backend": self.name,
            "elements_processed": self.elements_processed,
            "buckets_processed": self.buckets_processed,
            "active_count": self.active_count,
            "current_time": self.current_time,
            "ranked_tuples": self._processor.ranked_lists.total_tuples(),
        }

    def state_dict(self) -> Dict[str, object]:
        """Checkpoint state (delegates to the processor)."""
        return {"processor": self._processor.state_dict()}

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self._processor.restore_state(state["processor"])

    def close(self) -> None:
        """Single-node execution holds no executor resources."""


class ShardedBackend:
    """Sharded execution: a :class:`ClusterCoordinator` over ``N`` workers."""

    def __init__(
        self,
        topic_model: TopicModel,
        config: EngineConfig,
        inferencer: Optional[TopicInferencer] = None,
    ) -> None:
        cluster = config.cluster if config.cluster is not None else ClusterConfig()
        # No construction guard needed: ClusterCoordinator is not a guarded
        # entry point, and the shard workers it builds wrap their own
        # processor constructions.
        self._coordinator = ClusterCoordinator(
            topic_model, config.processor, cluster=cluster, inferencer=inferencer
        )

    @property
    def name(self) -> str:
        """The backend's registry name."""
        return SHARDED_BACKEND

    @property
    def coordinator(self) -> ClusterCoordinator:
        """The wrapped cluster coordinator."""
        return self._coordinator

    @property
    def topic_model(self) -> TopicModel:
        """The topic-model oracle in use."""
        return self._coordinator.topic_model

    @property
    def processor_config(self) -> ProcessorConfig:
        """The per-shard stream-processor configuration."""
        return self._coordinator.config

    @property
    def buckets_processed(self) -> int:
        """Buckets ingested so far."""
        return self._coordinator.buckets_processed

    @property
    def elements_processed(self) -> int:
        """Stream elements ingested so far (before replication)."""
        return self._coordinator.elements_processed

    @property
    def active_count(self) -> int:
        """Active elements across the cluster."""
        return self._coordinator.active_count

    @property
    def current_time(self) -> Optional[int]:
        """Stream time of the last ingested bucket."""
        return self._coordinator.current_time

    def ingest_bucket(
        self, elements: Sequence[SocialElement], end_time: int
    ) -> None:
        """Route one bucket to the shards."""
        self._coordinator.process_bucket(elements, end_time)

    def query(
        self,
        query: QueryLike,
        k: Optional[int] = None,
        algorithm: AlgorithmLike = None,
        epsilon: Optional[float] = None,
    ) -> QueryResult:
        """Answer an ad-hoc k-SIR query by scatter-gather."""
        return self._coordinator.query(query, k, algorithm=algorithm, epsilon=epsilon)

    def snapshot(self) -> ScoringContext:
        """A merged scoring snapshot over every shard's home elements."""
        return self._coordinator.snapshot()

    def stats(self) -> Dict[str, object]:
        """Cluster counters, including per-shard accounting."""
        return {
            "backend": self.name,
            "elements_processed": self.elements_processed,
            "buckets_processed": self.buckets_processed,
            "active_count": self.active_count,
            "current_time": self.current_time,
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

    def state_dict(self) -> Dict[str, object]:
        """Checkpoint state (delegates to the coordinator)."""
        return {"coordinator": self._coordinator.state_dict()}

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self._coordinator.restore_state(state["coordinator"])

    def close(self) -> None:
        """Shut down the fan-out executor."""
        self._coordinator.close()


class ServiceBackend:
    """Standing-query serving over a local or sharded execution substrate."""

    def __init__(
        self,
        topic_model: TopicModel,
        config: EngineConfig,
        inferencer: Optional[TopicInferencer] = None,
    ) -> None:
        self._substrate: Union[KSIRProcessor, ClusterCoordinator]
        if config.cluster is not None:
            self._substrate = ClusterCoordinator(
                topic_model,
                config.processor,
                cluster=config.cluster,
                inferencer=inferencer,
            )
        else:
            self._substrate = KSIRProcessor(
                topic_model, config.processor, inferencer=inferencer
            )
        self._engine = ServiceEngine(
            self._substrate, incremental=config.service.incremental
        )

    @property
    def name(self) -> str:
        """The backend's registry name."""
        return SERVICE_BACKEND

    @property
    def engine(self) -> ServiceEngine:
        """The wrapped standing-query serving engine."""
        return self._engine

    @property
    def topic_model(self) -> TopicModel:
        """The topic-model oracle in use."""
        return self._substrate.topic_model

    @property
    def processor_config(self) -> ProcessorConfig:
        """The stream-processor configuration of the substrate."""
        return self._substrate.config

    @property
    def buckets_processed(self) -> int:
        """Buckets ingested so far."""
        return self._substrate.buckets_processed

    @property
    def elements_processed(self) -> int:
        """Stream elements ingested so far."""
        return self._substrate.elements_processed

    @property
    def active_count(self) -> int:
        """Number of currently active elements."""
        return self._substrate.active_count

    @property
    def current_time(self) -> Optional[int]:
        """Stream time of the last ingested bucket."""
        return self._substrate.current_time

    def ingest_bucket(
        self, elements: Sequence[SocialElement], end_time: int
    ) -> None:
        """Ingest one bucket and maintain the affected standing queries."""
        self._engine.ingest_bucket(elements, end_time)

    def query(
        self,
        query: QueryLike,
        k: Optional[int] = None,
        algorithm: AlgorithmLike = None,
        epsilon: Optional[float] = None,
    ) -> QueryResult:
        """Answer an ad-hoc query against the serving substrate."""
        return self._substrate.query(query, k, algorithm=algorithm, epsilon=epsilon)

    def snapshot(self) -> ScoringContext:
        """A frozen scoring snapshot of the substrate's active window."""
        return self._substrate.snapshot()

    def stats(self) -> Dict[str, object]:
        """Serving counters (registry size plus maintenance metrics)."""
        metrics = self._engine.metrics
        return {
            "backend": self.name,
            "elements_processed": self.elements_processed,
            "buckets_processed": self.buckets_processed,
            "active_count": self.active_count,
            "current_time": self.current_time,
            "standing_queries": len(self._engine.registry),
            "evaluations": metrics.evaluations,
            "reused": metrics.reused,
            "incremental": self._engine.incremental,
            "sharded": self._engine.is_cluster,
        }

    def state_dict(self) -> Dict[str, object]:
        """Checkpoint state (substrate + registry + standing results)."""
        return {"service": self._engine.state_dict()}

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self._engine.restore_state(state["service"])

    def close(self) -> None:
        """Close the serving engine and the substrate, in that order."""
        self._engine.close()
        if isinstance(self._substrate, ClusterCoordinator):
            self._substrate.close()


# The adapter classes already satisfy the BackendFactory signature
# (topic_model, config, inferencer) -> ExecutionBackend.
register_backend(LOCAL_BACKEND, LocalBackend)
register_backend(SHARDED_BACKEND, ShardedBackend)
register_backend(SERVICE_BACKEND, ServiceBackend)
