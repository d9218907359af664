"""The formal execution-backend protocol of the :mod:`repro.api` facade.

Every way of executing k-SIR workloads — one processor, a sharded
cluster, a standing-query serving engine — is an :class:`ExecutionBackend`:
a named adapter with a uniform lifecycle (``ingest_bucket`` → ``query`` /
``snapshot`` / ``stats`` → ``close``) plus checkpoint hooks
(``state_dict`` / ``restore_state``).  The :class:`~repro.api.engine.KSIREngine`
facade programs against this protocol only, so new execution strategies
(remote workers, replicated read paths, ...) plug in by registering a
factory under a new name — no facade changes required.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np
import numpy.typing as npt

from repro.api.config import EngineConfig
from repro.core.algorithms import KSIRAlgorithm
from repro.core.element import SocialElement
from repro.core.processor import ProcessorConfig
from repro.core.query import KSIRQuery, QueryResult
from repro.core.scoring import ScoringContext
from repro.topics.inference import TopicInferencer
from repro.topics.model import TopicModel

#: Query inputs accepted by every backend (mirrors ``KSIRQuery.coerce``).
QueryLike = Union[KSIRQuery, npt.NDArray[np.float64], Sequence[float]]

#: Algorithm selectors accepted by every backend.
AlgorithmLike = Union[str, KSIRAlgorithm, None]


@runtime_checkable
class ExecutionBackend(Protocol):
    """The contract every execution adapter satisfies.

    Structural typing keeps adapters decoupled from the facade: anything
    with these members — including third-party classes that never import
    this module — can serve as a backend.  The three built-in adapters
    (:class:`~repro.api.backends.LocalBackend`,
    :class:`~repro.api.backends.ShardedBackend`,
    :class:`~repro.api.backends.ServiceBackend`) are checked against the
    protocol statically (mypy) and at import time (runtime registration).
    """

    @property
    def name(self) -> str:
        """The backend's registry name."""
        ...

    @property
    def topic_model(self) -> TopicModel:
        """The topic-model oracle queries and ingest run against."""
        ...

    @property
    def processor_config(self) -> ProcessorConfig:
        """The per-node stream-processor configuration."""
        ...

    @property
    def buckets_processed(self) -> int:
        """Buckets ingested so far."""
        ...

    @property
    def elements_processed(self) -> int:
        """Stream elements ingested so far."""
        ...

    @property
    def active_count(self) -> int:
        """Number of currently active elements."""
        ...

    @property
    def current_time(self) -> Optional[int]:
        """Stream time of the last ingested bucket (None before any)."""
        ...

    def ingest_bucket(
        self, elements: Sequence[SocialElement], end_time: int
    ) -> None:
        """Ingest one stream bucket ending at ``end_time``."""
        ...

    def query(
        self,
        query: QueryLike,
        k: Optional[int] = None,
        algorithm: AlgorithmLike = None,
        epsilon: Optional[float] = None,
    ) -> QueryResult:
        """Answer an ad-hoc k-SIR query against the current window."""
        ...

    def snapshot(self) -> ScoringContext:
        """A frozen scoring snapshot of the current active window."""
        ...

    def stats(self) -> Dict[str, object]:
        """Backend-specific counters for reporting and monitoring."""
        ...

    def state_dict(self) -> Dict[str, object]:
        """A JSON-serialisable snapshot for checkpointing."""
        ...

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        ...

    def close(self) -> None:
        """Release executor/process resources (idempotent)."""
        ...


#: Signature of a backend factory: model + engine config + optional
#: inferencer → a ready adapter.
BackendFactory = Callable[
    [TopicModel, EngineConfig, Optional[TopicInferencer]], ExecutionBackend
]

_REGISTRY: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register an execution-backend factory under a canonical name.

    Re-registering a name replaces the factory (useful for tests and for
    deployments that swap in instrumented adapters).
    """
    _REGISTRY[name.strip().lower()] = factory


def backend_names() -> Tuple[str, ...]:
    """The registered canonical backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def create_backend(
    name: str,
    topic_model: TopicModel,
    config: EngineConfig,
    inferencer: Optional[TopicInferencer] = None,
) -> ExecutionBackend:
    """Instantiate the backend registered under ``name``."""
    key = name.strip().lower()
    try:
        factory = _REGISTRY[key]
    except KeyError as error:
        available = ", ".join(backend_names()) or "<none registered>"
        raise ValueError(
            f"unknown execution backend {name!r}; registered: {available}"
        ) from error
    return factory(topic_model, config, inferencer)
