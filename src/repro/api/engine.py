"""The unified :class:`KSIREngine` facade.

One typed entry point for every way of running k-SIR workloads: the
engine is built from a topic model plus one composable
:class:`~repro.api.config.EngineConfig` and delegates execution to the
:class:`~repro.api.backend.ExecutionBackend` adapter the config names —
single-node, sharded, or standing-query serving.  The facade adds the
cross-cutting surface every deployment needs regardless of backend:

* stream replay (:meth:`process_stream`) with the shared bucket
  semantics;
* ad-hoc queries by vector, :class:`~repro.core.query.KSIRQuery` or raw
  keywords (:meth:`query` / :meth:`query_keywords`);
* standing-query registration and result access when serving;
* engine lifecycle with **checkpoint/restore** — :meth:`save` persists
  the full execution state to a versioned on-disk format and
  :meth:`load` resumes ingest mid-stream on any backend (warm restarts,
  shard migration, blue/green deploys).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Union

from repro.api.backend import (
    AlgorithmLike,
    ExecutionBackend,
    QueryLike,
    create_backend,
)
from repro.api.backends import ServiceBackend
from repro.api.checkpoint import (
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.api.config import EngineConfig
from repro.core.element import SocialElement
from repro.core.query import KSIRQuery, QueryResult
from repro.core.scoring import ScoringContext
from repro.kernels import kernel_stats
from repro.core.stream import SocialStream, replay_stream
from repro.service.engine import ServiceEngine, StandingResult
from repro.service.registry import StandingQuery
from repro.streams import (
    StreamConfig,
    StreamIngestor,
    StreamMetrics,
    StreamSource,
    create_source,
)
from repro.topics.inference import TopicInferencer, infer_query_vector
from repro.topics.model import TopicModel


class KSIREngine:
    """The single public entry point of the k-SIR reproduction.

    >>> from repro.api import EngineConfig, KSIREngine
    >>> engine = KSIREngine(topic_model, EngineConfig(backend="local"))
    >>> engine.process_stream(stream)
    >>> engine.query_keywords(["music", "concert"], k=5)

    Construction wiring, backend dispatch and lifecycle live here; the
    actual execution semantics live behind the
    :class:`~repro.api.backend.ExecutionBackend` protocol, so swapping
    ``backend="local"`` for ``"sharded"`` or ``"service"`` changes no
    other line of user code.
    """

    def __init__(
        self,
        topic_model: TopicModel,
        config: Optional[EngineConfig] = None,
        inferencer: Optional[TopicInferencer] = None,
    ) -> None:
        self._config = config if config is not None else EngineConfig()
        self._model = topic_model
        if inferencer is None:
            inferencer = self._config.build_inferencer(topic_model)
        self._inferencer = inferencer
        self._backend = create_backend(
            self._config.backend, topic_model, self._config, inferencer
        )
        self._streams = self._config.streams or StreamConfig()
        self._ingestor: Optional[StreamIngestor] = None
        self._closed = False

    # -- metadata ----------------------------------------------------------------------

    @property
    def config(self) -> EngineConfig:
        """The engine configuration."""
        return self._config

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend adapter in use."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """The canonical name of the execution backend."""
        return self._backend.name

    @property
    def topic_model(self) -> TopicModel:
        """The topic-model oracle."""
        return self._model

    @property
    def buckets_processed(self) -> int:
        """Buckets ingested so far."""
        return self._backend.buckets_processed

    @property
    def elements_processed(self) -> int:
        """Stream elements ingested so far."""
        return self._backend.elements_processed

    @property
    def active_count(self) -> int:
        """Number of currently active elements."""
        return self._backend.active_count

    @property
    def current_time(self) -> Optional[int]:
        """Stream time of the last ingested bucket."""
        return self._backend.current_time

    @property
    def service_engine(self) -> Optional[ServiceEngine]:
        """The standing-query engine (None unless serving)."""
        if isinstance(self._backend, ServiceBackend):
            return self._backend.engine
        return None

    # -- ingestion ---------------------------------------------------------------------

    def ingest_bucket(
        self, elements: Sequence[SocialElement], end_time: int
    ) -> None:
        """Ingest one stream bucket ending at ``end_time``."""
        self._require_open()
        self._backend.ingest_bucket(elements, end_time)

    def process_stream(
        self,
        stream: Union[SocialStream, Iterable[SocialElement]],
        until: Optional[int] = None,
    ) -> None:
        """Replay a whole stream (or until time ``until``) through the engine.

        On the ``service`` backend this maintains the registered standing
        queries bucket by bucket, exactly like the ad-hoc loop.
        """
        self._require_open()
        replay_stream(
            stream,
            self._backend.processor_config.bucket_length,
            self._backend.ingest_bucket,
            until,
        )

    # -- event-time ingest -------------------------------------------------------------

    def _stream_ingestor(self) -> StreamIngestor:
        if self._ingestor is None:
            self._ingestor = StreamIngestor(
                self._backend.ingest_bucket,
                self._backend.processor_config.bucket_length,
                allowed_lateness=self._streams.allowed_lateness,
            )
        return self._ingestor

    def ingest(self, events: Iterable[SocialElement]) -> int:
        """Accept raw, possibly out-of-order events.

        Events flow through the engine's :class:`~repro.streams.StreamIngestor`
        — the bounded reordering buffer configured by the ``streams``
        config section — which re-sorts each element into its true bucket
        and commits a bucket to the backend only once the watermark
        passes its end time.  Returns the number of buckets sealed by
        this call.  Elements later than ``allowed_lateness`` buckets are
        dropped and counted in :meth:`stream_metrics`.
        """
        self._require_open()
        return self._stream_ingestor().push_many(events)

    def ingest_flush(self) -> int:
        """Seal every buffered bucket up to the event-time high-water mark.

        Call at end of stream; without it the final
        ``allowed_lateness`` buckets stay buffered waiting for a
        watermark that will never advance.  Returns the number of
        buckets sealed.
        """
        self._require_open()
        return self._stream_ingestor().flush()

    def ingest_source(
        self,
        source: Union[str, StreamSource, None] = None,
        *,
        flush: bool = True,
        **options: object,
    ) -> StreamMetrics:
        """Drain a whole :class:`~repro.streams.StreamSource` through ingest.

        ``source`` is a source instance, a registered source name (with
        ``options`` forwarded to its factory), or ``None`` to use the
        configured ``streams.source`` name.  Flushes at end of feed
        unless ``flush=False`` and returns the resulting metrics
        snapshot.
        """
        self._require_open()
        if source is None:
            source = self._streams.source
        if isinstance(source, str):
            source = create_source(source, **options)
        elif options:
            raise ValueError(
                "source options are only valid with a registered source name, "
                "not a source instance"
            )
        ingestor = self._stream_ingestor()
        ingestor.push_many(iter(source))
        if flush:
            ingestor.flush()
        return ingestor.metrics()

    def stream_metrics(self) -> StreamMetrics:
        """The event-time ingest accounting (lateness, drops, watermark lag)."""
        self._require_open()
        return self._stream_ingestor().metrics()

    # -- queries -----------------------------------------------------------------------

    def query(
        self,
        query: QueryLike,
        k: Optional[int] = None,
        algorithm: AlgorithmLike = None,
        epsilon: Optional[float] = None,
    ) -> QueryResult:
        """Answer an ad-hoc k-SIR query against the current window."""
        self._require_open()
        return self._backend.query(query, k, algorithm=algorithm, epsilon=epsilon)

    def infer_query(self, keywords: Sequence[str], k: int) -> KSIRQuery:
        """Build a :class:`KSIRQuery` from raw keywords.

        Uses the engine's configured inferencer (the same one ingest
        uses), so the query-by-keyword transformation cannot drift from
        the stream side.
        """
        vector = infer_query_vector(self._model, keywords, inferencer=self._inferencer)
        return KSIRQuery(k=k, vector=vector, keywords=tuple(keywords))

    def query_keywords(
        self,
        keywords: Sequence[str],
        k: int,
        algorithm: AlgorithmLike = None,
        epsilon: Optional[float] = None,
    ) -> QueryResult:
        """Answer a keyword query (the paper's query-by-keyword paradigm)."""
        return self.query(
            self.infer_query(keywords, k), algorithm=algorithm, epsilon=epsilon
        )

    def snapshot(self) -> ScoringContext:
        """A frozen scoring snapshot of the current active window."""
        self._require_open()
        return self._backend.snapshot()

    def stats(self) -> Dict[str, object]:
        """Backend counters for reporting and monitoring.

        Includes a ``"kernels"`` section — the process-wide per-kernel
        call counts and cumulative nanoseconds from
        :func:`repro.kernels.kernel_stats` — which the serving tier
        re-exposes as ``ksir_kernel_*`` Prometheus gauges.
        """
        self._require_open()
        stats = dict(self._backend.stats())
        stats["kernels"] = kernel_stats()
        return stats

    # -- standing queries --------------------------------------------------------------

    def _service(self) -> ServiceEngine:
        self._require_open()
        engine = self.service_engine
        if engine is None:
            raise RuntimeError(
                f"standing queries require the 'service' backend (this engine "
                f"runs '{self.backend_name}'); construct it with "
                f'EngineConfig(backend="service")'
            )
        return engine

    def register(
        self,
        query: Union[KSIRQuery, Sequence[str]],
        k: Optional[int] = None,
        query_id: Optional[str] = None,
        algorithm: Optional[str] = None,
        epsilon: Optional[float] = None,
        ttl_buckets: Optional[int] = None,
    ) -> StandingQuery:
        """Register a standing query (service backend only).

        ``query`` is a :class:`KSIRQuery` or a raw keyword sequence (in
        which case ``k`` must be given and the engine infers the vector).
        """
        if not isinstance(query, KSIRQuery):
            if k is None:
                raise ValueError("k must be provided when registering by keywords")
            query = self.infer_query(list(query), k)
        return self._service().register(
            query,
            query_id=query_id,
            algorithm=algorithm,
            epsilon=epsilon,
            ttl_buckets=ttl_buckets,
        )

    def unregister(self, query_id: str) -> bool:
        """Drop a standing query (service backend only)."""
        return self._service().unregister(query_id)

    def result(self, query_id: str) -> Optional[StandingResult]:
        """The cached standing answer with staleness (service backend only)."""
        return self._service().result(query_id)

    def results(self) -> Dict[str, StandingResult]:
        """Every cached standing answer (service backend only)."""
        return self._service().results()

    def report(self) -> str:
        """The human-readable serving report (service backend only)."""
        return self._service().report()

    # -- checkpoint / restore ----------------------------------------------------------

    def save(self, path: Union[str, Path]) -> Path:
        """Persist the engine to a checkpoint directory at ``path``.

        The checkpoint holds the engine configuration, the topic model
        and the backend's complete execution state (window, ranked lists,
        counters, standing queries and their cached results), in the
        versioned format described in :mod:`repro.api.checkpoint`.
        Returns the directory written.
        """
        self._require_open()
        return write_checkpoint(
            path,
            backend_name=self.backend_name,
            config=self._config,
            topic_model=self._model,
            state=self._backend.state_dict(),
        )

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        inferencer: Optional[TopicInferencer] = None,
        config: Optional[EngineConfig] = None,
    ) -> "KSIREngine":
        """Restore an engine from a :meth:`save` checkpoint.

        The engine resumes exactly where the checkpoint left off: feeding
        it the remaining stream buckets produces the same windows, ranked
        lists and query answers (within float re-association noise) as an
        uninterrupted run.  ``config`` may override the persisted
        configuration — the processor/cluster shape must stay compatible
        (window length, shard count), which the layer-wise
        restores enforce; ``inferencer`` overrides the persisted
        inference settings (needed for stateful Gibbs inference, whose
        RNG is not serialisable).

        ``path`` may also be a delta-checkpoint chain written by
        :class:`repro.ha.delta.CheckpointChain` (detected by its
        ``CHAIN.json`` manifest); the chain's newest state is folded and
        restored identically to a plain checkpoint.
        """
        from repro.ha.delta import CheckpointChain

        if CheckpointChain.is_chain(path):
            payload = CheckpointChain(path).read_payload()
        else:
            payload = read_checkpoint(path)
        engine_config = config if config is not None else payload.config
        engine = cls(payload.topic_model, engine_config, inferencer=inferencer)
        try:
            if engine.backend_name != payload.backend:
                raise CheckpointError(
                    f"checkpoint was written by the {payload.backend!r} backend but "
                    f"the configuration selects {engine.backend_name!r}"
                )
            engine._backend.restore_state(payload.state)
        except BaseException:
            # The engine may already own shard processes: do not leak them.
            engine.close()
            raise
        return engine

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (idempotent)."""
        if not self._closed:
            self._backend.close()
            self._closed = True

    def __enter__(self) -> "KSIREngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("the engine has been closed")
