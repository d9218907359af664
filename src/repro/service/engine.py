"""The continuous multi-query serving engine.

:class:`ServiceEngine` is the façade of the ``repro.service`` layer: it owns
an execution backend — a single-node
:class:`~repro.core.processor.KSIRProcessor` or a sharded
:class:`~repro.cluster.coordinator.ClusterCoordinator` — a
:class:`~repro.service.registry.QueryRegistry` of standing queries and the
evaluation loop.  A standing query is a query: the engine programs against
the surface both backends share (``process_bucket``, ``take_dirty_topics``,
``query``, the stream counters, ``state_dict`` / ``restore_state``), so an
evaluation is the backend's own ad-hoc ``query`` — over the processor's
memoised per-bucket snapshot on one node, by scatter-gather on ``N`` shards.
Driving it is a two-step loop:

1. :meth:`ingest_bucket` feeds one stream bucket to the backend, drains
   the ranked lists' dirty-topic set, prunes TTL-expired queries and
   re-evaluates exactly the standing queries whose topic support meets
   that set, plus those never evaluated yet.  ``f(S, x)`` sums over the
   query's non-zero topics only, so no other answer can have changed;
2. :meth:`result` / :meth:`results` read the per-query result cache, with
   staleness metadata saying how many buckets ago each answer was computed.

A standing evaluation compiles through the backend's one term memo,
shared with every ad-hoc query and kept exact as buckets change the window,
so a re-evaluation compiles only what changed or what no query touched yet.

:meth:`report` renders the service metrics (p50/p99 latency, pairs/sec,
result-cache hit rate, re-eval ratio).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.cluster.coordinator import ClusterCoordinator
from repro.core.algorithms import KSIRAlgorithm
from repro.core.element import SocialElement
from repro.core.processor import KSIRProcessor
from repro.core.query import KSIRQuery, QueryResult, require_query_topics
from repro.service.metrics import ServiceMetrics
from repro.service.registry import QueryRegistry, StandingQuery


@dataclass(frozen=True)
class StandingResult:
    """A cached standing-query answer plus its staleness metadata.

    Attributes
    ----------
    query_id:
        The standing query this answers.
    result:
        The cached :class:`~repro.core.query.QueryResult`.
    evaluated_at_bucket:
        ``buckets_processed`` when the answer was (re)computed.
    evaluated_at_time:
        Stream time of that bucket (None before any advance).
    evaluations:
        How many times the query has been evaluated so far.
    staleness_buckets:
        Buckets ingested since the answer was computed (0 = fresh).  A
        positive value means no bucket since then dirtied one of this
        query's topics — the answer is reused, not recomputed.
    """

    query_id: str
    result: QueryResult
    evaluated_at_bucket: int
    evaluated_at_time: Optional[int]
    evaluations: int = 1
    staleness_buckets: int = 0

    @property
    def fresh(self) -> bool:
        """Whether the answer reflects the latest ingested bucket."""
        return self.staleness_buckets == 0

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable dictionary (used by the checkpoint layer)."""
        return {
            "query_id": self.query_id,
            "result": self.result.to_dict(),
            "evaluated_at_bucket": self.evaluated_at_bucket,
            "evaluated_at_time": self.evaluated_at_time,
            "evaluations": self.evaluations,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "StandingResult":
        """Inverse of :meth:`to_dict` (staleness is recomputed on access)."""
        evaluated_at_time = payload.get("evaluated_at_time")
        return cls(
            query_id=str(payload["query_id"]),
            result=QueryResult.from_dict(payload["result"]),
            evaluated_at_bucket=int(payload["evaluated_at_bucket"]),
            evaluated_at_time=(
                None if evaluated_at_time is None else int(evaluated_at_time)
            ),
            evaluations=int(payload.get("evaluations", 1)),
        )


@dataclass(frozen=True)
class ServiceUpdate:
    """What one ingested bucket changed, delivered to update listeners.

    The serving tier (``repro.server``) subscribes here to push WebSocket
    deltas: ``updated`` holds the standing results re-evaluated on this
    bucket (exactly the queries whose support met the bucket's dirty
    topics, plus the never-evaluated ones — everything else is provably
    unchanged and generates no push), and ``expired`` names the queries
    dropped by TTL on this bucket.

    Attributes
    ----------
    bucket:
        ``buckets_processed`` after the ingest.
    time:
        Stream time of the bucket (None before any advance).
    dirty_topics:
        The topics whose ranked lists the bucket changed, ascending.
    updated:
        Freshly re-evaluated standing results, keyed by query id.
    expired:
        Ids of the standing queries whose TTL elapsed on this bucket.
    """

    bucket: int
    time: Optional[int]
    dirty_topics: Tuple[int, ...]
    updated: Mapping[str, StandingResult] = field(default_factory=dict)
    expired: Tuple[str, ...] = ()


#: Signature of a :meth:`ServiceEngine.add_update_listener` callback.
UpdateListener = Callable[[ServiceUpdate], None]


class ServiceEngine:
    """Maintains many standing k-SIR queries over one shared sliding window.

    Per standing query it holds the cached result, the resolved solver and
    the compiled-terms memo it hands the backend on every evaluation.  A
    memo belongs to one query vector on one backend: unregistering, TTL
    expiry and :meth:`restore_state` drop it with the query.
    """

    def __init__(self, backend: Union[KSIRProcessor, ClusterCoordinator]) -> None:
        self._backend = backend
        self._registry = QueryRegistry()
        self._results: Dict[str, StandingResult] = {}
        # Solver instances resolved once per standing query (algorithms are
        # stateless across select() calls) by register and restore_state.
        self._solvers: Dict[str, KSIRAlgorithm] = {}
        # Registered queries not evaluated yet: always a subset of the registry.
        self._pending: Set[str] = set()
        self._metrics = ServiceMetrics()
        self._listeners: List[UpdateListener] = []
        self._closed = False

    # -- metadata -----------------------------------------------------------------

    @property
    def backend(self) -> Union[KSIRProcessor, ClusterCoordinator]:
        """The execution backend (single-node processor or cluster)."""
        return self._backend

    @property
    def processor(self) -> Optional[KSIRProcessor]:
        """The single-node processor (None when backed by a cluster)."""
        return self._backend if isinstance(self._backend, KSIRProcessor) else None

    @property
    def registry(self) -> QueryRegistry:
        """The standing-query registry."""
        return self._registry

    @property
    def metrics(self) -> ServiceMetrics:
        """Accumulated service metrics."""
        return self._metrics

    # -- registration ----------------------------------------------------------------

    def register(
        self,
        query: KSIRQuery,
        query_id: Optional[str] = None,
        algorithm: Optional[str] = None,
        epsilon: Optional[float] = None,
        ttl_buckets: Optional[int] = None,
    ) -> StandingQuery:
        """Register a standing query; it is first evaluated on the next bucket."""
        require_query_topics(query, self._backend.topic_model.num_topics)
        # Resolve the solver before touching the registry, so an unknown
        # algorithm name fails the registration without leaving an orphan
        # standing query behind.
        solver = self._backend.config.resolve_algorithm(algorithm, epsilon)
        standing = self._registry.register(
            query,
            query_id=query_id,
            algorithm=algorithm,
            epsilon=epsilon,
            ttl_buckets=ttl_buckets,
            at_bucket=self._backend.buckets_processed,
        )
        self._solvers[standing.query_id] = solver
        self._pending.add(standing.query_id)
        return standing

    def unregister(self, query_id: str) -> bool:
        """Drop a standing query and its cached result."""
        removed = self._registry.unregister(query_id)
        self._forget(query_id)
        return removed

    def _forget(self, query_id: str) -> None:
        """Drop what the engine holds for one query id."""
        self._results.pop(query_id, None)
        self._solvers.pop(query_id, None)
        self._pending.discard(query_id)

    # -- update listeners --------------------------------------------------------------

    def add_update_listener(self, listener: UpdateListener) -> None:
        """Subscribe to per-bucket :class:`ServiceUpdate` notifications.

        Listeners fire synchronously at the end of :meth:`ingest_bucket`,
        after the affected standing results were re-evaluated, and must not
        call back into the engine's ingest path.  A listener that raises
        propagates to the ingest caller (the serving tier isolates its
        own failures before this boundary).
        """
        self._listeners.append(listener)

    # -- serving loop -----------------------------------------------------------------

    def ingest_bucket(
        self, elements: Sequence[SocialElement], end_time: int
    ) -> ServiceUpdate:
        """Ingest one bucket and bring the affected standing results up to date.

        Re-evaluates, in sorted id order, exactly the standing queries whose
        topic support meets the bucket's dirty topics plus the registered
        ones never evaluated yet.  Returns the :class:`ServiceUpdate` the
        update listeners receive.
        """
        self._require_open()
        self._backend.process_bucket(elements, end_time)
        dirty = self._backend.take_dirty_topics()

        bucket = self._backend.buckets_processed
        expired_ids: List[str] = []
        for standing in self._registry.prune_expired(bucket):
            self._forget(standing.query_id)
            self._metrics.expired_queries += 1
            expired_ids.append(standing.query_id)

        query_ids = sorted(self._registry.affected_by(dirty) | self._pending)
        with self._metrics.maintenance_timer.measure():
            self._evaluate_many(query_ids)

        self._metrics.buckets += 1
        self._metrics.evaluations += len(query_ids)
        self._metrics.reused += len(self._registry) - len(query_ids)
        update = ServiceUpdate(
            bucket=bucket,
            time=self._backend.current_time,
            dirty_topics=tuple(dirty),
            updated={
                query_id: result
                for query_id in query_ids
                if (result := self.result(query_id)) is not None
            },
            expired=tuple(expired_ids),
        )
        for listener in tuple(self._listeners):
            listener(update)
        return update

    # -- result access -------------------------------------------------------------------

    def result(self, query_id: str) -> Optional[StandingResult]:
        """The cached answer of one standing query, with current staleness.

        The returned record carries a *defensive copy* of the cached
        :class:`~repro.core.query.QueryResult`: callers may mutate the
        result they receive (e.g. annotate ``extras``) without corrupting
        the engine's internal standing-result state.
        """
        stored = self._results.get(query_id)
        if stored is None:
            return None
        staleness = self._backend.buckets_processed - stored.evaluated_at_bucket
        return replace(
            stored,
            result=stored.result.copy(),
            staleness_buckets=max(0, staleness),
        )

    def results(self) -> Dict[str, StandingResult]:
        """Cached answers of every standing query that has been evaluated."""
        return {
            query_id: result
            for query_id in self._registry.ids()
            if (result := self.result(query_id)) is not None
        }

    def report(self) -> str:
        """A human-readable service report (registry size, metrics)."""
        where = (
            "single node"
            if self.processor is not None
            else f"{self._backend.num_shards}-shard cluster"
        )
        header = (
            f"serving {len(self._registry)} standing queries ({where}), "
            f"{self._backend.active_count} active elements at time "
            f"{self._backend.current_time}"
        )
        return header + "\n" + self._metrics.render()

    # -- evaluation -----------------------------------------------------------------------

    def _evaluate_many(self, query_ids: Sequence[str]) -> None:
        bucket = self._backend.buckets_processed
        time = self._backend.current_time
        for query_id in query_ids:
            previous = self._results.get(query_id)
            self._results[query_id] = StandingResult(
                query_id=query_id,
                result=self._evaluate(self._registry.get(query_id)),
                evaluated_at_bucket=bucket,
                evaluated_at_time=time,
                evaluations=1 if previous is None else previous.evaluations + 1,
            )
            self._pending.discard(query_id)

    def _evaluate(self, standing: StandingQuery) -> QueryResult:
        """One standing evaluation: the backend's ad-hoc query, timed by it."""
        result = self._backend.query(
            standing.query,
            algorithm=self._solvers[standing.query_id],
            epsilon=standing.epsilon,
        )
        self._metrics.eval_latency.add(result.elapsed_ms / 1000.0)
        return result

    # -- checkpoint state --------------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """A JSON-serialisable snapshot of the serving state.

        Covers the execution backend (processor or cluster), the
        standing-query registry, the cached standing results and the
        pending (never-evaluated) set.  Service metrics are measurement
        state and restart from zero after a restore; solver instances are
        re-resolved from the restored standing queries.
        """
        self._require_open()
        return {
            "backend": self._backend.state_dict(),
            "registry": self._registry.state_dict(),
            "results": [
                stored.to_dict()
                for _, stored in sorted(self._results.items())
            ],
            "pending": sorted(self._pending),
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot onto this engine.

        Other keys are ignored: older releases also wrote the maintenance
        mode, ``incremental``, which no longer changes anything.
        """
        self._require_open()
        self._backend.restore_state(state["backend"])
        self._registry.restore_state(state["registry"])
        self._metrics = ServiceMetrics()
        self._results = {}
        self._solvers = {
            standing.query_id: self._backend.config.resolve_algorithm(
                standing.algorithm, standing.epsilon
            )
            for standing in self._registry
        }
        self._pending = {
            query_id
            for query_id in map(str, state["pending"])
            if query_id in self._registry
        }
        for payload in state["results"]:
            stored = StandingResult.from_dict(payload)
            if stored.query_id in self._registry:
                self._results[stored.query_id] = stored

    # -- lifecycle ---------------------------------------------------------------------------

    def close(self) -> None:
        """Mark the engine closed: later ingests raise (idempotent)."""
        self._closed = True

    def __enter__(self) -> "ServiceEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("the service engine has been closed")
