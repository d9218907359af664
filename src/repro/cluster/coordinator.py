"""The cluster coordinator: parallel fan-out ingestion + replica queries.

:class:`ClusterCoordinator` is the sharded drop-in for
:class:`~repro.core.processor.KSIRProcessor`: it exposes the same
``process_bucket`` / ``process_stream`` / ``query`` surface, but executes them
over ``N`` :class:`~repro.cluster.worker.ShardWorker` partitions planned by a
:class:`~repro.cluster.partition.ShardPlanner`.

**Ingestion** routes each element to its home shard plus the home shards of
its references (exact influence accounting; see the partition module)
and fans the routed buckets out over the configured transport: ``serial``
(in-process workers, the default and the reference every recorded answer
runs on) or ``pipe`` (one OS process per shard, for isolation and
`repro.ha` failover).

**Queries** read a replica the coordinator keeps of every shard's home
scoring records, with one ranked-list index over them
(:mod:`repro.cluster.merge`).  The first query after a bucket or a restore
pulls one :class:`~repro.cluster.worker.ShardDelta` per shard — the records
the bucket changed — and folds them in; later queries on the same window
send nothing to the shards.  Any registered algorithm then runs over the
replica: index algorithms traverse its index, batch algorithms evaluate
the query's candidates.

**Exactness.**  The replica holds what the single node's index and
objective read: the stored ``δ_i``, ``R_i``, ``σ_i`` and the follower
edges compiled by the home shard, which sees every follower of its
elements.  So every deterministic algorithm answers as the single node
does, at any ``k`` and ``ε``; SieveStreaming reads its ground set in
order, and the replica's (ascending id) is not the single node's
activation order.  :func:`repro.cluster.verify_equivalence` checks a
stream on both paths.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.algorithms import KSIRAlgorithm
from repro.core.element import SocialElement
from repro.core.processor import ProcessorConfig
from repro.core.query import KSIRQuery, QueryResult, require_query_topics
from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import (
    ElementProfile,
    KSIRObjective,
    ScoringContext,
    TermMemo,
    topic_distributions,
)
from repro.core.stream import SocialStream, replay_stream
from repro.cluster.merge import MergedCandidateContext, Records, merge_candidate_pools
from repro.cluster.partition import RoutedBucket, ShardPlanner, home_filter
from repro.cluster.transport import TransportBackend
from repro.cluster.worker import ShardDelta, ShardStats, ShardWorker
from repro.topics.inference import TopicInferencer
from repro.topics.model import TopicModel
from repro.utils.timing import StopWatch
from repro.utils.validation import require_forward, require_positive

@dataclass(frozen=True)
class ClusterConfig:
    """Configuration of the sharded execution layer.

    Parameters
    ----------
    num_shards:
        Number of partitions (1 degenerates to single-node behaviour with
        routing overhead).
    transport:
        Fan-out transport, one of :func:`transport_names` (case-insensitive):
        ``serial`` (in-process workers, same thread) or ``pipe`` (one OS
        process per shard, pickled payloads over pipes).
    candidate_budget:
        Has no effect (queries read the coordinator's replica of every
        shard's records: no export to bound); validated, because
        configurations that set it must keep constructing.
    """

    num_shards: int = 4
    transport: str = "serial"
    candidate_budget: Optional[int] = None

    def __post_init__(self) -> None:
        require_positive(self.num_shards, "num_shards")
        # An unknown name (the retired ones included) fails here, not at
        # the first bucket.
        _transport(self.transport)
        if self.candidate_budget is not None:
            require_positive(self.candidate_budget, "candidate_budget")


class _LocalFanout:
    """Same-thread fan-out over in-process shard workers (``serial``)."""

    def __init__(self, workers: Sequence[ShardWorker]):
        self._workers = list(workers)

    @property
    def workers(self) -> Tuple[ShardWorker, ...]:
        return tuple(self._workers)

    def ingest(self, routed: Sequence[RoutedBucket], end_time: int) -> None:
        for bucket in routed:
            self.ingest_shard(bucket, end_time)

    def ingest_shard(self, bucket: RoutedBucket, end_time: int) -> None:
        self._workers[bucket.shard_id].ingest(
            bucket.elements, end_time, home_count=bucket.home_count
        )

    def sync(self, generations: Sequence[Optional[int]]) -> List[ShardDelta]:
        return [
            worker.sync(generation)
            for worker, generation in zip(self._workers, generations)
        ]

    def take_dirty_topics(self) -> Set[int]:
        dirty: Set[int] = set()
        for worker in self._workers:
            dirty.update(worker.take_dirty_topics())
        return dirty

    def home_active_counts(self) -> List[int]:
        return [worker.home_active_count for worker in self._workers]

    def stats(self) -> List[ShardStats]:
        return [worker.stats() for worker in self._workers]

    def states(self) -> List[Dict[str, object]]:
        return [worker.state_dict() for worker in self._workers]

    def restore_all(self, states: Sequence[Mapping[str, object]]) -> None:
        for worker, state in zip(self._workers, states):
            worker.restore_state(state)

    def restore_shard(self, shard_id: int, state: Mapping[str, object]) -> None:
        self._workers[shard_id].restore_state(state)

    def close(self) -> None:
        """Nothing to release."""


class ClusterCoordinator:
    """Routes ingestion to shards; answers queries from its replica of them."""

    def __init__(
        self,
        topic_model: TopicModel,
        config: Optional[ProcessorConfig] = None,
        cluster: Optional[ClusterConfig] = None,
        inferencer: Optional[TopicInferencer] = None,
    ) -> None:
        self._model = topic_model
        self._config = config or ProcessorConfig()
        self._cluster = cluster or ClusterConfig()
        self._inferencer = inferencer or TopicInferencer(topic_model)
        self._planner = ShardPlanner(self._cluster.num_shards)
        self._buckets_processed = 0
        self._elements_processed = 0
        self._current_time: Optional[int] = None
        self._closed = False
        # The replica (see repro.cluster.merge): a sync and the selection
        # that reads it hold the lock.  ``_changes`` counts what was done to
        # the shards, ``_synced`` is its value at the last applied sync.
        self._lock = threading.Lock()
        self._changes = 0
        # ``element id → terms`` compiled from the replica, shared by every
        # query; it follows the records (see _sync and _forget_replica).
        self._term_memo: TermMemo = {}
        self._forget_replica()

        self._fanout: TransportBackend = _transport(self._cluster.transport)(self)

    # -- metadata -----------------------------------------------------------------

    @property
    def topic_model(self) -> TopicModel:
        """The shared topic-model oracle."""
        return self._model

    @property
    def config(self) -> ProcessorConfig:
        """The per-shard processor configuration."""
        return self._config

    @property
    def cluster_config(self) -> ClusterConfig:
        """The sharding configuration."""
        return self._cluster

    @property
    def planner(self) -> ShardPlanner:
        """The shard planner (routing; ownership is ``shard_of``)."""
        return self._planner

    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return self._cluster.num_shards

    @property
    def workers(self) -> Tuple[ShardWorker, ...]:
        """The in-process shard workers (empty on the ``pipe`` transport)."""
        return self._fanout.workers

    @property
    def fanout(self) -> TransportBackend:
        """The fan-out transport (``repro.ha`` uses it for liveness probes)."""
        return self._fanout

    @property
    def buckets_processed(self) -> int:
        """Buckets ingested so far."""
        return self._buckets_processed

    @property
    def elements_processed(self) -> int:
        """Stream elements ingested so far (before replication)."""
        return self._elements_processed

    @property
    def current_time(self) -> Optional[int]:
        """The time of the last processed bucket."""
        return self._current_time

    @property
    def active_count(self) -> int:
        """Active elements across the cluster: the replica's records, one per
        element on its home shard (synced first, as a query does)."""
        with self._lock:
            self._sync()
            return len(self._records)

    def shard_stats(self) -> List[ShardStats]:
        """Per-shard accounting snapshots."""
        return self._fanout.stats()

    def take_dirty_topics(self) -> Tuple[int, ...]:
        """Union of the shards' dirty-topic sets since the last drain."""
        return tuple(sorted(self._fanout.take_dirty_topics()))

    # -- ingestion -----------------------------------------------------------------

    def prepare_elements(self, elements: Sequence[SocialElement]) -> List[SocialElement]:
        """Infer missing topic distributions once per bucket, before routing.

        Central inference keeps replicas byte-identical across shards and
        means shard workers (including remote processes) never have to run
        the inferencer themselves.  The supervisor logs *prepared* elements
        so a replay after failover never re-runs inference; preparation is
        idempotent (elements that already carry a topic distribution pass
        through untouched).  A distribution that is not ``num_topics``
        probabilities raises here, before any shard sees the bucket.
        """
        prepared = self._inferencer.with_topics(elements)
        topic_distributions(prepared, self._model.num_topics)
        return prepared

    def process_bucket(self, elements: Sequence[SocialElement], end_time: int) -> None:
        """Route one bucket to the shards and advance every shard window.

        An ``end_time`` before the cluster's current time raises
        ``ValueError`` before any shard sees the bucket.
        """
        self._require_open()
        require_forward(self._current_time, end_time)
        prepared = self.prepare_elements(elements)
        try:
            self._fanout.ingest(self._planner.route_bucket(prepared), end_time)
        finally:
            self._changes += 1
        self.commit_bucket(len(prepared), end_time)

    def commit_bucket(self, num_elements: int, end_time: int) -> None:
        """Advance the coordinator counters after a bucket reached the shards.

        Split out of :meth:`process_bucket` for the `repro.ha` supervisor: a
        mid-bucket shard failure leaves the live shards *with* the bucket
        applied but the counters not yet advanced; after the supervisor
        restores the dead shard and replays the gap (including that bucket)
        it commits the bucket here instead of re-ingesting it — re-ingestion
        into the live shards would double-count reposts.
        """
        self._elements_processed += int(num_elements)
        self._buckets_processed += 1
        self._current_time = int(end_time)

    def process_stream(
        self,
        stream: Union[SocialStream, Iterable[SocialElement]],
        until: Optional[int] = None,
    ) -> None:
        """Replay a whole stream (or until ``until``) through the cluster."""
        replay_stream(stream, self._config.bucket_length, self.process_bucket, until)

    # -- query processing -------------------------------------------------------------

    def query(
        self,
        query: Union[KSIRQuery, np.ndarray, Sequence[float]],
        k: Optional[int] = None,
        algorithm: Union[str, KSIRAlgorithm, None] = None,
        epsilon: Optional[float] = None,
    ) -> QueryResult:
        """Answer a k-SIR query over the coordinator's replica.

        Accepts the same inputs as :meth:`KSIRProcessor.query`.  The first
        query after a bucket or a restore syncs the replica (one round trip
        per shard, carrying what the bucket changed); then the resolved
        algorithm runs over it.  Scores are exact because the replica holds,
        per element and topic, the scoring record its home shard compiled
        from the element's profile and complete follower set.  Queries from
        several threads run one at a time.  A query vector must have one
        entry per topic of the model.
        """
        self._require_open()
        ksir_query = KSIRQuery.coerce(query, k)
        require_query_topics(ksir_query, self._model.num_topics)
        solver = self._config.resolve_algorithm(algorithm, epsilon)
        with self._lock:
            watch = StopWatch()
            watch.start()
            self._sync()
            context = MergedCandidateContext(
                self._records, ksir_query.vector, self._config.scoring,
                time=self._current_time, compiled=self._term_memo,
            )
            outcome = solver.select(
                KSIRObjective(context, ksir_query.vector),
                ksir_query.k,
                index=self._index if solver.requires_index else None,
            )
            elapsed = watch.stop()
            active = len(self._records)

        extras = dict(outcome.extras)
        extras["shards"] = float(self.num_shards)
        return QueryResult(
            element_ids=outcome.element_ids,
            score=outcome.value,
            algorithm=solver.name,
            elapsed_ms=elapsed * 1000.0,
            evaluated_elements=outcome.evaluated_elements,
            active_elements=active,
            extras=extras,
        )

    def _sync(self) -> None:
        """Bring the replica up to the shards (lock held); a no-op until
        something is done to them.  Replies are folded in, and their
        generations kept, only once every shard has answered.  The ids
        whose records a reply replaced or removed leave the term memo with
        them: every entry stays what the replica compiles to."""
        changes = self._changes
        if self._synced == changes:
            return
        replies = self._fanout.sync(self._generations)
        stale = merge_candidate_pools(replies, self._records, self._index, self.num_shards)
        term_memo = self._term_memo
        for element_id in stale:
            term_memo.pop(element_id, None)
        self._generations = [reply.generation for reply in replies]
        self._synced = changes

    def _forget_replica(self) -> None:
        """Start the replica over: the next sync is a full dump of every shard.

        The term memo is cleared here, not at that sync: with no records
        left, the full replies carry no stale id, so the sync would drop no
        entry.
        """
        with self._lock:
            self._term_memo.clear()
            self._records: Records = {}
            self._index = RankedListIndex(self._model.num_topics, self._config.scoring)
            self._generations: List[Optional[int]] = [None] * self.num_shards
            self._synced: Optional[int] = None

    def snapshot(self) -> ScoringContext:
        """A frozen scoring snapshot of the whole cluster's active window.

        Each element's profile and follower view are taken from its *home*
        shard (which sees the complete follower set, because every follower
        is routed there), so the merged context equals the one a single
        node would build over the same stream.  Requires in-process shard
        workers; the process fan-out keeps its windows in worker processes
        and does not support global snapshots.
        """
        workers = self.workers
        if not workers:
            raise RuntimeError(
                "global snapshots are not available on the process fan-out "
                "backend (shard windows live in worker processes)"
            )
        profiles: Dict[int, ElementProfile] = {}
        followers: Dict[int, Tuple[int, ...]] = {}
        for worker in workers:
            processor = worker.processor
            window = processor.window
            # The shard's live sparse follower view (absent id = no
            # follower), read here into this context's own map.
            shard_followers = window.follower_view()
            for element_id in window.active_ids():
                if not processor.is_home(element_id):
                    continue
                profiles[element_id] = processor.profiles[element_id]
                followers[element_id] = shard_followers.get(element_id, ())
        return ScoringContext(
            profiles=profiles,
            followers=followers,
            config=self._config.scoring,
            time=self._current_time,
        )

    # -- checkpoint state --------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """A JSON-serialisable snapshot of the whole cluster.

        Serialises the coordinator counters, the planner (the shard count:
        ownership is a function, not state) and every shard worker (gathered
        over the pipes on the ``pipe`` transport), so every transport is
        checkpointable and a checkpoint taken on one loads on the other.
        """
        return {
            "buckets_processed": self._buckets_processed,
            "elements_processed": self._elements_processed,
            "current_time": self._current_time,
            "planner": self._planner.state_dict(),
            "workers": self._fanout.states(),
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot onto this coordinator (the
        replica starts over: it is never part of the state)."""
        shard_states = state["workers"]
        if len(shard_states) != self._cluster.num_shards:
            raise ValueError(
                f"checkpoint holds {len(shard_states)} shards, the coordinator "
                f"is configured for {self._cluster.num_shards}"
            )
        self._buckets_processed = int(state["buckets_processed"])
        self._elements_processed = int(state["elements_processed"])
        current_time = state["current_time"]
        self._current_time = None if current_time is None else int(current_time)
        self._planner.restore_state(state["planner"])
        self._fanout.restore_all(shard_states)
        self._forget_replica()

    # -- failover hooks (repro.ha) ------------------------------------------------------

    def restore_shard(self, shard_id: int, state: Mapping[str, object]) -> None:
        """Restore a single shard worker from a :meth:`state_dict` snapshot.

        Used by the supervisor after :meth:`ProcessFanout.restart_shard`:
        the fresh worker process receives the shard's slice of the latest
        checkpoint; the WAL gap follows through
        :meth:`replay_bucket_to_shard`.
        """
        self._planner.restore_state(state["planner"])
        self._fanout.restore_shard(shard_id, state["workers"][shard_id])
        self._forget_replica()

    def replay_bucket_to_shard(
        self, shard_id: int, elements: Sequence[SocialElement], end_time: int
    ) -> None:
        """Re-ingest one logged bucket into a single shard (WAL gap replay).

        Routing is a pure function of the elements, so the replayed slice
        is the one the shard received (or would have) the first time.  Only
        the slice destined for ``shard_id`` is shipped; the other shards
        already hold the bucket.
        """
        routed = self._planner.route_bucket(self.prepare_elements(elements))
        try:
            self._fanout.ingest_shard(routed[shard_id], end_time)
        finally:
            self._changes += 1

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Shut down the fan-out backend (idempotent)."""
        if not self._closed:
            self._fanout.close()
            self._closed = True

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("the cluster coordinator has been closed")


# -- the transports ------------------------------------------------------------------


def _serial_transport(coordinator: ClusterCoordinator) -> TransportBackend:
    """In-process workers, driven from the calling thread."""
    return _LocalFanout(
        [
            ShardWorker(
                shard_id,
                coordinator.topic_model,
                coordinator.config,
                inferencer=coordinator._inferencer,
                home_filter=home_filter(shard_id, coordinator.num_shards),
            )
            for shard_id in range(coordinator.num_shards)
        ]
    )


def _pipe_transport(coordinator: ClusterCoordinator) -> TransportBackend:
    """One OS process per shard; pickled payloads over pipes."""
    # Imported lazily: the process fan-out pulls in multiprocessing
    # machinery that in-process users never need.
    from repro.cluster.process_backend import ProcessFanout

    return ProcessFanout(
        coordinator.num_shards, coordinator.topic_model, coordinator.config
    )


#: The fan-out transport each ``ClusterConfig.transport`` name builds.
_TRANSPORTS: Dict[str, Callable[[ClusterCoordinator], TransportBackend]] = {
    "serial": _serial_transport,
    "pipe": _pipe_transport,
}


def transport_names() -> Tuple[str, ...]:
    """The transport names ``ClusterConfig.transport`` accepts, sorted."""
    return tuple(sorted(_TRANSPORTS))


def _transport(name: str) -> Callable[[ClusterCoordinator], TransportBackend]:
    try:
        return _TRANSPORTS[name.strip().lower()]
    except KeyError as error:
        raise ValueError(
            f"unknown cluster transport {name!r}; available: "
            f"{', '.join(transport_names())} (the thread-pool and shared-memory "
            "transports were retired in PR 16 after losing to 'serial' and "
            "'pipe' on every end-to-end metric: use those)"
        ) from error
