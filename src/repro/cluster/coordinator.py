"""The cluster coordinator: parallel fan-out ingestion + scatter-gather queries.

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

**Queries** run scatter-gather: every shard walks its ranked lists to export
a bounded :data:`~repro.cluster.worker.CandidatePool` (the per-shard budget
is derived from the algorithm's ``ε`` — an MTTD/MTTS descend admits at most
``k`` elements per round and retrieves no deeper than the ``ε``-termination
threshold, so ``⌈k/ε⌉`` candidates per shard cover every element a descend
could touch in practice), and the coordinator runs the final submodular
selection — any registered algorithm — over the merged union, with batch
algorithms evaluating the merged context and index algorithms traversing the
merged candidate index.

**Exactness.**  Candidate scores and marginal gains are always exact (each
pool carries, per candidate and query topic, the stored ``δ_i``, ``R_i``,
``σ_i`` and the follower edges compiled by the home shard, which sees every
follower of its elements).  Whenever no shard
truncates its export — the ``ε``-derived budget exceeds the shard's
positive-weight support, which ``⌈k/ε⌉`` comfortably does on topical
queries — the merged union contains everything the single-node run could
select and the answer is *identical* to the single node's for every
deterministic algorithm.  A truncated pool keeps index algorithms on their
usual retrieval frontier but restricts batch algorithms (greedy, CELF) to
the per-shard top candidates; use :func:`repro.cluster.verify_equivalence`
to prove the contract on a given stream and configuration, and raise
``candidate_budget`` / ``budget_scale`` when it reports truncation-induced
mismatches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.algorithms import KSIRAlgorithm
from repro.core.element import SocialElement
from repro.core.processor import ProcessorConfig
from repro.core.query import KSIRQuery, QueryResult
from repro.core.scoring import ElementProfile, KSIRObjective, ScoringContext
from repro.core.stream import SocialStream, replay_stream
from repro.cluster.merge import merge_candidate_pools
from repro.cluster.partition import RoutedBucket, ShardPlanner, home_filter
from repro.cluster.transport import (
    TransportBackend,
    create_transport,
    register_transport,
    transport_factory,
)
from repro.cluster.worker import CandidatePool, ShardStats, ShardWorker
from repro.topics.inference import TopicInferencer
from repro.topics.model import TopicModel
from repro.utils.timing import StopWatch, TimingStats
from repro.utils.validation import require_positive

@dataclass(frozen=True)
class ClusterConfig:
    """Configuration of the sharded execution layer.

    Parameters
    ----------
    num_shards:
        Number of partitions (1 degenerates to single-node behaviour with
        routing overhead).
    transport:
        Fan-out transport name resolved through the
        :func:`repro.cluster.register_transport` registry: ``serial``
        (in-process workers, same thread) or ``pipe`` (one OS process per
        shard, pickled payloads over pipes).
    candidate_budget:
        Fixed per-shard candidate budget for queries; ``None`` derives the
        budget from the query algorithm's ``ε`` as
        ``max(k, ⌈budget_scale · k / ε⌉)``.
    budget_scale:
        Multiplier applied to the ε-derived budget (>1 trades latency for an
        even larger safety margin).
    """

    num_shards: int = 4
    transport: str = "serial"
    candidate_budget: Optional[int] = None
    budget_scale: float = 1.0

    def __post_init__(self) -> None:
        require_positive(self.num_shards, "num_shards")
        # An unregistered name (the retired ones included) fails here, not
        # at the first bucket.
        transport_factory(self.transport)
        if self.candidate_budget is not None:
            require_positive(self.candidate_budget, "candidate_budget")
        require_positive(self.budget_scale, "budget_scale")

    def derive_budget(self, k: int, epsilon: float) -> int:
        """The per-shard candidate budget for a ``(k, ε)`` query."""
        if self.candidate_budget is not None:
            return self.candidate_budget
        return max(int(k), int(math.ceil(self.budget_scale * k / max(epsilon, 1e-9))))


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

    def export(self, vector: np.ndarray, budget: Optional[int]) -> List[CandidatePool]:
        return [worker.export_candidates(vector, budget) for worker in self._workers]

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
    """Routes ingestion to shards and answers queries by scatter-gather."""

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
        self._active_cache: Optional[Tuple[int, int]] = None
        self._ingest_timer = TimingStats(name="cluster-ingest")
        self._closed = False

        # The concrete fan-out is resolved through the transport registry
        # (see repro.cluster.transport); built-ins are registered at the
        # bottom of this module, third parties via register_transport().
        self._fanout: TransportBackend = create_transport(
            self._cluster.transport, self
        )

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
        """Active elements across the cluster (each counted on its home shard).

        Memoised per ingested bucket: the count only changes at ingestion,
        and on the process backend reading it costs a full shard broadcast.
        """
        cached = self._active_cache
        if cached is not None and cached[0] == self._buckets_processed:
            return cached[1]
        value = sum(self._fanout.home_active_counts())
        self._active_cache = (self._buckets_processed, value)
        return value

    @property
    def ingest_timer(self) -> TimingStats:
        """Coordinator-side per-bucket fan-out wall times."""
        return self._ingest_timer

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
        through untouched).
        """
        return self._inferencer.with_topics(elements)

    def process_bucket(self, elements: Sequence[SocialElement], end_time: int) -> None:
        """Route one bucket to the shards and advance every shard window."""
        self._require_open()
        with self._ingest_timer.measure():
            prepared = self.prepare_elements(elements)
            self._fanout.ingest(self._planner.route_bucket(prepared), end_time)
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
        """Answer a k-SIR query by scatter-gather over the shards.

        Accepts the same inputs as :meth:`KSIRProcessor.query`.  The final
        selection runs the resolved algorithm over the merged per-shard
        candidate pools; scores are exact because each pool carries, per
        candidate and query topic, the scoring record its home shard
        compiled from the candidate's profile and complete follower set.
        """
        self._require_open()
        ksir_query = KSIRQuery.coerce(query, k)
        solver = self._config.resolve_algorithm(algorithm, epsilon)
        solver_epsilon = getattr(solver, "epsilon", None)
        if solver_epsilon is None:
            solver_epsilon = (
                self._config.default_epsilon if epsilon is None else epsilon
            )
        budget = self._cluster.derive_budget(ksir_query.k, float(solver_epsilon))

        watch = StopWatch()
        watch.start()
        pools = self._fanout.export(ksir_query.vector, budget)
        context, index = merge_candidate_pools(
            pools,
            num_topics=self._model.num_topics,
            config=self._config.scoring,
            time=self._current_time,
            build_index=solver.requires_index,
        )
        objective = KSIRObjective(context, ksir_query.vector)
        outcome = solver.select(
            objective,
            ksir_query.k,
            index=index if solver.requires_index else None,
        )
        elapsed = watch.stop()

        extras = dict(outcome.extras)
        extras["shards"] = float(self.num_shards)
        extras["candidate_budget"] = float(budget)
        extras["merged_candidates"] = float(context.active_count)
        return QueryResult(
            element_ids=outcome.element_ids,
            score=outcome.value,
            algorithm=solver.name,
            elapsed_ms=elapsed * 1000.0,
            evaluated_elements=outcome.evaluated_elements,
            active_elements=self.active_count,
            extras=extras,
        )

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
            # The shard's sparse follower view (absent id = no follower)
            # instead of one adjacency call per element.
            shard_followers = window.followers_snapshot()
            for element_id in window.active_ids():
                if not processor.is_home(element_id):
                    continue
                profiles[element_id] = processor.profile(element_id)
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
        """Restore a :meth:`state_dict` snapshot onto this coordinator."""
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
        self._active_cache = None
        self._planner.restore_state(state["planner"])
        self._fanout.restore_all(shard_states)

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
        self._active_cache = None

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
        self._fanout.ingest_shard(routed[shard_id], end_time)

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


# -- built-in transport factories ------------------------------------------------------


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


register_transport("serial", _serial_transport)
register_transport("pipe", _pipe_transport)
