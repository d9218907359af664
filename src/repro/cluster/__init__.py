"""repro.cluster — sharded parallel execution for k-SIR processing.

The cluster layer partitions the stream across ``N`` shards, each owning a
partition-restricted :class:`~repro.core.processor.KSIRProcessor`, and keeps
sharding *transparent*: queries return exactly the single-node answers.

* :func:`shard_of` / :class:`ShardPlanner` — the
  element → home-shard function (a hash of the id, nothing remembered) and
  the routing of followers to their parents' shards (exact influence);
* :class:`ShardWorker` / :class:`ShardDelta` — per-shard ingestion and the
  sync of the coordinator's replica (per changed element, its scoring
  record, not its profile);
* :class:`ClusterCoordinator` / :class:`ClusterConfig` — fan-out
  ingestion, the replica of every shard's records and the final
  submodular selection over it;
* :class:`TransportBackend` / :func:`transport_names` — the formal
  fan-out protocol and the two transports ``ClusterConfig.transport``
  names: ``serial`` (in-process, the default) and ``pipe`` (one process
  per shard);
* :func:`merge_candidate_pools` / :class:`MergedCandidateContext` — the
  fold of a sync into the replica, and the exact evaluation substrate a
  query compiles from it;
* :func:`verify_equivalence` — replay-and-compare harness proving sharded
  answers match single-node answers.
"""

from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator, transport_names
from repro.cluster.merge import MergedCandidateContext, merge_candidate_pools
from repro.cluster.partition import RoutedBucket, ShardPlanner, shard_of
from repro.cluster.transport import TransportBackend
from repro.cluster.verify import EquivalenceReport, QueryComparison, verify_equivalence
from repro.cluster.worker import ShardDelta, ShardStats, ShardWorker

__all__ = [
    "ClusterConfig",
    "ClusterCoordinator",
    "EquivalenceReport",
    "MergedCandidateContext",
    "QueryComparison",
    "RoutedBucket",
    "ShardDelta",
    "ShardPlanner",
    "ShardStats",
    "ShardWorker",
    "TransportBackend",
    "merge_candidate_pools",
    "shard_of",
    "transport_names",
    "verify_equivalence",
]
