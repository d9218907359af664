"""Merging per-shard candidate pools into one exact evaluation substrate.

The coordinator gathers one :data:`~repro.cluster.worker.CandidatePool` per
shard and needs to run an unmodified k-SIR algorithm over their union.  Two
structures make that possible:

* :class:`MergedCandidateContext` — an
  :class:`~repro.core.scoring.ObjectiveContext` whose *ground set*
  (``active_ids``) is exactly the candidate union and whose compiled terms
  are read straight off the shipped records: ``R_i(e)``, ``σ_i(·, e)`` and
  the follower edges the candidates' home shards compiled.  A marginal gain
  reads those and nothing else, and the home shard sees the complete
  follower set of each of its candidates, so gains computed against it
  equal the single-node values — without the coordinator seeing a profile,
  a follower or an edge it did not ship.
* a merged :class:`~repro.core.ranked_list.RankedListIndex` — loaded from the
  shards' stored ``δ_i(e)`` (one sorted load per topic), so index-driven
  algorithms (MTTS, MTTD, top-k) traverse the union in the same descending
  order the single-node index would produce restricted to the candidates.

Candidate sets are disjoint across shards (each element's tuples live only on
its home shard), so the merge is a plain union.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import ScoringConfig, Terms
from repro.cluster.worker import CandidatePool


class MergedCandidateContext:
    """The objective's view of the merged candidate records.

    Its ground set is the candidates only, so batch algorithms (greedy,
    CELF, SieveStreaming), which enumerate ``context.active_ids``, select
    from the union.  It is not a window snapshot: it holds no profiles and
    no follower view (:meth:`ClusterCoordinator.snapshot` is the whole-window
    context).  The records are kept, not copied: :func:`merge_candidate_pools`
    builds the dict for this context alone.
    """

    def __init__(
        self,
        records: CandidatePool,
        config: ScoringConfig,
        time: Optional[int] = None,
    ) -> None:
        self._records = records
        self._config = config
        self._weights = (config.lambda_weight, config.influence_weight)
        self._time = time

    @property
    def config(self) -> ScoringConfig:
        """The scoring configuration."""
        return self._config

    @property
    def time(self) -> Optional[int]:
        """The query time ``t``."""
        return self._time

    @property
    def active_ids(self) -> Tuple[int, ...]:
        """The candidate union, pool by pool in retrieval order."""
        return tuple(self._records)

    @property
    def active_count(self) -> int:
        """The number of merged candidates."""
        return len(self._records)

    def __contains__(self, element_id: int) -> bool:
        return element_id in self._records

    def compile_terms(
        self, element_id: int, query_topics: Sequence[Tuple[int, float]]
    ) -> Terms:
        """:meth:`ScoringContext.compile_terms` over the shipped floats."""
        held = self._records[element_id][1]
        lambda_weight, influence_weight = self._weights
        compiled = []
        for topic, weight in query_topics:
            record = held.get(topic)
            if record is not None:
                _, semantic, words, edges = record
                compiled.append((
                    topic, weight,
                    lambda_weight * semantic + influence_weight * edges[2],
                    semantic, words, edges,
                ))
        return tuple(compiled)


def merge_candidate_pools(
    pools: Sequence[CandidatePool],
    num_topics: int,
    config: ScoringConfig,
    time: Optional[int] = None,
    build_index: bool = True,
) -> Tuple[MergedCandidateContext, Optional[RankedListIndex]]:
    """Union the per-shard pools into a context (and optionally an index).

    Candidates are interleaved across pools in descending stored-score
    retrieval order by the merged index itself; the context's candidate
    order follows the pools' export order (shard by shard), which only
    matters for deterministic iteration, not for correctness.
    """
    records: CandidatePool = {}
    for pool in pools:
        records.update(pool)
    index = None
    if build_index:
        index = RankedListIndex(num_topics, config)
        index.load(
            (element_id, activity, {topic: record[0] for topic, record in held.items()})
            for element_id, (activity, held) in records.items()
        )
    return MergedCandidateContext(records, config, time=time), index
