"""The coordinator's replica of the shards' scoring records.

The coordinator keeps the :data:`~repro.cluster.worker.Record` of every
shard's home-active elements and one
:class:`~repro.core.ranked_list.RankedListIndex` over their stored
``δ_i(e)``.  :func:`merge_candidate_pools` folds one sync's
:class:`~repro.cluster.worker.ShardDelta` replies into both; index
algorithms (MTTS, MTTD, top-k) traverse that index in the single-node
order, because it holds the same tuples.  :class:`MergedCandidateContext`
is one query's :class:`~repro.core.scoring.ObjectiveContext` over the
records: it compiles terms from ``R_i(e)``, ``σ_i(·, e)`` and the follower
edges the home shard compiled (it sees every follower of its elements), so
gains equal the single node's without a profile or follower reaching the
coordinator; it compiles into the coordinator's term memo, which every
query shares.  Shards' shares are disjoint: a record comes from its home.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import ScoringConfig, TermMemo, Terms
from repro.cluster.partition import shard_of
from repro.cluster.worker import Record, ShardDelta

#: The replica: ``element id → Record`` of every shard's home-active elements.
Records = Dict[int, Record]


class MergedCandidateContext:
    """The objective's view of the replica for one query.

    Its ground set, which batch algorithms (greedy, CELF, SieveStreaming)
    enumerate, is the elements holding a positive-weight query topic, in
    ascending id order: no sync history changes it.  It is no window
    snapshot — no profiles, no follower view.  The records are the
    coordinator's, read under its lock; so is ``compiled``, the
    coordinator's term memo, whose every entry is what these records
    compile to (a context built on its own owns an empty one).
    """

    def __init__(
        self,
        records: Records,
        query_vector: np.ndarray,
        config: ScoringConfig,
        time: Optional[int] = None,
        compiled: Optional[TermMemo] = None,
    ) -> None:
        self._records = records
        self._term_memo: TermMemo = {} if compiled is None else compiled
        self._topics = frozenset(
            topic for topic, weight in enumerate(query_vector) if weight > 0.0
        )
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
        """The query's candidates, ascending."""
        topics = self._topics
        return tuple(sorted(
            element_id for element_id, (_, held) in self._records.items()
            if not topics.isdisjoint(held)
        ))

    @property
    def active_count(self) -> int:
        """The number of candidates."""
        return len(self.active_ids)

    def __contains__(self, element_id: int) -> bool:
        record = self._records.get(element_id)
        return record is not None and not self._topics.isdisjoint(record[1])

    def terms(self, element_id: int) -> Terms:
        """:meth:`ScoringContext.terms` over the replica."""
        terms = self._term_memo.get(element_id)
        if terms is None:
            terms = self._term_memo[element_id] = self.compile_terms(element_id)
        return terms

    def compile_terms(self, element_id: int) -> Terms:
        """:meth:`ScoringContext.compile_terms` over the replicated floats:
        one term per topic the record holds (its home profile's, ascending)."""
        lambda_weight, influence_weight = self._weights
        return tuple(
            (topic, lambda_weight * semantic + influence_weight * edges[2], semantic, words, edges)
            for topic, (_, semantic, words, edges) in self._records[element_id][1].items()
        )


def merge_candidate_pools(
    replies: Sequence[ShardDelta],
    records: Records,
    index: RankedListIndex,
    num_shards: int,
) -> List[int]:
    """Fold one sync's replies (one per shard, in shard order) into the
    replica: a delta's changed and gone ids leave it, a full reply's shard
    loses its whole share, then the new records and their ``δ_i`` go in — a
    re-post that dropped a topic leaves no tuple behind.  Returns the ids
    that left (the stale ones, whether or not a new record replaced them)."""
    dropped: List[int] = []
    for shard_id, reply in enumerate(replies):
        if reply.full:
            stale = [
                element_id for element_id in records
                if shard_of(element_id, num_shards) == shard_id
            ]
        else:
            stale = [*reply.records, *reply.gone]
        index.bulk_update(removes=stale)
        for element_id in stale:
            records.pop(element_id, None)
        dropped.extend(stale)
        records.update(reply.records)
        index.load(
            (element_id, activity, {topic: record[0] for topic, record in held.items()})
            for element_id, (activity, held) in reply.records.items()
        )
    return dropped
