"""Merging per-shard candidate pools into one exact evaluation substrate.

The coordinator gathers one :class:`~repro.cluster.worker.CandidatePool` per
shard and needs to run an unmodified k-SIR algorithm over their union.  Two
structures make that possible:

* :class:`MergedCandidateContext` — a :class:`~repro.core.scoring.ScoringContext`
  whose *ground set* (``active_ids``) is exactly the candidate union and whose
  edge memo is the follower edges the candidates' home shards compiled.  A
  marginal gain reads a candidate's profile and its edges and nothing else,
  and the home shard sees the complete follower set of each of its
  candidates, so gains computed against it equal the single-node values —
  without the coordinator compiling an edge or seeing a follower.
* a merged :class:`~repro.core.ranked_list.RankedListIndex` — loaded from the
  shards' stored ``δ_i(e)`` tuples (one sorted load per topic), so
  index-driven algorithms (MTTS, MTTD, top-k) traverse the union in the same
  descending order the single-node index would produce restricted to the
  candidates.

Candidate sets are disjoint across shards (each element's tuples live only on
its home shard), so the merge is a plain union.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import EdgeMemo, ElementProfile, ScoringConfig, ScoringContext
from repro.cluster.worker import CandidatePool

#: One candidate's entry of the edge memo: ``topic → (followers, edges, Σ)``.
_FollowerEdges = Mapping[int, Tuple[Tuple[int, ...], Tuple[float, ...], float]]
_NO_FOLLOWERS: _FollowerEdges = MappingProxyType({})


class MergedCandidateContext(ScoringContext):
    """A scoring snapshot whose ground set is the merged candidate union.

    Its profile table holds the candidates only, so batch algorithms
    (greedy, CELF, SieveStreaming), which enumerate ``context.active_ids``,
    select from the union; its edge memo is what the home shards shipped.
    It has no follower view: the naive set evaluators built on
    :meth:`followers_of` do not apply here
    (:meth:`ClusterCoordinator.snapshot` is the whole-window context).
    The dicts are kept, not copied: :func:`merge_candidate_pools` builds them
    for this context alone.
    """

    def __init__(
        self,
        profiles: Dict[int, ElementProfile],
        edges: EdgeMemo,
        config: ScoringConfig,
        time: Optional[int] = None,
    ) -> None:
        super().__init__(profiles, {}, config, time=time, frozen=True, edges=edges)

    def follower_edges(self, element_id: int) -> _FollowerEdges:
        """The edges the candidate's home shard compiled (empty without followers)."""
        return self._edge_memo.get(element_id, _NO_FOLLOWERS)


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
    profiles: Dict[int, ElementProfile] = {}
    edges: EdgeMemo = {}
    for pool in pools:
        profiles.update(pool.profiles)
        edges.update(pool.edges)
    index = None
    if build_index:
        index = RankedListIndex(num_topics, config)
        index.load(
            (element_id, pool.activity[element_id], scores)
            for pool in pools
            for element_id, scores in pool.scores.items()
        )
    return MergedCandidateContext(profiles, edges, config, time=time), index
