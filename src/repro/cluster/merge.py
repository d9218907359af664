"""Merging per-shard candidate pools into one exact evaluation substrate.

The coordinator gathers one :class:`~repro.cluster.worker.CandidatePool` per
shard and needs to run an unmodified k-SIR algorithm over their union.  Two
structures make that possible:

* :class:`MergedCandidateContext` — a :class:`~repro.core.scoring.ScoringContext`
  whose *ground set* (``active_ids``) is exactly the candidate union, while
  its profile table additionally holds the candidates' followers.  Marginal
  gains computed against it equal the single-node values because influence
  gains only ever read follower profiles, and the home shard exports the
  complete follower set of each of its candidates.
* a merged :class:`~repro.core.ranked_list.RankedListIndex` — rebuilt from
  the shards' stored ``δ_i(e)`` tuples via the raw loader, so index-driven
  algorithms (MTTS, MTTD, top-k) traverse the union in the same descending
  order the single-node index would produce restricted to the candidates.

Candidate sets are disjoint across shards (each element's tuples live only on
its home shard), so the merge is a plain union.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import ElementProfile, ScoringConfig, ScoringContext
from repro.cluster.worker import CandidatePool


class MergedCandidateContext(ScoringContext):
    """A scoring snapshot whose ground set is the merged candidate union.

    Batch algorithms (greedy, CELF, SieveStreaming) enumerate
    ``context.active_ids`` as their ground set, so the merged context
    restricts it to the candidates; the profile table keeps the follower
    profiles too, which is what makes every marginal-gain evaluation exact.
    The two dicts are kept, not copied: :func:`merge_candidate_pools` builds
    them for this context alone.
    """

    def __init__(
        self,
        profiles: Dict[int, ElementProfile],
        followers: Dict[int, Tuple[int, ...]],
        config: ScoringConfig,
        candidate_ids: Sequence[int],
        time: Optional[int] = None,
    ) -> None:
        super().__init__(profiles, followers, config, time=time, frozen=True)
        self._candidate_ids = tuple(candidate_ids)

    @property
    def active_ids(self) -> Tuple[int, ...]:
        """The merged candidate union (the selection ground set)."""
        return self._candidate_ids

    @property
    def active_count(self) -> int:
        """Number of candidates in the merged union."""
        return len(self._candidate_ids)


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
    followers: Dict[int, Tuple[int, ...]] = {}
    candidate_ids = []
    index = RankedListIndex(num_topics, config) if build_index else None

    for pool in pools:
        profiles.update(pool.profiles)
        for element_id in pool.candidate_ids:
            candidate_ids.append(element_id)
            followers[element_id] = pool.followers[element_id]
            if index is not None:
                index.insert_scores(
                    element_id,
                    pool.scores[element_id],
                    activity_time=pool.activity[element_id],
                )

    context = MergedCandidateContext(
        profiles=profiles,
        followers=followers,
        config=config,
        candidate_ids=candidate_ids,
        time=time,
    )
    return context, index
