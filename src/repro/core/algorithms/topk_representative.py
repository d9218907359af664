"""Top-k Representative: the k elements with the highest singleton scores.

The paper compares against this baseline to show that classical top-k
processing over the ranked lists (a Fagin-style threshold algorithm) is very
fast but ignores word/influence overlaps, so its result quality degrades as
``k`` grows — it is only ``1/k``-approximate for the k-SIR objective.

The implementation is the textbook threshold algorithm: traverse the ranked
lists in descending merged order, maintain the best ``k`` singleton scores
seen so far, and stop as soon as the k-th best score is at least the upper
bound of any unseen element.  The singletons come with the traversal plan
(:attr:`RankedListTraversal.singles`); only the final set value is
computed by the objective.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.core.algorithms.base import KSIRAlgorithm, SelectionOutcome
from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import KSIRObjective


class TopKRepresentative(KSIRAlgorithm):
    """Threshold-algorithm top-k by singleton representativeness score."""

    name = "topk-representative"
    requires_index = True

    def _select(
        self,
        objective: KSIRObjective,
        k: int,
        index: Optional[RankedListIndex],
    ) -> SelectionOutcome:
        assert index is not None  # guaranteed by KSIRAlgorithm.select
        traversal = index.traversal(objective.query_vector)
        singles = traversal.singles
        # Min-heap of (score, element_id) keeping the best k seen so far.
        best: List[Tuple[float, int]] = []
        retrieved = 0
        while (element_id := traversal.next_id()) is not None:
            score = singles[retrieved]
            retrieved += 1
            if len(best) < k:
                heapq.heappush(best, (score, element_id))
            elif score > best[0][0]:
                heapq.heapreplace(best, (score, element_id))
            if len(best) >= k and best[0][0] >= traversal.upper_bound():
                break

        selected = [element_id for _score, element_id in sorted(best, reverse=True)]
        value = objective.value(selected)
        return SelectionOutcome(
            element_ids=tuple(selected),
            value=value,
            evaluated_elements=retrieved,
            extras={"retrieved": float(retrieved)},
        )
