"""CELF: lazy greedy submodular maximisation (Leskovec et al., KDD 2007).

The paper uses CELF as the main batch baseline: it returns the same
``(1 − 1/e)``-approximate result as plain greedy but exploits submodularity
to skip most re-evaluations.  Each element keeps an upper bound on its
marginal gain (initially its singleton score); at every step the element with
the largest bound is popped, its true marginal gain w.r.t. the current
selection is recomputed, and it is either selected (if it is still the best)
or pushed back with the refreshed bound.

The heap is a plain :mod:`heapq` list of ``(−bound, push number, id)``: an
element is in it at most once, so no entry is ever stale, and the push
number breaks ties between equal bounds first-in first-out.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Optional

from repro.core.algorithms.base import KSIRAlgorithm, SelectionOutcome
from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import KSIRObjective


class CELF(KSIRAlgorithm):
    """Lazy greedy (CELF) selection."""

    name = "celf"
    requires_index = False

    def _select(
        self,
        objective: KSIRObjective,
        k: int,
        index: Optional[RankedListIndex],
    ) -> SelectionOutcome:
        state = objective.new_state()
        heap = [
            (-objective.singleton_score(element_id), position, element_id)
            for position, element_id in enumerate(objective.context.active_ids)
        ]
        heapify(heap)
        pushes = itertools.count(len(heap))

        reevaluations = 0
        while len(state.selected) < k and heap:
            neg_gain, _, element_id = heappop(heap)
            if -neg_gain <= 0.0:
                # Monotone objective: nothing left can improve the score.
                break
            if not state.selected:
                # Singleton scores are exact marginal gains for the empty set.
                objective.add(element_id, state)
                continue
            gain = objective.marginal_gain(element_id, state)
            reevaluations += 1
            if not heap or gain >= -heap[0][0]:
                objective.add(element_id, state)
            else:
                heappush(heap, (-gain, next(pushes), element_id))
        return SelectionOutcome(
            element_ids=tuple(state.selected),
            value=state.value,
            evaluated_elements=objective.evaluated_elements,
            extras={"lazy_reevaluations": float(reevaluations)},
        )
