"""MTTS — Multi-Topic ThresholdStream (Algorithm 2 of the paper).

MTTS combines two ideas:

1. the *thresholding* approach to streaming submodular maximisation: a
   geometric grid of guesses ``ϕ = (1+ε)^j`` for ``OPT`` is maintained, each
   with an independent candidate ``S_ϕ`` that admits an element whenever its
   marginal gain reaches ``ϕ / 2k``;
2. *ranked-list pruning*: elements are fed to the candidates in decreasing
   order of ``x_i · δ_i(e)`` by merging the per-topic ranked lists, and the
   procedure stops as soon as the upper bound ``UB(x)`` on any unevaluated
   element's score drops below the smallest admission threshold ``TH`` of an
   unfilled candidate.

The returned candidate with the maximum score is a ``(1/2 − ε)``-approximate
answer, and every active element is evaluated at most once.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional

from repro.core.algorithms.base import KSIRAlgorithm, SelectionOutcome
from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import KSIRObjective, ObjectiveState
from repro.utils.validation import require_in_range


class MTTS(KSIRAlgorithm):
    """Multi-Topic ThresholdStream.

    Parameters
    ----------
    epsilon:
        The grid resolution ``ε ∈ (0, 1)``; smaller values give a better
        approximation (``1/2 − ε``) at the cost of more candidates
        (``O(log k / ε)`` of them).
    """

    name = "mtts"
    requires_index = True

    def __init__(self, epsilon: float = 0.1) -> None:
        require_in_range(epsilon, "epsilon", 0.0, 1.0, low_inclusive=False, high_inclusive=False)
        self.epsilon = float(epsilon)

    def __repr__(self) -> str:
        return f"MTTS(epsilon={self.epsilon})"

    # -- threshold grid ----------------------------------------------------------

    def _grid_range(self, delta_max: float, k: int) -> range:
        """Exponents ``j`` with ``δ_max ≤ (1+ε)^j ≤ 2·k·δ_max``."""
        if delta_max <= 0.0:
            return range(0)
        base = 1.0 + self.epsilon
        low = math.ceil(math.log(delta_max, base) - 1e-12)
        high = math.floor(math.log(2.0 * k * delta_max, base) + 1e-12)
        return range(low, high + 1)

    # -- main loop -----------------------------------------------------------------

    def _select(
        self,
        objective: KSIRObjective,
        k: int,
        index: Optional[RankedListIndex],
    ) -> SelectionOutcome:
        """Algorithm 2 over the merged traversal.

        ``candidates`` maps grid exponent ``j`` to ``S_ϕ`` and is rebuilt
        only when ``δ_max`` grows.  The sweep runs over the *open* (unfilled)
        candidates, kept ascending in ``ϕ`` beside their admission
        thresholds ``ϕ / 2k``: the candidates an element may enter are the
        prefix whose threshold is at most ``δ(e, x)``, found by bisection
        and evaluated in one :meth:`KSIRObjective.gains` call; a candidate
        that fills leaves the open list, whose first threshold is ``TH``.
        Equal-valued candidates tie to the first in ``candidates``' order.
        """
        assert index is not None  # guaranteed by KSIRAlgorithm.select
        traversal = index.traversal(objective.query_vector)
        base = 1.0 + self.epsilon

        candidates: Dict[int, ObjectiveState] = {}
        open_states: List[ObjectiveState] = []
        open_thresholds: List[float] = []
        delta_max = 0.0
        threshold = 0.0  # TH: minimum admission threshold of an unfilled candidate
        retrieved = 0

        while (element_id := traversal.next_id(threshold)) is not None:
            retrieved += 1
            score = objective.singleton_score(element_id)

            if score > delta_max:
                delta_max = score
                valid = set(self._grid_range(delta_max, k))
                candidates = {j: s for j, s in candidates.items() if j in valid}
                for j in valid:
                    candidates.setdefault(j, objective.new_state())
                open_js = sorted(j for j, s in candidates.items() if len(s.selected) < k)
                open_states = [candidates[j] for j in open_js]
                open_thresholds = [base**j / (2.0 * k) for j in open_js]

            reach = bisect_right(open_thresholds, score)
            gains = objective.gains(element_id, open_states[:reach])
            for position in reversed(range(reach)):  # so deletions keep positions
                if gains[position] >= open_thresholds[position]:
                    state = open_states[position]
                    objective.add(element_id, state)
                    if len(state.selected) >= k:
                        del open_states[position], open_thresholds[position]

            # When every candidate is full no further element can be admitted.
            if candidates and not open_states:
                break
            threshold = open_thresholds[0] if open_states else 0.0

        best_state: Optional[ObjectiveState] = None
        for state in candidates.values():
            if best_state is None or state.value > best_state.value:
                best_state = state
        if best_state is None:
            best_state = objective.new_state()

        return SelectionOutcome(
            element_ids=tuple(best_state.selected),
            value=best_state.value,
            evaluated_elements=objective.evaluated_elements,
            extras={
                "candidates": float(len(candidates)),
                "retrieved": float(retrieved),
            },
        )
