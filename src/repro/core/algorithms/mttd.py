"""MTTD — Multi-Topic ThresholdDescend (Algorithm 3 of the paper).

MTTD improves on MTTS in two ways: it maintains a *single* candidate ``S``
(so fewer marginal-gain evaluations per element), and it keeps the elements
retrieved from the ranked lists in a buffer so they can be re-considered in
later rounds, which is what lifts the guarantee to ``(1 − 1/e − ε)``.

The algorithm runs rounds with geometrically decreasing thresholds
``τ, (1−ε)τ, (1−ε)²τ, ...`` starting from the upper bound of any active
element's score.  In the round with threshold ``τ`` it first *retrieves*
every element whose score could reach ``τ`` from the ranked lists (the same
merged descending traversal as MTTS) into the buffer, then repeatedly takes
the buffered element with the largest cached gain, recomputes its true
marginal gain and admits it when the gain is at least ``τ``.  The run stops
when ``S`` reaches ``k`` elements or ``τ`` drops below the termination
threshold ``τ' = ε · f(S, x) / k``.

Each retrieved element's cached gain starts as its singleton ``δ(e, x)``,
read from the traversal plan (:attr:`RankedListTraversal.singles`) rather
than computed by the objective, so an element the buffer never pops is
never compiled; every retrieved element counts as evaluated.

The buffer is a plain :mod:`heapq` list of ``(−Δ_e, push number, id)``: an
element is in it at most once (retrieval visits each element once, and a
popped element is pushed back only after it left), so no entry is ever
stale, and the push number breaks ties between equal bounds first-in
first-out.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import List, Optional, Tuple

from repro.core.algorithms.base import KSIRAlgorithm, SelectionOutcome
from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import KSIRObjective, ObjectiveState
from repro.utils.validation import require_in_range

#: ``(−cached gain, push number, element id)`` entries of a heapq list.
Buffer = List[Tuple[float, int, int]]


class MTTD(KSIRAlgorithm):
    """Multi-Topic ThresholdDescend.

    Parameters
    ----------
    epsilon:
        The threshold decay rate ``ε ∈ (0, 1)``; smaller values tighten the
        ``(1 − 1/e − ε)`` guarantee but add more descend rounds.
    """

    name = "mttd"
    requires_index = True

    def __init__(self, epsilon: float = 0.1) -> None:
        require_in_range(epsilon, "epsilon", 0.0, 1.0, low_inclusive=False, high_inclusive=False)
        self.epsilon = float(epsilon)

    def __repr__(self) -> str:
        return f"MTTD(epsilon={self.epsilon})"

    # -- main loop ---------------------------------------------------------------------

    def _select(
        self,
        objective: KSIRObjective,
        k: int,
        index: Optional[RankedListIndex],
    ) -> SelectionOutcome:
        assert index is not None  # guaranteed by KSIRAlgorithm.select
        traversal = index.traversal(objective.query_vector)
        order, bounds, singles = traversal.order, traversal.bounds, traversal.singles
        buffer: Buffer = []
        pushes = itertools.count()
        state = objective.new_state()

        tau = bounds[0]
        termination = 0.0
        rounds = 0
        retrieved = 0

        while tau >= termination and tau > 0.0:
            rounds += 1
            # Retrieval phase: every element whose score may reach τ enters
            # the buffer, its cached gain bound Δ_e the singleton score.
            while retrieved < len(order) and not bounds[retrieved] < tau:
                score = singles[retrieved]
                if score > 0.0:
                    # Zero-score elements can never clear a positive
                    # threshold; keeping them out guarantees termination.
                    heappush(buffer, (-score, next(pushes), order[retrieved]))
                retrieved += 1

            # Evaluation phase: keep admitting buffered elements while some
            # cached gain still reaches the round threshold.
            while buffer and -buffer[0][0] >= tau:
                element_id = heappop(buffer)[2]
                gain = objective.marginal_gain(element_id, state)
                if gain >= tau:
                    objective.add(element_id, state)
                    if len(state.selected) >= k:
                        return self._outcome(state, rounds, retrieved, buffer)
                elif gain > 0.0:
                    # Keep it around with the refreshed (smaller) bound; it may
                    # clear a later, lower threshold.  Zero gains are dropped —
                    # they can never clear a positive threshold.
                    heappush(buffer, (-gain, next(pushes), element_id))

            termination = state.value * self.epsilon / k
            tau *= 1.0 - self.epsilon
            if retrieved == len(order) and not buffer:
                break

        return self._outcome(state, rounds, retrieved, buffer)

    def _outcome(
        self,
        state: ObjectiveState,
        rounds: int,
        retrieved: int,
        buffer: Buffer,
    ) -> SelectionOutcome:
        return SelectionOutcome(
            element_ids=tuple(state.selected),
            value=state.value,
            evaluated_elements=retrieved,
            extras={
                "rounds": float(rounds),
                "retrieved": float(retrieved),
                "buffered": float(len(buffer)),
            },
        )
