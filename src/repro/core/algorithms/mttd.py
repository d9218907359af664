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
read from the traversal plan (:attr:`RankedListTraversal.plan`) rather
than computed by the objective, so an element the buffer never pops is
never compiled; every retrieved element counts as evaluated.

The buffer is Minoux's lazy greedy, kept in two parts:

* the *fresh* entries — retrieved elements never evaluated — wait in one
  order, sorted once per query by a stable NumPy argsort of the plan's
  positive singles: ``(−δ(e, x), step)``.  The plan has
  ``singles[r] <= bounds[r]`` in floats and ``bounds`` never increases, so
  every element with ``δ(e, x) ≥ τ`` is retrieved by round ``τ``: the
  order's next entry is poppable exactly when its single reaches ``τ``,
  and a round's retrieval is one bisection of ``bounds``;
* a plain :mod:`heapq` list of ``(−Δ_e, push number, id)`` holds the
  re-pushed gains only.  An element is buffered at most once (retrieval
  visits each element once, and a popped element is pushed back only
  after it left), so no entry is ever stale.

Both parts pop in the order of one heap holding every entry, ties between
equal bounds first-in first-out by push number.  Retrieval pushes in step
order and a round retrieves before it re-pushes, so a fresh entry's push
number is the count of positive singles before its step plus the
re-pushes made before its round, and a re-push's is the count of positive
singles retrieved so far plus the re-pushes before it.  Only an exact tie
between the two parts compares them.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappush
from typing import List, Optional, Tuple

import numpy as np

from repro.core.algorithms.base import KSIRAlgorithm, SelectionOutcome
from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import KSIRObjective, ObjectiveState
from repro.utils.validation import require_in_range

#: ``(−re-evaluated gain, push number, element id)`` entries of a heapq list.
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
        order, bounds, singles, _held = index.traversal(objective.query_vector).plan
        count = len(order)
        descending = -bounds  # ascending: UB(x) ≥ τ is a prefix
        # Fresh entries: the steps of the positive singles by (−single, step).
        # Zero-score elements can never clear a positive threshold; keeping
        # them out guarantees termination.
        positive = np.flatnonzero(singles > 0.0)
        by_single = np.argsort(-singles[positive], kind="stable")
        fresh_steps = positive[by_single]
        fresh_ids: List[int] = order[fresh_steps].tolist()
        fresh_count = len(fresh_ids)
        # A 0.0 after the last entry: it never reaches a positive τ.
        fresh_gains: List[float] = singles[fresh_steps].tolist() + [0.0]
        popped = 0  # fresh entries taken, a prefix of the order
        heap: Buffer = []
        repushes = 0
        # Per round: the retrieved count, and the re-pushes made before it.
        round_ends: List[int] = []
        round_repushes: List[int] = []
        state = objective.new_state()

        tau = float(bounds[0])
        termination = 0.0
        rounds = 0
        retrieved = 0
        pushed = 0  # fresh entries retrieved: the positive singles so far

        while tau >= termination and tau > 0.0:
            rounds += 1
            # Retrieval phase: every element whose score may reach τ joins
            # the buffer, its cached gain bound Δ_e the singleton score.
            retrieved = min(count, int(np.searchsorted(descending, -tau, side="right")))
            pushed = int(np.searchsorted(positive, retrieved))
            round_ends.append(retrieved)
            round_repushes.append(repushes)

            # Evaluation phase: keep admitting buffered elements while some
            # cached gain still reaches the round threshold.
            while True:
                top = -heap[0][0] if heap else 0.0
                single = fresh_gains[popped]
                if single >= tau and (
                    single > top
                    or (
                        # An exact tie: the fresh entry's push number decides.
                        single == top
                        and int(by_single[popped])
                        + round_repushes[bisect_right(round_ends, int(fresh_steps[popped]))]
                        < heap[0][1]
                    )
                ):
                    element_id = fresh_ids[popped]
                    popped += 1
                elif top >= tau:
                    element_id = heappop(heap)[2]
                else:
                    break
                gain = objective.marginal_gain(element_id, state)
                if gain >= tau:
                    objective.add(element_id, state)
                    if len(state.selected) >= k:
                        return self._outcome(state, rounds, retrieved, pushed - popped + len(heap))
                elif gain > 0.0:
                    # Keep it around with the refreshed (smaller) bound; it may
                    # clear a later, lower threshold.  Zero gains are dropped —
                    # they can never clear a positive threshold.
                    heappush(heap, (-gain, pushed + repushes, element_id))
                    repushes += 1

            termination = state.value * self.epsilon / k
            tau *= 1.0 - self.epsilon
            if retrieved == count and popped == fresh_count and not heap:
                break

        return self._outcome(state, rounds, retrieved, pushed - popped + len(heap))

    def _outcome(
        self,
        state: ObjectiveState,
        rounds: int,
        retrieved: int,
        buffered: int,
    ) -> SelectionOutcome:
        return SelectionOutcome(
            element_ids=tuple(state.selected),
            value=state.value,
            evaluated_elements=retrieved,
            extras={
                "rounds": float(rounds),
                "retrieved": float(retrieved),
                "buffered": float(buffered),
            },
        )
