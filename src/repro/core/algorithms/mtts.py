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
answer.  Each retrieved element's singleton ``δ(e, x)`` comes with the
traversal plan (:attr:`RankedListTraversal.singles`, the ranked-list keys
weighted and added in topic order), so an element that scores below ``TH``
and does not raise ``δ_max`` — it can neither enter a candidate nor move
the grid — is passed over without touching the objective.  The others are
compiled at most once per change: their terms come from the backend's term
memo, which every query shares and a bucket drops only where it changed the
element's record.  Every retrieved element counts as evaluated (its
singleton is), so ``evaluated_elements`` is the retrieved count.

The objective is submodular, so ``Δ(e | S) ≤ Δ(e | T)`` for ``T ⊆ S``: once
a candidate ``T`` rejects ``e``, every candidate holding ``T`` whose
threshold lies above ``Δ(e | T)`` rejects it too, and its gain is never
computed.  The computed floats obey that inequality wherever both sides run
the same loop (covered σ's are stored values, ``remaining · (1 − edge)`` and
the ordered sums round monotonically, and every candidate sees elements in
the one traversal order).  The exception is a topic ``T`` does not cover:
there ``T``'s gain is the profile's stored ``R_i(e)`` and ``S``'s the word
loop's sum, which may differ by a few ulps — more when ``R_i(e)`` came from
a compensated ``sum()``.  A rejection therefore settles another only below
``ϕ/2k · (1 − 1e-9)``, a margin that can make a skip only rarer, never
change an admission.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.core.algorithms.base import KSIRAlgorithm, SelectionOutcome
from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import KSIRObjective, ObjectiveState
from repro.utils.validation import require_in_range

#: A subset's rejection settles a candidate's only this far below its
#: threshold (see the module docstring).
_MARGIN = 1.0 - 1e-9


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

        ``candidates`` maps grid exponent ``j`` to ``S_ϕ`` and ``masks``
        maps it to ``S_ϕ``'s members (bit ``r`` for the ``r``-th retrieved
        element; a new candidate's is 0); both are rebuilt only when
        ``δ_max`` grows.  The sweep runs over the *open* (unfilled)
        candidates, kept ascending in ``ϕ`` beside their admission
        thresholds ``ϕ / 2k``: the candidates an element may enter are the
        prefix whose threshold is at most ``δ(e, x)``, found by bisection
        and walked from the highest threshold down.  Each candidate that
        rejects ``e`` leaves ``(members, gain)`` behind; a later candidate
        whose members include an entry's and whose threshold · ``_MARGIN``
        exceeds its gain rejects ``e`` without evaluating it.  A candidate
        that fills leaves the open list, whose first threshold is ``TH``.
        Equal-valued candidates tie to the first in ``candidates``' order.
        """
        assert index is not None  # guaranteed by KSIRAlgorithm.select
        traversal = index.traversal(objective.query_vector)
        base = 1.0 + self.epsilon

        candidates: Dict[int, ObjectiveState] = {}
        masks: Dict[int, int] = {}
        open_js: List[int] = []
        open_states: List[ObjectiveState] = []
        open_thresholds: List[float] = []
        delta_max = 0.0
        threshold = 0.0  # TH: minimum admission threshold of an unfilled candidate
        retrieved = 0

        for element_id, bound, score in zip(traversal.order, traversal.bounds, traversal.singles):
            if bound < threshold:
                break  # UB(x) < TH: no unevaluated element can be admitted
            bit = 1 << retrieved
            retrieved += 1
            if score < threshold and score <= delta_max:
                continue  # enters no candidate and leaves the grid as it is

            if score > delta_max:
                delta_max = score
                valid = set(self._grid_range(delta_max, k))
                candidates = {j: s for j, s in candidates.items() if j in valid}
                for j in valid:
                    candidates.setdefault(j, objective.new_state())
                masks = {j: masks.get(j, 0) for j in candidates}
                open_js = sorted(j for j, s in candidates.items() if len(s.selected) < k)
                open_states = [candidates[j] for j in open_js]
                open_thresholds = [base**j / (2.0 * k) for j in open_js]

            # (members, gain) of each candidate that rejected this element;
            # walked downwards, so deletions keep the positions still to come.
            rejected: List[Tuple[int, float]] = []
            for position in reversed(range(bisect_right(open_thresholds, score))):
                j, admission = open_js[position], open_thresholds[position]
                members = masks[j]
                bound = admission * _MARGIN
                for mask, gain in rejected:
                    if gain < bound and mask & members == mask:
                        break  # Δ(e | S_j) ≤ Δ(e | T) < ϕ/2k for T ⊆ S_j
                else:
                    state = open_states[position]
                    gain = objective.marginal_gain(element_id, state)
                    if gain < admission:
                        rejected.append((members, gain))
                        continue
                    objective.add(element_id, state)
                    masks[j] = members | bit
                    if len(state.selected) >= k:
                        del open_js[position], open_states[position], open_thresholds[position]

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
            evaluated_elements=retrieved,
            extras={
                "candidates": float(len(candidates)),
                "retrieved": float(retrieved),
            },
        )
