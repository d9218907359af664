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

The objective is submodular topic by topic: ``f(S, x) = Σ_i x_i · f_i(S)``
(Eq. 1–2), and ``Δ(e | S)`` reads only the coverage ``S`` leaves on ``e``'s
own topics, which only ``S``'s members on those topics build.  So once a
candidate ``T`` rejects ``e``, every candidate ``S`` whose members on
``e``'s query lists include ``T``'s, and whose threshold lies above
``Δ(e | T)``, rejects it too, and its gain is never computed: for each
topic ``i`` of ``e``, ``T``'s members holding ``i`` are among ``S``'s, so
``Δ_i(e | S) ≤ Δ_i(e | T)``, and the weighted sum with ``x_i ≥ 0`` keeps
the inequality.  ``T`` may hold members ``S`` lacks on other topics; they
leave ``e``'s gain alone.  This rests on the index listing an element on
every topic of its profile (the topics its gain reads), which the
processor's maintenance does; the lists holding each retrieved element come
with the plan (:attr:`RankedListTraversal.held`).

The computed floats obey the inequality wherever both sides run the same
loop (covered σ's are stored values, ``remaining · (1 − edge)`` and the
ordered sums round monotonically, every candidate sees elements in the one
traversal order, and a topic's state is built by its members on that topic
alone).  The exception is a topic ``T`` does not cover: there ``T``'s gain
is the profile's stored ``R_i(e)`` and ``S``'s the word loop's sum, which
may differ by a few ulps — more when ``R_i(e)`` came from a compensated
``sum()``.  A rejection therefore settles another only below
``ϕ/2k · (1 − 1e-9)``, a margin that can make a skip only rarer, never
change an admission.

Each open candidate keeps its members once per query list: bit ``r`` of
list ``j``'s mask is set when the ``r``-th retrieved element is a member
and holds list ``j``.  An element on one list compares that list's masks;
an element on several ORs its lists' masks once, before its walk.
The walk goes from the highest admission threshold down, and a lower
candidate usually holds a higher one's members, so a rejection mostly
settles a run of the positions right below it.  That run is skipped in one
tight loop; every other position checks every rejection so far, and the
positions settled are exactly the ones a check of every rejection at every
position settles.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import or_
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

        ``candidates`` maps grid exponent ``j`` to ``S_ϕ``.  The sweep runs
        over the *open* (unfilled) candidates, kept ascending in ``ϕ`` as
        aligned lists rebuilt only when ``δ_max`` grows: ``open_js``, the
        states, the admission thresholds ``ϕ / 2k``, the thresholds ·
        ``_MARGIN`` and, per query list, the members on that list
        (``members_by_list``; a new candidate's are 0).  The candidates an
        element may enter are the prefix whose threshold is at most
        ``δ(e, x)``, found by bisection and walked from the highest
        threshold down.  Each candidate that rejects ``e`` leaves
        ``(members on e's lists, gain)`` behind; a later candidate whose
        members on ``e``'s lists include an entry's and whose margin
        exceeds its gain rejects ``e`` without evaluating it.  Right after
        a rejection the run of lower positions that the new entry settles
        is skipped in one tight loop; every other position scans all the
        entries, so exactly the positions a full scan settles are settled.
        A candidate that fills leaves the open lists, whose first threshold
        is ``TH``.  Equal-valued candidates tie to the first in
        ``candidates``' order.
        """
        assert index is not None  # guaranteed by KSIRAlgorithm.select
        traversal = index.traversal(objective.query_vector)
        base = 1.0 + self.epsilon

        candidates: Dict[int, ObjectiveState] = {}
        open_js: List[int] = []
        states: List[ObjectiveState] = []
        thresholds: List[float] = []
        margins: List[float] = []
        # List j -> the members holding it, per open position (bit r for
        # the r-th retrieved element).
        members_by_list: Dict[int, List[int]] = {}
        # The lists an element holds (``held``) -> their members_by_list.
        lists_of: Dict[int, List[List[int]]] = {}
        delta_max = 0.0
        threshold = 0.0  # TH: minimum admission threshold of an unfilled candidate
        retrieved = 0

        for element_id, bound, score, held in zip(
            traversal.order, traversal.bounds, traversal.singles, traversal.held
        ):
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
                carried = [
                    (masks, dict(zip(open_js, masks))) for masks in members_by_list.values()
                ]
                open_js = sorted(j for j, s in candidates.items() if len(s.selected) < k)
                states = [candidates[j] for j in open_js]
                thresholds = [base**j / (2.0 * k) for j in open_js]
                margins = [admission * _MARGIN for admission in thresholds]
                for masks, members_of in carried:
                    masks[:] = [members_of.get(j, 0) for j in open_js]

            held_lists = lists_of.get(held)
            if held_lists is None:
                held_lists = lists_of[held] = [
                    members_by_list.setdefault(j, [0] * len(open_js))
                    for j in range(held.bit_length())
                    if held >> j & 1
                ]
            # The members on any of the element's lists: all its gain reads.
            masks = held_lists[0]
            for list_masks in held_lists[1:]:
                masks = list(map(or_, masks, list_masks))
            # (members, gain) of each candidate that rejected this element;
            # walked downwards, so deletions keep the positions still to come.
            rejected: List[Tuple[int, float]] = []
            position = bisect_right(thresholds, score)
            while position:
                position -= 1
                members, margin = masks[position], margins[position]
                for mask, gain in rejected:
                    if gain < margin and mask & members == mask:
                        break  # Δ(e | S_j) ≤ Δ(e | T) < ϕ/2k: see the module docstring
                else:
                    state = states[position]
                    gain = objective.marginal_gain(element_id, state)
                    if gain >= thresholds[position]:
                        objective.add(element_id, state)
                        if len(state.selected) >= k:
                            del open_js[position], states[position], thresholds[position]
                            del margins[position]
                            for list_masks in members_by_list.values():
                                del list_masks[position]
                        else:
                            for list_masks in held_lists:
                                list_masks[position] |= bit
                        continue
                    rejected.append((members, gain))
                    # The run below that holds these members and whose
                    # margin exceeds the gain is settled by this rejection.
                    while (
                        position
                        and gain < margins[position - 1]
                        and masks[position - 1] & members == members
                    ):
                        position -= 1

            # When every candidate is full no further element can be admitted.
            if candidates and not states:
                break
            threshold = thresholds[0] if states else 0.0

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
