"""Ablation studies of two data-structure choices of the query path.

* :func:`ranked_list_ablation` — the sort-on-read ranked list (score writes,
  one sort at the first read after a change) vs a naive "re-sort the whole
  list on every change" strategy, over a trace that reads the order once
  per element, as a query after each arrival would.
* :func:`lazy_buffer_ablation` — MTTD's heap candidate buffer vs a naive
  variant that rescans the whole buffer to find the best cached gain at
  every step.  Both take the largest cached gain, so they select the same
  ids; the result keeps each variant's selections per query, so a caller
  can check that, and the timing isolates the data-structure cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.algorithms.base import KSIRAlgorithm, SelectionOutcome
from repro.core.algorithms.mttd import MTTD
from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import KSIRObjective
from repro.experiments.config import DEFAULT_EFFICIENCY_CONFIG, EfficiencyConfig
from repro.experiments.runner import EfficiencyExperiment, load_dataset, prepare_processor
from repro.utils.sorted_list import DescendingSortedList


@dataclass
class AblationResult:
    """Outcome of one ablation comparison."""

    name: str
    baseline_label: str
    variant_label: str
    baseline_value: float
    variant_value: float
    unit: str
    #: Label → the ids each query selected, for ablations that select.
    selections: Dict[str, List[Tuple[int, ...]]] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """baseline / variant (``> 1`` means the variant is slower)."""
        if self.variant_value <= 0:
            return float("inf")
        return self.baseline_value / self.variant_value

    def render(self) -> str:
        """One-line summary of the comparison."""
        return (
            f"{self.name}: {self.baseline_label}={self.baseline_value:.4f}{self.unit} "
            f"vs {self.variant_label}={self.variant_value:.4f}{self.unit} "
            f"(ratio {self.speedup:.2f}x)"
        )


# ---------------------------------------------------------------------------
# Ranked-list maintenance ablation
# ---------------------------------------------------------------------------


class _ResortRankedList:
    """A naive ranked list that fully re-sorts its entries on every change."""

    def __init__(self) -> None:
        self._scores: Dict[int, float] = {}
        self._ordered: List[Tuple[int, float]] = []

    def insert(self, key: int, score: float) -> None:
        self._scores[key] = score
        self._resort()

    def update(self, key: int, score: float) -> None:
        self.insert(key, score)

    def discard(self, key: int) -> None:
        if key in self._scores:
            del self._scores[key]
            self._resort()

    def _resort(self) -> None:
        self._ordered = sorted(self._scores.items(), key=lambda item: (-item[1], item[0]))

    def items(self) -> List[Tuple[int, float]]:
        return list(self._ordered)


def _replay_maintenance(structure_factory, operations: Sequence[Tuple[str, int, float]]) -> float:
    """Replay a recorded insert/update/remove/read trace and return elapsed seconds."""
    structure = structure_factory()
    start = time.perf_counter()
    for action, key, score in operations:
        if action == "insert":
            structure.insert(key, score)
        elif action == "update":
            structure.update(key, score)
        elif action == "read":
            structure.items()
        else:
            structure.discard(key)
    return time.perf_counter() - start


def ranked_list_ablation(
    dataset_name: str = "twitter-small",
    seed: int = DEFAULT_EFFICIENCY_CONFIG.seed,
    max_operations: int = 20000,
) -> AblationResult:
    """Compare the sort-on-read list against re-sorting on every change.

    The operation trace is derived from the dataset's stream: one insert per
    element, one update per reference, one removal per expiry, then one read
    of the whole order, replayed against both structures.
    """
    dataset = load_dataset(dataset_name, seed=seed)
    operations: List[Tuple[str, int, float]] = []
    alive: Dict[int, float] = {}
    for element in dataset.stream:
        if len(operations) >= max_operations:
            break
        score = float(len(element.tokens))
        operations.append(("insert", element.element_id, score))
        alive[element.element_id] = score
        for parent_id in element.references:
            if parent_id in alive:
                alive[parent_id] += 1.0
                operations.append(("update", parent_id, alive[parent_id]))
        if len(alive) > 2000:
            victim = next(iter(alive))
            del alive[victim]
            operations.append(("remove", victim, 0.0))
        operations.append(("read", element.element_id, 0.0))

    naive_seconds = _replay_maintenance(_ResortRankedList, operations)
    sorted_seconds = _replay_maintenance(DescendingSortedList, operations)
    return AblationResult(
        name=f"ranked-list maintenance ({dataset_name}, {len(operations)} ops)",
        baseline_label="naive-resort",
        variant_label="sort-on-read",
        baseline_value=naive_seconds * 1000.0,
        variant_value=sorted_seconds * 1000.0,
        unit="ms",
    )


# ---------------------------------------------------------------------------
# MTTD candidate-buffer ablation
# ---------------------------------------------------------------------------


class _ScanBufferMTTD(KSIRAlgorithm):
    """MTTD variant whose buffer is a plain dict scanned linearly each step."""

    name = "mttd-scan-buffer"
    requires_index = True

    def __init__(self, epsilon: float = 0.1) -> None:
        self.epsilon = float(epsilon)

    def _select(
        self,
        objective: KSIRObjective,
        k: int,
        index: Optional[RankedListIndex],
    ) -> SelectionOutcome:
        assert index is not None
        traversal = index.traversal(objective.query_vector)
        singles = traversal.singles
        buffer: Dict[int, float] = {}
        state = objective.new_state()
        tau = traversal.upper_bound()
        termination = 0.0
        while tau >= termination and tau > 0.0:
            while (element_id := traversal.next_id(tau)) is not None:
                score = singles[traversal.retrieved_count - 1]
                if score > 0.0:
                    buffer[element_id] = score
            while buffer:
                element_id = max(buffer, key=lambda eid: (buffer[eid], -eid))
                if buffer[element_id] < tau:
                    break
                cached = buffer.pop(element_id)
                del cached
                gain = objective.marginal_gain(element_id, state)
                if gain >= tau:
                    objective.add(element_id, state)
                    if len(state.selected) >= k:
                        return SelectionOutcome(
                            tuple(state.selected), state.value,
                            evaluated_elements=traversal.retrieved_count,
                        )
                elif gain > 0.0:
                    buffer[element_id] = gain
            termination = state.value * self.epsilon / k
            tau *= 1.0 - self.epsilon
            if traversal.exhausted() and not buffer:
                break
        return SelectionOutcome(
            tuple(state.selected), state.value,
            evaluated_elements=traversal.retrieved_count,
        )


def lazy_buffer_ablation(
    dataset_name: str = "twitter-small",
    config: Optional[EfficiencyConfig] = None,
    num_queries: int = 10,
) -> AblationResult:
    """Compare MTTD's heap buffer against a linear-scan buffer."""
    config = config or DEFAULT_EFFICIENCY_CONFIG
    scoring = config.scoring_for(dataset_name)
    dataset, processor = prepare_processor(
        dataset_name,
        seed=config.seed,
        window_length=config.window_length,
        bucket_length=config.bucket_length,
        lambda_weight=scoring.lambda_weight,
        eta=scoring.eta,
        replay_fraction=config.replay_fraction,
    )
    experiment = EfficiencyExperiment(dataset, processor, seed=config.seed)
    workload = experiment.make_workload(num_queries, config.k)
    heap = experiment.run([MTTD(epsilon=config.epsilon)], workload, k=config.k)["mttd"]
    scan = experiment.run(
        [_ScanBufferMTTD(epsilon=config.epsilon)], workload, k=config.k
    )["mttd-scan-buffer"]
    return AblationResult(
        name=f"MTTD candidate buffer ({dataset_name}, {num_queries} queries)",
        baseline_label="linear-scan-buffer",
        variant_label="heap-buffer",
        baseline_value=scan.median_time_ms,
        variant_value=heap.median_time_ms,
        unit="ms/query",
        selections={
            "linear-scan-buffer": [result.element_ids for result in scan.results],
            "heap-buffer": [result.element_ids for result in heap.results],
        },
    )
