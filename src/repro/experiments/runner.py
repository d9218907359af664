"""Shared experiment machinery: dataset/processor caching and runners.

Every table/figure experiment needs the same ingredients — a synthetic
dataset, a processor that has replayed (part of) the stream, a query
workload, and loops that run algorithms or baselines over the workload.
This module provides them once:

* :func:`load_dataset` / :func:`prepare_processor` — memoised builders so
  the artefacts that sweep the same dataset and window do not regenerate
  streams or replay buckets.
* :class:`EfficiencyExperiment` — runs k-SIR algorithms over a workload and
  collects per-query :class:`repro.core.query.QueryResult` statistics
  (query time, score, evaluated-element ratio).
* :class:`EffectivenessExperiment` — runs the search baselines and the k-SIR
  query over the same snapshots and computes the Table 5 / Table 6 metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.algorithms import KSIRAlgorithm, resolve_algorithm
from repro.core.element import SocialElement
from repro.core.processor import KSIRProcessor, ProcessorConfig
from repro.core.query import KSIRQuery, QueryResult
from repro.core.scoring import ScoringConfig
from repro.datasets.profiles import get_profile
from repro.datasets.synthetic import SyntheticDataset, SyntheticStreamGenerator
from repro.evaluation.metrics import coverage_score, influence_score
from repro.evaluation.user_study import JudgedQuery, SimulatedUserStudy, UserStudyOutcome
from repro.evaluation.workload import WorkloadGenerator
from repro.search import SEARCH_REGISTRY, SearchMethod, SearchRequest


@lru_cache(maxsize=32)
def load_dataset(
    profile_name: str, seed: int = 2019, num_topics: Optional[int] = None
) -> SyntheticDataset:
    """Generate (and memoise) a synthetic dataset for a profile name."""
    profile = get_profile(profile_name)
    if num_topics is not None and num_topics != profile.num_topics:
        profile = profile.with_topics(num_topics)
    return SyntheticStreamGenerator(profile, seed=seed).generate()


@lru_cache(maxsize=32)
def prepare_processor(
    profile_name: str,
    seed: int = 2019,
    num_topics: Optional[int] = None,
    window_length: int = 24 * 3600,
    bucket_length: int = 15 * 60,
    lambda_weight: float = 0.5,
    eta: float = 20.0,
    replay_fraction: float = 0.75,
) -> Tuple[SyntheticDataset, KSIRProcessor]:
    """Build a processor and replay the stream up to ``replay_fraction``.

    Returns the dataset and the prepared processor; both are memoised so a
    benchmark that re-runs the same configuration pays the replay cost once.
    The processor should be treated as read-only by callers (queries do not
    mutate it).
    """
    dataset = load_dataset(profile_name, seed=seed, num_topics=num_topics)
    scoring = ScoringConfig(lambda_weight=lambda_weight, eta=eta)
    config = ProcessorConfig(
        window_length=window_length,
        bucket_length=bucket_length,
        scoring=scoring,
    )
    processor = KSIRProcessor(dataset.topic_model, config)
    start = dataset.stream.start_time
    end = dataset.stream.end_time
    until = start + int((end - start) * replay_fraction)
    processor.process_stream(dataset.stream, until=until)
    return dataset, processor


def clear_caches() -> None:
    """Drop all memoised datasets and processors (used by tests)."""
    load_dataset.cache_clear()
    prepare_processor.cache_clear()


# ---------------------------------------------------------------------------
# Efficiency experiments (Figures 7-13)
# ---------------------------------------------------------------------------


@dataclass
class EfficiencyRun:
    """Per-algorithm aggregated statistics over one workload."""

    algorithm: str
    results: List[QueryResult] = field(default_factory=list)

    @property
    def median_time_ms(self) -> float:
        """Median query time in milliseconds (one slow query barely moves it)."""
        if not self.results:
            return 0.0
        return float(np.median([result.elapsed_ms for result in self.results]))

    @property
    def mean_score(self) -> float:
        """Average representativeness score of the returned sets."""
        if not self.results:
            return 0.0
        return float(np.mean([result.score for result in self.results]))

    @property
    def mean_evaluation_ratio(self) -> float:
        """Average fraction of active elements evaluated per query."""
        if not self.results:
            return 0.0
        return float(np.mean([result.evaluation_ratio for result in self.results]))


class EfficiencyExperiment:
    """Runs k-SIR algorithms over a workload against a prepared processor."""

    def __init__(
        self,
        dataset: SyntheticDataset,
        processor: KSIRProcessor,
        seed: int = 2019,
    ) -> None:
        self.dataset = dataset
        self.processor = processor
        self.seed = seed

    def make_workload(self, num_queries: int, k: int, mode: str = "frequency"):
        """A query workload bound to this experiment's dataset."""
        generator = WorkloadGenerator(
            self.dataset, k=k, mode=mode, seed=self.seed + 17
        )
        return generator.generate(num_queries)

    def _resolve(self, algorithm: Union[str, KSIRAlgorithm], epsilon: float) -> KSIRAlgorithm:
        return resolve_algorithm(algorithm, epsilon=epsilon)

    def run(
        self,
        algorithms: Sequence[Union[str, KSIRAlgorithm]],
        queries: Sequence[KSIRQuery],
        epsilon: float = 0.1,
        k: Optional[int] = None,
    ) -> Dict[str, EfficiencyRun]:
        """Run every algorithm on every query and collect its statistics.

        The returned mapping is keyed by the *requested* algorithm label
        (the registry name when a string was passed, ``solver.name``
        otherwise) so callers can look results up with the same labels they
        passed in.
        """
        labelled: List[Tuple[str, KSIRAlgorithm]] = []
        for algorithm in algorithms:
            solver = self._resolve(algorithm, epsilon)
            label = algorithm if isinstance(algorithm, str) else solver.name
            labelled.append((label, solver))
        runs: Dict[str, EfficiencyRun] = {
            label: EfficiencyRun(algorithm=solver.name) for label, solver in labelled
        }
        for query in queries:
            effective_query = query if k is None else KSIRQuery(
                k=k, vector=query.vector, time=query.time, keywords=query.keywords
            )
            for label, solver in labelled:
                result = self.processor.query(effective_query, algorithm=solver)
                runs[label].results.append(result)
        return runs


# ---------------------------------------------------------------------------
# Effectiveness experiments (Tables 5 and 6)
# ---------------------------------------------------------------------------


@dataclass
class EffectivenessRecord:
    """Per-method result sets and metrics for one query."""

    query: KSIRQuery
    results: Dict[str, Tuple[int, ...]]
    coverage: Dict[str, float]
    influence: Dict[str, float]


class EffectivenessExperiment:
    """Runs the search baselines and k-SIR on the same snapshots."""

    #: Method order used in reports (matches the paper's Table 5/6 columns).
    METHOD_ORDER: Tuple[str, ...] = ("tfidf", "div", "sumblr", "rel", "ksir")

    def __init__(
        self,
        dataset: SyntheticDataset,
        processor: KSIRProcessor,
        epsilon: float = 0.1,
        seed: int = 2019,
    ) -> None:
        self.dataset = dataset
        self.processor = processor
        self.epsilon = epsilon
        self.seed = seed
        self._baselines: Dict[str, SearchMethod] = {
            name: cls() for name, cls in SEARCH_REGISTRY.items()
        }

    # -- query generation ----------------------------------------------------------

    def topical_queries(self, num_queries: int, k: int) -> List[KSIRQuery]:
        """Trending-topic queries for the user study (topical keywords)."""
        generator = WorkloadGenerator(
            self.dataset, k=k, mode="topical", min_keywords=3, max_keywords=5,
            seed=self.seed + 71,
        )
        return list(generator.generate(num_queries))

    def mixed_queries(self, num_queries: int, k: int) -> List[KSIRQuery]:
        """Frequency-weighted keyword queries for the quantitative analysis."""
        generator = WorkloadGenerator(
            self.dataset, k=k, mode="frequency", seed=self.seed + 37
        )
        return list(generator.generate(num_queries))

    # -- method execution --------------------------------------------------------------

    def _active_elements(self) -> List[SocialElement]:
        return list(self.processor.window.active_elements())

    def _window_elements(self) -> List[SocialElement]:
        window = self.processor.window
        return [window.get(element_id) for element_id in window.window_ids()]

    def run_methods(self, query: KSIRQuery) -> Dict[str, Tuple[int, ...]]:
        """Run every baseline and k-SIR for one query; returns id tuples."""
        candidates = self._active_elements()
        request = SearchRequest(
            elements=candidates,
            keywords=query.keywords,
            query_vector=query.vector,
            k=query.k,
        )
        results: Dict[str, Tuple[int, ...]] = {}
        for name, method in self._baselines.items():
            results[name] = tuple(method.search(request))
        ksir_result = self.processor.query(query, algorithm="mttd", epsilon=self.epsilon)
        results["ksir"] = tuple(ksir_result.element_ids)
        return results

    # -- metrics ------------------------------------------------------------------------

    def evaluate_query(self, query: KSIRQuery) -> EffectivenessRecord:
        """Run all methods for one query and compute Table 6 metrics."""
        candidates = self._active_elements()
        window_elements = self._window_elements()
        by_id = {element.element_id: element for element in candidates}
        results = self.run_methods(query)
        coverage: Dict[str, float] = {}
        influence: Dict[str, float] = {}
        for method, element_ids in results.items():
            selected = [by_id[eid] for eid in element_ids if eid in by_id]
            coverage[method] = coverage_score(selected, candidates, query.vector)
            influence[method] = influence_score(
                element_ids, window_elements, k=query.k
            )
        return EffectivenessRecord(
            query=query, results=results, coverage=coverage, influence=influence
        )

    def quantitative(self, queries: Sequence[KSIRQuery]) -> Dict[str, Dict[str, float]]:
        """Mean coverage / influence per method over a workload (Table 6)."""
        records = [self.evaluate_query(query) for query in queries]
        summary: Dict[str, Dict[str, float]] = {}
        for method in self.METHOD_ORDER:
            summary[method] = {
                "coverage": float(np.mean([record.coverage[method] for record in records])),
                "influence": float(np.mean([record.influence[method] for record in records])),
            }
        return summary

    def user_study(
        self,
        queries: Sequence[KSIRQuery],
        evaluators_per_query: int = 3,
        noise: float = 0.08,
    ) -> UserStudyOutcome:
        """Simulated user study over trending-topic queries (Table 5)."""
        study = SimulatedUserStudy(
            evaluators_per_query=evaluators_per_query,
            noise=noise,
            seed=self.seed + 101,
        )
        candidates = self._active_elements()
        window_elements = self._window_elements()
        by_id = {element.element_id: element for element in candidates}
        judged: List[JudgedQuery] = []
        for query in queries:
            results = self.run_methods(query)
            materialised = {
                method: [by_id[eid] for eid in element_ids if eid in by_id]
                for method, element_ids in results.items()
            }
            judged.append(
                study.judge_query(materialised, query.vector, candidates, window_elements)
            )
        return study.aggregate(judged)
