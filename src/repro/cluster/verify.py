"""Equivalence checking between sharded and single-node execution.

The cluster's contract is that sharding is *transparent*: the coordinator
returns the same elements with the same score as one
:class:`~repro.core.processor.KSIRProcessor` owning the whole window (see
:mod:`repro.cluster.coordinator`).  :func:`verify_equivalence` replays a
stream through both, answers the same queries on both sides and compares —
the property-based test suite drives it over many random instances, and
operators can run it as a pre-deployment smoke check on real data.

Selected sets are compared as sets: tie-breaking may legitimately order equal
picks differently, but the membership and the objective value must agree to
within ``tolerance``.  SieveStreaming is the one registered algorithm outside
the contract — it is a single-pass streaming algorithm whose output depends
on element *iteration order*, which sharding inherently changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.processor import KSIRProcessor, ProcessorConfig
from repro.core.query import KSIRQuery
from repro.core.stream import SocialStream
from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator
from repro.core.element import SocialElement
from repro.topics.inference import TopicInferencer
from repro.topics.model import TopicModel


@dataclass(frozen=True)
class QueryComparison:
    """Single-node vs sharded outcome of one query."""

    query_index: int
    algorithm: str
    single_ids: Tuple[int, ...]
    cluster_ids: Tuple[int, ...]
    single_score: float
    cluster_score: float
    matched: bool
    detail: str = ""


@dataclass
class EquivalenceReport:
    """The outcome of one :func:`verify_equivalence` run."""

    num_shards: int
    queries_checked: int = 0
    comparisons: List[QueryComparison] = field(default_factory=list)
    active_single: int = 0
    active_cluster: int = 0

    @property
    def matched(self) -> bool:
        """Whether every comparison (and the active counts) agreed."""
        return self.active_single == self.active_cluster and all(
            comparison.matched for comparison in self.comparisons
        )

    @property
    def mismatches(self) -> Tuple[QueryComparison, ...]:
        """The failing comparisons."""
        return tuple(c for c in self.comparisons if not c.matched)

    def summary(self) -> str:
        """One-line human-readable verdict."""
        status = "EQUIVALENT" if self.matched else "MISMATCH"
        return (
            f"{status}: {self.queries_checked} queries on {self.num_shards} shards "
            f"({len(self.mismatches)} mismatches, active "
            f"{self.active_single}/{self.active_cluster})"
        )


def verify_equivalence(
    stream: Union[SocialStream, Iterable[SocialElement]],
    topic_model: TopicModel,
    queries: Sequence[KSIRQuery],
    config: Optional[ProcessorConfig] = None,
    cluster: Optional[ClusterConfig] = None,
    algorithms: Sequence[str] = ("mttd",),
    epsilon: Optional[float] = None,
    inferencer: Optional[TopicInferencer] = None,
    tolerance: float = 1e-9,
) -> EquivalenceReport:
    """Replay ``stream`` on both execution paths and compare query answers.

    The cluster defaults to the in-process ``serial`` transport; pass an
    explicit ``cluster`` config to exercise ``pipe`` instead.
    """
    if not isinstance(stream, SocialStream):
        stream = SocialStream(stream)
    config = config or ProcessorConfig()
    cluster = cluster or ClusterConfig()

    single = KSIRProcessor(topic_model, config, inferencer=inferencer)
    single.process_stream(stream)

    report = EquivalenceReport(num_shards=cluster.num_shards)
    with ClusterCoordinator(
        topic_model, config, cluster=cluster, inferencer=inferencer
    ) as coordinator:
        coordinator.process_stream(stream)
        report.active_single = single.active_count
        report.active_cluster = coordinator.active_count

        for query_index, query in enumerate(queries):
            for algorithm in algorithms:
                single_result = single.query(query, algorithm=algorithm, epsilon=epsilon)
                cluster_result = coordinator.query(
                    query, algorithm=algorithm, epsilon=epsilon
                )
                ids_match = set(single_result.element_ids) == set(
                    cluster_result.element_ids
                )
                score_match = (
                    abs(single_result.score - cluster_result.score) <= tolerance
                )
                detail = ""
                if not ids_match:
                    detail = (
                        f"ids differ: single={sorted(single_result.element_ids)} "
                        f"cluster={sorted(cluster_result.element_ids)}"
                    )
                elif not score_match:
                    detail = (
                        f"scores differ: single={single_result.score!r} "
                        f"cluster={cluster_result.score!r}"
                    )
                report.comparisons.append(
                    QueryComparison(
                        query_index=query_index,
                        algorithm=algorithm,
                        single_ids=single_result.element_ids,
                        cluster_ids=cluster_result.element_ids,
                        single_score=single_result.score,
                        cluster_score=cluster_result.score,
                        matched=ids_match and score_match,
                        detail=detail,
                    )
                )
                report.queries_checked += 1
    return report
