"""Experiment parameters: the paper's Table 4 scaled to synthetic streams.

The paper's defaults are ``ε = 0.1``, ``k = 10``, ``z = 50`` topics and a
``T = 24 h`` window over streams of 1.6–20 M elements, with ``λ = 0.5`` and
``η ∈ {20, 200}``, bucket length 15 minutes.  The synthetic ``-small``
profiles span two days of stream time with a few thousand elements, so the
scaled defaults below keep every experiment proportionally identical (same
ε / k sweeps, same λ/η, window lengths expressed in hours of stream time)
while finishing in minutes on a laptop.  Every parameter can be overridden
when constructing a config.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Sequence, Tuple, TypeVar

from repro.core.scoring import ScoringConfig

_Config = TypeVar("_Config", bound="ExperimentConfig")

#: Datasets used by default in every experiment (Table 3's three corpora).
DEFAULT_DATASETS: Tuple[str, ...] = ("aminer-small", "reddit-small", "twitter-small")

#: Per-dataset η.  η's role (Eq. 2) is to bring the influence score to the
#: same range as the semantic score.  The paper uses 20 for AMiner/Reddit and
#: 200 for Twitter because its 24-hour windows contain millions of elements
#: and popular posts collect hundreds of references; the laptop-scale
#: synthetic windows contain thousands of elements and popular posts collect
#: a handful of references, so proportionally smaller η values restore the
#: same semantic/influence balance.  The full-size profiles keep values
#: closer to the paper's.
DATASET_ETA: Dict[str, float] = {
    "aminer": 20.0,
    "aminer-small": 1.0,
    "reddit": 10.0,
    "reddit-small": 2.0,
    "twitter": 20.0,
    "twitter-small": 1.5,
    "tiny": 1.0,
}


@dataclass(frozen=True)
class SweepValues:
    """The x-axis values of the paper's parameter sweeps (Figures 7–14)."""

    epsilon: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)
    k: Tuple[int, ...] = (5, 10, 15, 20, 25)
    #: Number of topics; the paper sweeps 50–250, the scaled default sweeps
    #: 10–50 (the trend — fewer elements per list as z grows — is identical).
    num_topics: Tuple[int, ...] = (10, 20, 30, 40, 50)
    #: Window lengths in hours (same values as the paper).
    window_hours: Tuple[int, ...] = (6, 12, 18, 24, 30)


@dataclass(frozen=True)
class ExperimentConfig:
    """What the efficiency and the effectiveness experiments both set."""

    datasets: Tuple[str, ...] = DEFAULT_DATASETS
    seed: int = 2019
    epsilon: float = 0.1
    window_hours: int = 24
    bucket_minutes: int = 15
    lambda_weight: float = 0.5
    #: Fraction of the stream replayed before queries are issued.
    replay_fraction: float = 0.75

    def scoring_for(self, dataset: str) -> ScoringConfig:
        """The scoring configuration (λ, η) for one dataset."""
        return ScoringConfig(
            lambda_weight=self.lambda_weight,
            eta=DATASET_ETA.get(dataset, 20.0),
        )

    @property
    def window_length(self) -> int:
        """Window length in seconds."""
        return self.window_hours * 3600

    @property
    def bucket_length(self) -> int:
        """Bucket length in seconds."""
        return self.bucket_minutes * 60

    def with_overrides(self: _Config, **kwargs) -> _Config:
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class EfficiencyConfig(ExperimentConfig):
    """Configuration of the efficiency / scalability experiments (Section 5.3)."""

    k: int = 10
    num_queries: int = 20
    sweeps: SweepValues = field(default_factory=SweepValues)


@dataclass(frozen=True)
class EffectivenessConfig(ExperimentConfig):
    """Configuration of the effectiveness experiments (Section 5.2)."""

    #: Result size of the user study (the paper shows 5 elements per query).
    user_study_k: int = 5
    #: Result size of the quantitative comparison (the paper's default k).
    quantitative_k: int = 10
    num_user_study_queries: int = 20
    num_quantitative_queries: int = 30
    evaluators_per_query: int = 3
    evaluator_noise: float = 0.08


DEFAULT_EFFICIENCY_CONFIG = EfficiencyConfig()
"""Defaults used by the efficiency benchmarks."""

DEFAULT_EFFECTIVENESS_CONFIG = EffectivenessConfig()
"""Defaults used by the effectiveness benchmarks."""


def quick_efficiency_config(num_queries: int = 6, datasets: Sequence[str] = ("twitter-small",)) -> EfficiencyConfig:
    """A reduced config for smoke tests and CI-sized benchmark runs."""
    return EfficiencyConfig(datasets=tuple(datasets), num_queries=num_queries)


def quick_effectiveness_config(datasets: Sequence[str] = ("twitter-small",)) -> EffectivenessConfig:
    """A reduced effectiveness config for smoke tests."""
    return EffectivenessConfig(
        datasets=tuple(datasets),
        num_user_study_queries=6,
        num_quantitative_queries=8,
    )
