"""Shared helpers of the serving-tier test modules.

An orthogonal two-topic world: the word ``alpha`` (and a ``[1, 0]``
distribution) lives purely on topic 0, ``beta`` purely on topic 1.  That
makes re-evaluation exact in tests — a pure topic-1 bucket can
never affect a topic-0 standing query, so "no push" is provable rather
than probabilistic.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from typing import Optional

from repro.api import EngineConfig, KSIREngine
from repro.core.processor import ProcessorConfig
from repro.core.scoring import ScoringConfig
from repro.streams import StreamConfig
from repro.topics.model import MatrixTopicModel
from repro.topics.vocabulary import Vocabulary


def make_engine(
    window_length: int = 100, streams: Optional[StreamConfig] = None
) -> KSIREngine:
    """A service-backend engine over the orthogonal two-topic model.

    Word probabilities stay strictly inside (0, 1): the semantic score
    weights words by ``-log p(w|z)``-style surprisal, so a degenerate
    ``p = 1`` word would carry zero weight and produce empty answers.
    """
    vocabulary = Vocabulary(["alpha1", "alpha2", "beta1", "beta2"])
    matrix = np.array([
        [0.6, 0.4, 0.0, 0.0],
        [0.0, 0.0, 0.6, 0.4],
    ])
    model = MatrixTopicModel(vocabulary, matrix, normalize=False)
    config = EngineConfig(
        backend="service",
        processor=ProcessorConfig(
            window_length=window_length,
            bucket_length=1,
            scoring=ScoringConfig(lambda_weight=0.5, eta=1.0),
        ),
        streams=streams,
    )
    return KSIREngine(model, config)


def element(element_id: int, timestamp: int, topic: int) -> Dict[str, object]:
    """The wire form of one element living purely on ``topic``."""
    return {
        "element_id": element_id,
        "timestamp": timestamp,
        "tokens": ["alpha1", "alpha2"] if topic == 0 else ["beta1", "beta2"],
        "references": [],
        "topic_distribution": [1.0, 0.0] if topic == 0 else [0.0, 1.0],
    }


def ingest_payload(end_time: int, *specs: Dict[str, object]) -> Dict[str, object]:
    """A ``POST /ingest/bucket`` body."""
    return {"end_time": end_time, "elements": list(specs)}
