"""Shared fixtures for the k-SIR reproduction test suite.

The most important fixture family reconstructs the paper's worked example
(Table 1, Examples 3.1–3.4, Figure 5/6): eight tweets, two topics, a 16-word
vocabulary with fully specified topic-word probabilities, window length
``T = 4`` and scoring parameters ``λ = 0.5``, ``η = 2``.  The paper gives
exact intermediate values (semantic/influence scores, ranked-list tuples and
the optimal query answers), so these fixtures let the tests assert against
ground truth rather than against our own implementation.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.core.element import SocialElement
from repro.core.processor import KSIRProcessor, ProcessorConfig
from repro.core.scoring import ProfileBuilder, ScoringConfig, ScoringContext
from repro.core.stream import SocialStream
from repro.datasets.synthetic import SyntheticDataset, SyntheticStreamGenerator
from repro.service import ServiceEngine
from repro.topics.model import MatrixTopicModel
from repro.topics.vocabulary import Vocabulary


def build_processor(*args, **kwargs) -> KSIRProcessor:
    """A raw KSIRProcessor, for tests that exercise processor internals."""
    return KSIRProcessor(*args, **kwargs)


def build_service_engine(substrate, **kwargs) -> ServiceEngine:
    """A raw ServiceEngine over an already-built substrate."""
    return ServiceEngine(substrate, **kwargs)


# ---------------------------------------------------------------------------
# The paper's worked example (Table 1)
# ---------------------------------------------------------------------------

#: Topic-word probabilities of Table 1 (b)/(c): word -> (p_1(w), p_2(w)).
PAPER_TOPIC_WORDS: Dict[str, Tuple[float, float]] = {
    "asroma": (0.0, 0.03),
    "assist": (0.06, 0.04),
    "cavs": (0.09, 0.0),
    "champion": (0.1, 0.09),
    "defeat": (0.05, 0.04),
    "final": (0.11, 0.12),
    "lebron": (0.12, 0.0),
    "lfc": (0.0, 0.06),
    "manutd": (0.0, 0.07),
    "nbaplayoffs": (0.11, 0.0),
    "pl": (0.0, 0.11),
    "point": (0.15, 0.14),
    "raptors": (0.08, 0.0),
    "realmadrid": (0.0, 0.07),
    "schedule": (0.13, 0.12),
    "ucl": (0.0, 0.11),
}

#: Table 1 (a): element id -> (time, words, p_1(e), p_2(e), references).
PAPER_ELEMENTS: Dict[int, Tuple[int, Tuple[str, ...], float, float, Tuple[int, ...]]] = {
    1: (1, ("asroma", "final", "lfc", "realmadrid", "ucl"), 0.2, 0.8, ()),
    2: (2, ("champion", "manutd", "pl"), 0.26, 0.74, ()),
    3: (3, ("cavs", "defeat", "nbaplayoffs", "raptors"), 0.89, 0.11, ()),
    4: (4, ("lebron", "nbaplayoffs"), 1.0, 0.0, (3,)),
    5: (5, ("final", "lfc", "ucl"), 0.29, 0.71, (1,)),
    6: (6, ("assist", "lebron", "nbaplayoffs", "point"), 0.7, 0.3, (3,)),
    7: (7, ("champion", "pl"), 0.33, 0.67, (2,)),
    8: (8, ("nbaplayoffs", "pl", "schedule"), 0.51, 0.49, (2, 3, 6)),
}

#: The paper's example parameters: λ = 0.5, η = 2, T = 4.
PAPER_SCORING = ScoringConfig(lambda_weight=0.5, eta=2.0)
PAPER_WINDOW_LENGTH = 4


def build_paper_vocabulary() -> Vocabulary:
    """The 16-word vocabulary of Table 1, ordered w1..w16."""
    return Vocabulary(list(PAPER_TOPIC_WORDS))


def build_paper_topic_model() -> MatrixTopicModel:
    """The two-topic model of Table 1 (probabilities used exactly as given)."""
    vocabulary = build_paper_vocabulary()
    matrix = np.zeros((2, len(vocabulary)))
    for word, (p1, p2) in PAPER_TOPIC_WORDS.items():
        word_id = vocabulary.id_of(word)
        matrix[0, word_id] = p1
        matrix[1, word_id] = p2
    # normalize=False keeps the paper's numbers verbatim (they already sum to 1).
    return MatrixTopicModel(vocabulary, matrix, normalize=False)


def build_paper_elements() -> List[SocialElement]:
    """The eight elements of Table 1 with their ground-truth topic vectors."""
    elements = []
    for element_id, (timestamp, words, p1, p2, references) in PAPER_ELEMENTS.items():
        elements.append(
            SocialElement(
                element_id=element_id,
                timestamp=timestamp,
                tokens=words,
                references=references,
                topic_distribution=np.array([p1, p2]),
            )
        )
    return elements


def build_paper_context(time: int = 8) -> ScoringContext:
    """A scoring snapshot of the paper example at time ``time`` (default 8).

    The active set and in-window follower sets are derived with the same
    window rules the paper uses (T = 4, so W_8 = {e5..e8} and e4 expires).
    """
    elements = {element.element_id: element for element in build_paper_elements()}
    window_start = time - PAPER_WINDOW_LENGTH + 1
    window_ids = {
        eid for eid, element in elements.items() if window_start <= element.timestamp <= time
    }
    active_ids = set(window_ids)
    for eid in window_ids:
        active_ids.update(elements[eid].references)
    followers: Dict[int, List[int]] = {eid: [] for eid in active_ids}
    for eid in window_ids:
        for parent in elements[eid].references:
            if parent in followers:
                followers[parent].append(eid)
    builder = ProfileBuilder(build_paper_topic_model(), PAPER_SCORING)
    profiles = {eid: builder.build(elements[eid]) for eid in active_ids}
    return ScoringContext(profiles=profiles, followers=followers, config=PAPER_SCORING, time=time)


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def paper_vocabulary() -> Vocabulary:
    """The Table 1 vocabulary."""
    return build_paper_vocabulary()


@pytest.fixture(scope="session")
def paper_topic_model() -> MatrixTopicModel:
    """The Table 1 two-topic model."""
    return build_paper_topic_model()


@pytest.fixture()
def paper_elements() -> List[SocialElement]:
    """The eight Table 1 elements."""
    return build_paper_elements()


@pytest.fixture()
def paper_stream(paper_elements) -> SocialStream:
    """The Table 1 elements as a stream."""
    return SocialStream(paper_elements)


@pytest.fixture()
def paper_context() -> ScoringContext:
    """Scoring snapshot of the paper example at time 8."""
    return build_paper_context(time=8)


@pytest.fixture()
def paper_processor(paper_topic_model, paper_elements) -> KSIRProcessor:
    """A processor that has ingested the whole paper example (T=4, L=1)."""
    config = ProcessorConfig(
        window_length=PAPER_WINDOW_LENGTH,
        bucket_length=1,
        scoring=PAPER_SCORING,
    )
    processor = build_processor(paper_topic_model, config)
    processor.process_stream(SocialStream(paper_elements))
    return processor


# ---------------------------------------------------------------------------
# Random-instance helpers (shared by the api/cluster equivalence suites)
# ---------------------------------------------------------------------------


def build_reference_stream(
    seed: int, num_elements: int, num_topics: int, vocab_size: int
) -> Tuple[MatrixTopicModel, List[SocialElement]]:
    """A random topic model plus a stream with backward references.

    Elements arrive one per time unit with ground-truth topic vectors and
    up to three references to earlier elements, so sliding-window expiry,
    follower loss and parent re-activation all trigger on short windows.
    """
    rng = np.random.default_rng(seed)
    vocabulary = Vocabulary([f"w{i}" for i in range(vocab_size)])
    topic_word = rng.dirichlet(np.full(vocab_size, 0.3), size=num_topics)
    model = MatrixTopicModel(vocabulary, topic_word, normalize=True)

    elements: List[SocialElement] = []
    for element_id in range(num_elements):
        length = int(rng.integers(2, 6))
        tokens = tuple(f"w{int(i)}" for i in rng.integers(0, vocab_size, size=length))
        distribution = rng.dirichlet(np.full(num_topics, 0.3))
        num_refs = int(rng.integers(0, min(3, element_id + 1))) if element_id else 0
        references = (
            tuple(int(r) for r in rng.choice(element_id, size=num_refs, replace=False))
            if num_refs
            else ()
        )
        elements.append(
            SocialElement(
                element_id=element_id,
                timestamp=element_id + 1,
                tokens=tokens,
                references=references,
                topic_distribution=distribution,
            )
        )
    return model, elements


# ---------------------------------------------------------------------------
# Synthetic dataset fixtures (shared; generation is cached per session)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def tiny_dataset() -> SyntheticDataset:
    """A tiny synthetic dataset used by integration-style tests."""
    return SyntheticStreamGenerator.from_profile("tiny", seed=7).generate()


@pytest.fixture(scope="session")
def tiny_processor(tiny_dataset) -> KSIRProcessor:
    """A processor that has replayed the tiny dataset (3-hour window)."""
    config = ProcessorConfig(
        window_length=3 * 3600,
        bucket_length=900,
        scoring=ScoringConfig(lambda_weight=0.5, eta=1.0),
    )
    processor = build_processor(tiny_dataset.topic_model, config)
    processor.process_stream(tiny_dataset.stream)
    return processor
