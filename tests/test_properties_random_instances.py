"""Property-based cross-checks of the algorithms on random k-SIR instances.

The paper-example tests pin exact values; these tests generate many small
random instances (random topic models, documents, references and query
vectors) and check the relationships that must hold on *every* instance:

* every algorithm's reported value equals the recomputed objective value;
* CELF equals plain greedy;
* MTTS / MTTD / SieveStreaming respect their approximation guarantees
  relative to the greedy solution (greedy ≥ (1 − 1/e)·OPT, so a method with
  guarantee ``c`` must achieve at least ``c`` times ... the brute-force
  optimum on these tiny instances, which we compute exactly);
* ranked-list traversal upper bounds dominate every retrieved element.
"""

from __future__ import annotations

import itertools

import pytest
from typing import Dict, List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms import CELF, GreedySelection, MTTD, MTTS, SieveStreaming
from repro.core.element import SocialElement
from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import KSIRObjective, ProfileBuilder, ScoringConfig, ScoringContext
from repro.topics.model import MatrixTopicModel
from repro.topics.vocabulary import Vocabulary
from tests import oracle


def build_instance(
    seed: int, num_elements: int, num_topics: int, vocab_size: int
) -> Tuple[ScoringContext, RankedListIndex]:
    """A small random k-SIR instance (context + consistent ranked lists)."""
    rng = np.random.default_rng(seed)
    vocabulary = Vocabulary([f"w{i}" for i in range(vocab_size)])
    topic_word = rng.dirichlet(np.full(vocab_size, 0.3), size=num_topics)
    model = MatrixTopicModel(vocabulary, topic_word, normalize=True)
    config = ScoringConfig(lambda_weight=0.5, eta=2.0)
    builder = ProfileBuilder(model, config)

    elements: List[SocialElement] = []
    for element_id in range(num_elements):
        length = int(rng.integers(2, 6))
        tokens = tuple(f"w{int(i)}" for i in rng.integers(0, vocab_size, size=length))
        distribution = rng.dirichlet(np.full(num_topics, 0.3))
        num_refs = int(rng.integers(0, min(3, element_id + 1))) if element_id else 0
        references = tuple(
            int(r) for r in rng.choice(element_id, size=num_refs, replace=False)
        ) if num_refs else ()
        elements.append(
            SocialElement(
                element_id=element_id,
                timestamp=element_id + 1,
                tokens=tokens,
                references=references,
                topic_distribution=distribution,
            )
        )

    # Everything is active and every element is inside the window.
    followers: Dict[int, List[int]] = {e.element_id: [] for e in elements}
    for element in elements:
        for parent in element.references:
            followers[parent].append(element.element_id)
    profiles = {e.element_id: builder.build(e) for e in elements}
    context = ScoringContext(profiles, followers, config, time=num_elements)

    index = oracle.ReferenceRankedListIndex(num_topics, config)
    for element in elements:
        index.insert(profiles[element.element_id])
        follower_profiles = {fid: profiles[fid] for fid in followers[element.element_id]}
        if follower_profiles:
            index.refresh(profiles[element.element_id], follower_profiles, element.timestamp)
    # Final refresh so every stored score equals the singleton score.
    for element in elements:
        follower_profiles = {fid: profiles[fid] for fid in followers[element.element_id]}
        index.refresh(profiles[element.element_id], follower_profiles, element.timestamp)
    return context, index


def random_query_vector(seed: int, num_topics: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 104729)
    active = rng.integers(1, min(3, num_topics) + 1)
    topics = rng.choice(num_topics, size=active, replace=False)
    vector = np.zeros(num_topics)
    vector[topics] = rng.dirichlet(np.ones(active))
    return vector


def brute_force_optimum(objective: KSIRObjective, k: int) -> float:
    best = 0.0
    ids = objective.context.active_ids
    for size in range(1, min(k, len(ids)) + 1):
        for subset in itertools.combinations(ids, size):
            best = max(best, objective.value(subset))
    return best


instance_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=4, max_value=10),      # elements
    st.integers(min_value=2, max_value=4),       # topics
    st.integers(min_value=5, max_value=12),      # vocabulary
    st.integers(min_value=1, max_value=3),       # k
)


class TestRandomInstances:
    @given(params=instance_params)
    @settings(max_examples=25, deadline=None)
    def test_reported_values_match_recomputation(self, params):
        seed, n, z, v, k = params
        context, index = build_instance(seed, n, z, v)
        vector = random_query_vector(seed, z)
        for algorithm in (GreedySelection(), CELF(), SieveStreaming(0.2), MTTS(0.2), MTTD(0.2)):
            objective = KSIRObjective(context, vector)
            outcome = algorithm.select(
                objective, k, index=index if algorithm.requires_index else None
            )
            recomputed = oracle.score(context, outcome.element_ids, vector)
            assert outcome.value == pytest.approx(recomputed, abs=1e-9)
            assert len(outcome.element_ids) <= k

    @given(params=instance_params)
    @settings(max_examples=25, deadline=None)
    def test_celf_matches_greedy(self, params):
        seed, n, z, v, k = params
        context, index = build_instance(seed, n, z, v)
        del index
        vector = random_query_vector(seed, z)
        greedy_value = GreedySelection().select(KSIRObjective(context, vector), k).value
        celf_value = CELF().select(KSIRObjective(context, vector), k).value
        assert celf_value == pytest.approx(greedy_value, abs=1e-9)

    @given(params=instance_params)
    @settings(max_examples=20, deadline=None)
    def test_approximation_guarantees(self, params):
        seed, n, z, v, k = params
        context, index = build_instance(seed, n, z, v)
        vector = random_query_vector(seed, z)
        optimum = brute_force_optimum(KSIRObjective(context, vector), k)
        if optimum <= 1e-12:
            return
        guarantees = {
            GreedySelection(): 1.0 - 1.0 / np.e,
            CELF(): 1.0 - 1.0 / np.e,
            SieveStreaming(0.2): 0.5 - 0.2,
            MTTS(0.2): 0.5 - 0.2,
            MTTD(0.2): 1.0 - 1.0 / np.e - 0.2,
        }
        for algorithm, bound in guarantees.items():
            objective = KSIRObjective(context, vector)
            outcome = algorithm.select(
                objective, k, index=index if algorithm.requires_index else None
            )
            assert outcome.value >= bound * optimum - 1e-9, type(algorithm).__name__

    @given(params=instance_params)
    @settings(max_examples=20, deadline=None)
    def test_traversal_upper_bound_dominates(self, params):
        seed, n, z, v, _k = params
        context, index = build_instance(seed, n, z, v)
        vector = random_query_vector(seed, z)
        traversal = index.traversal(vector)
        while True:
            bound = traversal.upper_bound()
            element_id = traversal.next_id()
            if element_id is None:
                break
            stored = sum(
                float(vector[topic]) * score
                for topic, score in index.scores_of(element_id).items()
            )
            assert stored <= bound + 1e-9
            # Stored scores equal the true singleton scores after the refresh.
            assert stored == pytest.approx(oracle.singleton_score(context, element_id, vector), abs=1e-9)



