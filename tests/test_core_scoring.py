"""Tests for the representativeness scoring functions.

The most valuable tests here assert against the exact values the paper gives
in its worked example: Example 3.1 (semantic score), Example 3.2 (influence
score), Example 3.4 (optimal query answers) and the ranked-list tuples of
Figure 5.  Property-based tests check the monotonicity and submodularity the
approximation guarantees rely on, and the equivalence of the incremental
marginal-gain bookkeeping with the from-scratch evaluators of ``tests/oracle.py``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scoring import (
    KSIRObjective,
    ProfileBuilder,
    ScoringConfig,
    ScoringContext,
    word_weight,
)
from tests import oracle
from tests.conftest import PAPER_SCORING, build_paper_context, build_paper_elements, build_paper_topic_model


class TestScoringConfig:
    def test_defaults_are_valid(self):
        config = ScoringConfig()
        assert config.lambda_weight == 0.5
        assert config.influence_weight == pytest.approx(0.5 / 20.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ScoringConfig(lambda_weight=1.5)
        with pytest.raises(ValueError):
            ScoringConfig(eta=0.0)
        with pytest.raises(ValueError):
            ScoringConfig(topic_threshold=1.0)

    def test_influence_weight(self):
        config = ScoringConfig(lambda_weight=0.25, eta=3.0)
        assert config.influence_weight == pytest.approx(0.75 / 3.0)


class TestWordWeight:
    def test_zero_probability_gives_zero_weight(self):
        assert word_weight(3, 0.0) == 0.0

    def test_matches_entropy_formula(self):
        assert word_weight(2, 0.1) == pytest.approx(-2 * 0.1 * np.log(0.1))

    def test_weight_positive_for_probabilities_below_one(self):
        assert word_weight(1, 0.5) > 0.0


class TestProfileBuilder:
    def test_requires_topic_distribution(self, paper_topic_model):
        from repro.core.element import SocialElement

        builder = ProfileBuilder(paper_topic_model, PAPER_SCORING)
        element = SocialElement(element_id=1, timestamp=1, tokens=("pl",))
        with pytest.raises(ValueError):
            builder.build(element)

    def test_rejects_wrong_dimension(self, paper_topic_model):
        from repro.core.element import SocialElement

        builder = ProfileBuilder(paper_topic_model, PAPER_SCORING)
        element = SocialElement(
            element_id=1, timestamp=1, tokens=("pl",), topic_distribution=[1.0, 0.0, 0.0]
        )
        with pytest.raises(ValueError):
            builder.build(element)

    def test_profile_topics_respect_threshold(self, paper_topic_model):
        builder = ProfileBuilder(paper_topic_model, PAPER_SCORING)
        elements = {e.element_id: e for e in build_paper_elements()}
        profile_e4 = builder.build(elements[4])
        # e4 has p_2(e4) = 0, so it only appears on topic 1.
        assert profile_e4.topics == (0,)
        assert profile_e4.topic_probability(1) == 0.0
        assert profile_e4.semantic_score(1) == 0.0

    def test_out_of_vocabulary_words_ignored(self, paper_topic_model):
        from repro.core.element import SocialElement

        builder = ProfileBuilder(paper_topic_model, PAPER_SCORING)
        element = SocialElement(
            element_id=99,
            timestamp=1,
            tokens=("pl", "nosuchword"),
            topic_distribution=[0.0, 1.0],
        )
        profile = builder.build(element)
        vocabulary = paper_topic_model.vocabulary
        assert set(profile.word_weights[1]) == {vocabulary.id_of("pl")}

    def test_word_frequency_scales_weight(self, paper_topic_model):
        from repro.core.element import SocialElement

        builder = ProfileBuilder(paper_topic_model, PAPER_SCORING)
        single = builder.build(
            SocialElement(element_id=1, timestamp=1, tokens=("pl",), topic_distribution=[0.0, 1.0])
        )
        double = builder.build(
            SocialElement(
                element_id=2, timestamp=1, tokens=("pl", "pl"), topic_distribution=[0.0, 1.0]
            )
        )
        assert double.semantic_score(1) == pytest.approx(2 * single.semantic_score(1))


class TestPaperExample31:
    """Example 3.1: the semantic score R_2({e2, e7}) = 0.53."""

    def test_word_weights_match_paper(self, paper_context):
        vocabulary = build_paper_topic_model().vocabulary
        profile_e2 = paper_context.profile(2)
        profile_e7 = paper_context.profile(7)
        weights_e2 = profile_e2.word_weights[1]
        weights_e7 = profile_e7.word_weights[1]
        assert weights_e2[vocabulary.id_of("manutd")] == pytest.approx(0.15, abs=0.005)
        assert weights_e2[vocabulary.id_of("champion")] == pytest.approx(0.18, abs=0.005)
        assert weights_e2[vocabulary.id_of("pl")] == pytest.approx(0.20, abs=0.005)
        assert weights_e7[vocabulary.id_of("champion")] == pytest.approx(0.17, abs=0.005)
        assert weights_e7[vocabulary.id_of("pl")] == pytest.approx(0.19, abs=0.005)

    def test_semantic_score_of_set(self, paper_context):
        together = oracle.semantic_score(paper_context, [2, 7], topic=1)
        assert together == pytest.approx(0.53, abs=0.01)

    def test_e7_contributes_nothing_next_to_e2(self, paper_context):
        alone = oracle.semantic_score(paper_context, [2], topic=1)
        together = oracle.semantic_score(paper_context, [2, 7], topic=1)
        assert together == pytest.approx(alone)


class TestPaperExample32:
    """Example 3.2: the influence score I_{2,8}({e2, e3}) = 0.93."""

    def test_pairwise_influence_probabilities(self, paper_context):
        # The probabilities used in the example (the paper's topic 2 = index 1).
        probability = oracle.influence_probability
        assert probability(paper_context, 1, 3, 6) == pytest.approx(0.033, abs=0.002)
        assert probability(paper_context, 1, 2, 7) == pytest.approx(0.50, abs=0.005)
        assert probability(paper_context, 1, 2, 99) == 0.0

    def test_influence_score_of_set(self, paper_context):
        influence = oracle.influence_score(paper_context, [2, 3], topic=1)
        assert influence == pytest.approx(0.93, abs=0.01)

    def test_influence_low_for_off_topic_element(self, paper_context):
        # e3 is mostly on topic 1 (basketball); its influence on topic 2 is low.
        assert oracle.influence_score(paper_context, [3], topic=1) < 0.1


class TestPaperExample34:
    """Example 3.4: optimal answers for the two example queries."""

    def brute_force_best(self, objective, k):
        best_set, best_value = (), 0.0
        for subset in itertools.combinations(objective.context.active_ids, k):
            value = objective.value(subset)
            if value > best_value:
                best_set, best_value = subset, value
        return set(best_set), best_value

    def test_query_x1_optimum(self, paper_context):
        objective = KSIRObjective(paper_context, np.array([0.5, 0.5]))
        best_set, best_value = self.brute_force_best(objective, k=2)
        assert best_set == {1, 3}
        assert best_value == pytest.approx(0.65, abs=0.01)

    def test_query_x2_optimum(self, paper_context):
        objective = KSIRObjective(paper_context, np.array([0.1, 0.9]))
        best_set, best_value = self.brute_force_best(objective, k=2)
        assert best_set == {1, 2}
        # The paper reports OPT = 0.94; recomputing with the unrounded word
        # weights gives 0.955, so the tolerance covers the paper's rounding.
        assert best_value == pytest.approx(0.95, abs=0.02)


class TestSingletonScores:
    def test_singleton_topic_scores_match_figure5(self, paper_context):
        """The ranked-list tuple values of Figure 5 (δ_i(e) at t = 8)."""
        expected_topic1 = {3: 0.65, 6: 0.48, 8: 0.17, 2: 0.10, 1: 0.06, 5: 0.05}
        expected_topic2 = {1: 0.56, 2: 0.48, 5: 0.27, 7: 0.18, 8: 0.16, 6: 0.13, 3: 0.03}
        for element_id, expected in expected_topic1.items():
            assert oracle.singleton_topic_score(paper_context, element_id, 0) == pytest.approx(
                expected, abs=0.01
            )
        for element_id, expected in expected_topic2.items():
            assert oracle.singleton_topic_score(paper_context, element_id, 1) == pytest.approx(
                expected, abs=0.01
            )

    def test_singleton_score_weights_topics(self, paper_context):
        vector = np.array([0.5, 0.5])
        expected = 0.5 * oracle.singleton_topic_score(paper_context, 3, 0) + 0.5 * (
            oracle.singleton_topic_score(paper_context, 3, 1)
        )
        assert oracle.singleton_score(paper_context, 3, vector) == pytest.approx(expected)

    def test_objective_singleton_matches_context(self, paper_context):
        vector = np.array([0.3, 0.7])
        objective = KSIRObjective(paper_context, vector)
        for element_id in paper_context.active_ids:
            assert objective.singleton_score(element_id) == pytest.approx(
                oracle.singleton_score(paper_context, element_id, vector)
            )


class TestContextCopies:
    def test_copies_its_inputs_unless_told_they_are_frozen(self, paper_context):
        profiles = {i: paper_context.profile(i) for i in paper_context.active_ids}
        followers = {i: [j for j in paper_context.followers_of(i)] for i in profiles}
        copied = ScoringContext(profiles, followers, PAPER_SCORING)
        followers[3].append(99)
        del profiles[3]
        assert 3 in copied and 99 not in copied.followers_of(3)

        frozen_followers = {i: tuple(ids) for i, ids in followers.items()}
        kept = ScoringContext(profiles, frozen_followers, PAPER_SCORING, frozen=True)
        assert kept._profiles is profiles and kept._followers is frozen_followers
        assert kept.active_ids == tuple(profiles)


class TestObjectiveIncremental:
    def test_incremental_matches_naive_value(self, paper_context):
        vector = np.array([0.4, 0.6])
        objective = KSIRObjective(paper_context, vector)
        for subset_size in (1, 2, 3):
            for subset in itertools.combinations(paper_context.active_ids, subset_size):
                assert objective.value(subset) == pytest.approx(
                    oracle.score(paper_context, subset, vector), abs=1e-9
                )

    def test_add_accumulates_gains(self, paper_context):
        objective = KSIRObjective(paper_context, np.array([0.5, 0.5]))
        state = objective.new_state()
        total = 0.0
        for element_id in (3, 1, 6):
            total += objective.add(element_id, state)
        assert state.value == pytest.approx(total)
        assert state.selected == [3, 1, 6]

    def test_marginal_gain_does_not_mutate(self, paper_context):
        objective = KSIRObjective(paper_context, np.array([0.5, 0.5]))
        state = objective.new_state()
        objective.add(3, state)
        before = state.copy()
        objective.marginal_gain(1, state)
        assert state.value == before.value
        assert state.covered_words == before.covered_words
        assert state.remaining_influence == before.remaining_influence

    def test_evaluation_counting(self, paper_context):
        objective = KSIRObjective(paper_context, np.array([0.5, 0.5]))
        state = objective.new_state()
        objective.singleton_score(3)
        objective.marginal_gain(1, state)
        objective.marginal_gain(1, state)
        assert objective.evaluated_elements == 2
        assert objective.evaluation_calls == 3

    def test_invalid_query_vectors(self, paper_context):
        with pytest.raises(ValueError):
            KSIRObjective(paper_context, np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            KSIRObjective(paper_context, np.array([-0.1, 1.1]))
        for entry in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                KSIRObjective(paper_context, np.array([entry, 0.5]))

    def test_state_copy_is_independent(self, paper_context):
        objective = KSIRObjective(paper_context, np.array([0.5, 0.5]))
        state = objective.new_state()
        objective.add(3, state)
        clone = state.copy()
        objective.add(1, clone)
        assert 1 not in state.selected
        assert 1 in clone


query_vectors = st.sampled_from(
    [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.5, 0.5]), np.array([0.2, 0.8])]
)


class TestSubmodularityProperties:
    @given(vector=query_vectors, order=st.permutations([1, 2, 3, 5, 6, 7, 8]))
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, vector, order):
        """Adding any element never decreases f(S, x)."""
        context = build_paper_context(time=8)
        objective = KSIRObjective(context, vector)
        state = objective.new_state()
        previous = 0.0
        for element_id in order:
            gain = objective.add(element_id, state)
            assert gain >= -1e-9
            assert state.value >= previous - 1e-9
            previous = state.value

    @given(
        vector=query_vectors,
        subset=st.sets(st.sampled_from([1, 2, 3, 5, 6, 7, 8]), max_size=4),
        extra=st.sampled_from([1, 2, 3, 5, 6, 7, 8]),
        candidate=st.sampled_from([1, 2, 3, 5, 6, 7, 8]),
    )
    @settings(max_examples=80, deadline=None)
    def test_diminishing_returns(self, vector, subset, extra, candidate):
        """Δ(e | S) >= Δ(e | S ∪ {extra}) for any S, extra and e."""
        if candidate in subset or candidate == extra:
            return
        context = build_paper_context(time=8)
        objective = KSIRObjective(context, vector)
        small_state = objective.new_state()
        for element_id in sorted(subset):
            objective.add(element_id, small_state)
        large_state = small_state.copy()
        if extra not in subset:
            objective.add(extra, large_state)
        gain_small = objective.marginal_gain(candidate, small_state)
        gain_large = objective.marginal_gain(candidate, large_state)
        assert gain_small >= gain_large - 1e-9
