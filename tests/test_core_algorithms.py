"""Tests for the k-SIR processing algorithms (MTTS, MTTD and baselines).

The paper's worked example gives exact expected answers: for the query
``q_8(2, (0.5, 0.5))`` both MTTS (Example 4.1) and MTTD (Example 4.3) return
``{e1, e3}`` with score 0.65.  Beyond the example, the algorithms are cross-
checked against brute force and against each other on randomised instances,
and their approximation guarantees are verified empirically.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms import (
    ALGORITHM_REGISTRY,
    CELF,
    GreedySelection,
    MTTD,
    MTTS,
    SieveStreaming,
    TopKRepresentative,
    make_algorithm,
)
from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import ElementProfile, KSIRObjective, ScoringContext
from tests import oracle
from tests.conftest import build_paper_context
from tests.test_core_ranked_list import build_paper_index
from tests.test_query_path import (
    NUM_TOPICS,
    QUERY_VECTORS,
    SCORING,
    profiles,
    stream_window,
)

ALL_ALGORITHMS = [
    GreedySelection(),
    CELF(),
    SieveStreaming(epsilon=0.1),
    TopKRepresentative(),
    MTTS(epsilon=0.1),
    MTTD(epsilon=0.1),
]

INDEXED = {"mtts", "mttd", "topk-representative"}


def run_algorithm(algorithm, vector, k=2):
    context = build_paper_context(time=8)
    objective = KSIRObjective(context, np.asarray(vector, dtype=float))
    index = build_paper_index(until_time=8) if algorithm.requires_index else None
    outcome = algorithm.select(objective, k, index=index)
    return objective, outcome


def brute_force_optimum(vector, k=2):
    context = build_paper_context(time=8)
    objective = KSIRObjective(context, np.asarray(vector, dtype=float))
    best_value = 0.0
    for subset in itertools.combinations(context.active_ids, k):
        best_value = max(best_value, objective.value(subset))
    return best_value


class TestRegistry:
    def test_make_algorithm_known_names(self):
        assert isinstance(make_algorithm("mtts", epsilon=0.2), MTTS)
        assert isinstance(make_algorithm("MTTD", epsilon=0.2), MTTD)
        assert isinstance(make_algorithm("celf"), CELF)
        assert isinstance(make_algorithm("sievestreaming", epsilon=0.3), SieveStreaming)
        assert isinstance(make_algorithm("top-k"), TopKRepresentative)

    def test_make_algorithm_unknown_name(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_algorithm("nope")

    def test_registry_covers_paper_methods(self):
        for name in ("celf", "sieve", "topk", "mtts", "mttd", "greedy"):
            assert name in ALGORITHM_REGISTRY

    def test_epsilon_validation(self):
        for cls in (MTTS, MTTD, SieveStreaming):
            with pytest.raises(ValueError):
                cls(epsilon=0.0)
            with pytest.raises(ValueError):
                cls(epsilon=1.0)

    def test_repr_mentions_epsilon(self):
        assert "0.25" in repr(MTTS(epsilon=0.25))
        assert "0.25" in repr(MTTD(epsilon=0.25))


class TestPaperExampleQueries:
    """Examples 4.1 and 4.3: q_8(2, (0.5, 0.5)) → {e1, e3}, score 0.65."""

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS, ids=lambda a: a.name)
    def test_balanced_query_optimal_set(self, algorithm):
        if algorithm.name == "topk-representative":
            pytest.skip("top-k by singleton score is not expected to find the optimum")
        objective, outcome = run_algorithm(algorithm, [0.5, 0.5], k=2)
        assert set(outcome.element_ids) == {1, 3}
        assert outcome.value == pytest.approx(0.65, abs=0.01)
        assert objective.context.active_count == 7

    @pytest.mark.parametrize(
        "algorithm",
        [GreedySelection(), CELF(), MTTS(epsilon=0.1), MTTD(epsilon=0.1)],
        ids=lambda a: a.name,
    )
    def test_skewed_query_prefers_topic2(self, algorithm):
        _objective, outcome = run_algorithm(algorithm, [0.1, 0.9], k=2)
        assert set(outcome.element_ids) == {1, 2}

    def test_mtts_example_walkthrough_epsilon_03(self):
        """Example 4.1 uses ε = 0.3 and still returns {e1, e3}."""
        _objective, outcome = run_algorithm(MTTS(epsilon=0.3), [0.5, 0.5], k=2)
        assert set(outcome.element_ids) == {1, 3}

    def test_mttd_example_walkthrough_epsilon_03(self):
        """Example 4.3 uses ε = 0.3 and returns {e1, e3}."""
        _objective, outcome = run_algorithm(MTTD(epsilon=0.3), [0.5, 0.5], k=2)
        assert set(outcome.element_ids) == {1, 3}

    def test_topk_representative_picks_highest_singletons(self):
        objective, outcome = run_algorithm(TopKRepresentative(), [0.5, 0.5], k=2)
        scores = {
            eid: oracle.singleton_score(objective.context, eid, np.array([0.5, 0.5]))
            for eid in objective.context.active_ids
        }
        expected = set(sorted(scores, key=lambda eid: -scores[eid])[:2])
        assert set(outcome.element_ids) == expected


class TestGuaranteesAndInvariants:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS, ids=lambda a: a.name)
    @pytest.mark.parametrize("vector", [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.8, 0.2]])
    def test_result_size_bounded_by_k(self, algorithm, vector):
        for k in (1, 2, 4):
            _objective, outcome = run_algorithm(algorithm, vector, k=k)
            assert len(outcome.element_ids) <= k
            assert len(set(outcome.element_ids)) == len(outcome.element_ids)

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS, ids=lambda a: a.name)
    def test_value_matches_recomputed_score(self, algorithm):
        objective, outcome = run_algorithm(algorithm, [0.4, 0.6], k=3)
        recomputed = oracle.score(objective.context, outcome.element_ids, np.array([0.4, 0.6]))
        assert outcome.value == pytest.approx(recomputed, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("vector", [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.3, 0.7]])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_greedy_and_celf_agree(self, vector, k):
        _objective, greedy_outcome = run_algorithm(GreedySelection(), vector, k=k)
        _objective, celf_outcome = run_algorithm(CELF(), vector, k=k)
        assert celf_outcome.value == pytest.approx(greedy_outcome.value, abs=1e-9)

    @pytest.mark.parametrize("vector", [[1.0, 0.0], [0.5, 0.5], [0.2, 0.8]])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_approximation_guarantees_hold(self, vector, k):
        optimum = brute_force_optimum(vector, k=k)
        bounds = {
            "celf": 1.0 - 1.0 / np.e,
            "greedy": 1.0 - 1.0 / np.e,
            "sievestreaming": 0.5 - 0.1,
            "mtts": 0.5 - 0.1,
            "mttd": 1.0 - 1.0 / np.e - 0.1,
        }
        for algorithm in ALL_ALGORITHMS:
            bound = bounds.get(algorithm.name)
            if bound is None:
                continue
            _objective, outcome = run_algorithm(algorithm, vector, k=k)
            assert outcome.value >= bound * optimum - 1e-9, algorithm.name

    def test_mtts_evaluates_each_element_at_most_once(self):
        objective, outcome = run_algorithm(MTTS(epsilon=0.1), [0.5, 0.5], k=2)
        assert outcome.evaluated_elements <= objective.context.active_count

    def test_mtts_prunes_some_evaluations_on_skewed_query(self):
        """With a single-topic query MTTS should not touch the other list."""
        objective, outcome = run_algorithm(MTTS(epsilon=0.3), [1.0, 0.0], k=1)
        assert outcome.evaluated_elements < objective.context.active_count

    def test_index_required_error(self):
        context = build_paper_context()
        objective = KSIRObjective(context, np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="requires the ranked-list index"):
            MTTS().select(objective, 2, index=None)

    def test_invalid_k_rejected(self):
        context = build_paper_context()
        objective = KSIRObjective(context, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            CELF().select(objective, 0)

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS, ids=lambda a: a.name)
    def test_k_larger_than_active_set(self, algorithm):
        _objective, outcome = run_algorithm(algorithm, [0.5, 0.5], k=50)
        assert len(outcome.element_ids) <= 7

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS, ids=lambda a: a.name)
    def test_extras_are_floats(self, algorithm):
        _objective, outcome = run_algorithm(algorithm, [0.5, 0.5], k=2)
        assert all(isinstance(value, float) for value in outcome.extras.values())


class TestSyntheticCrossCheck:
    """Cross-check the algorithms on a generated stream (beyond the example)."""

    @pytest.fixture(scope="class")
    def prepared(self, tiny_processor):
        return tiny_processor

    @pytest.mark.parametrize("topic", [0, 1, 2])
    def test_mttd_close_to_celf(self, prepared, tiny_dataset, topic):
        query = tiny_dataset.make_query(k=8, topic=topic)
        celf_result = prepared.query(query, algorithm="celf")
        mttd_result = prepared.query(query, algorithm="mttd", epsilon=0.1)
        mtts_result = prepared.query(query, algorithm="mtts", epsilon=0.1)
        sieve_result = prepared.query(query, algorithm="sieve", epsilon=0.1)
        topk_result = prepared.query(query, algorithm="topk")
        assert mttd_result.score >= 0.95 * celf_result.score
        assert mtts_result.score >= 0.80 * celf_result.score
        assert sieve_result.score >= 0.70 * celf_result.score
        assert topk_result.score <= celf_result.score + 1e-9

    def test_indexed_algorithms_evaluate_fewer_elements(self, prepared, tiny_dataset):
        query = tiny_dataset.make_query(k=5, topic=1)
        celf_result = prepared.query(query, algorithm="celf")
        mtts_result = prepared.query(query, algorithm="mtts")
        assert mtts_result.evaluated_elements <= celf_result.evaluated_elements


@st.composite
def tied_instances(draw):
    """A window whose later ids copy earlier elements (profile and
    followers), so their singleton scores and gains tie exactly, with the
    ranked lists of its stored ``δ_i(e)``."""
    count = draw(st.integers(1, 6))
    profile_map = {eid: draw(profiles(eid)) for eid in range(count)}
    followers = {
        eid: tuple(draw(st.lists(st.integers(0, 13), max_size=4, unique=True)))
        for eid in range(count)
    }
    for eid, source in enumerate(draw(st.lists(st.integers(0, count - 1), max_size=6)), count):
        profile_map[eid] = replace(profile_map[source], element_id=eid)
        followers[eid] = followers[source]
    context = ScoringContext(profile_map, followers, SCORING, time=1)
    index = RankedListIndex(NUM_TOPICS, SCORING)
    index.load(
        (eid, 1, {topic: delta for topic, delta, *_ in context.compile_terms(eid)})
        for eid in draw(st.permutations(list(profile_map)))
    )
    return context, index


def assert_mttd_is_the_lazy_heap(context, index, vector, k, epsilon):
    """MTTD selects, scores, reports and counts its gains exactly as the
    lazy-max-heap body does; returns the selected ids."""
    ours_objective = KSIRObjective(context, vector)
    ours = MTTD(epsilon).select(ours_objective, k, index=index)
    theirs_objective = KSIRObjective(context, vector)
    theirs = oracle.reference_mttd(theirs_objective, k, index, epsilon)
    assert (ours.element_ids, ours.value, ours.evaluated_elements, ours.extras) == theirs
    assert ours_objective.evaluation_calls == theirs_objective.evaluation_calls
    return ours.element_ids


class TestPlainHeapsEqualTheLazyHeap:
    """MTTD's buffer and CELF's heap are plain ``heapq`` lists; on windows
    full of exact ties they select, score, count and report what the
    lazy-max-heap bodies (``tests/oracle.py``) did."""

    @given(
        instance=tied_instances(),
        vector=QUERY_VECTORS,
        k=st.integers(1, 6),
        epsilon=st.sampled_from([0.05, 0.1, 0.3, 0.6]),
    )
    @settings(max_examples=300, deadline=None)
    def test_mttd(self, instance, vector, k, epsilon):
        context, index = instance
        assert_mttd_is_the_lazy_heap(context, index, vector, k, epsilon)

    @given(
        seed=st.integers(0, 200),
        k=st.integers(1, 12),
        epsilon=st.sampled_from([0.05, 0.1, 0.3, 0.6]),
        topics=st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True),
    )
    @settings(max_examples=80, deadline=None)
    def test_mttd_on_stream_windows(self, seed, k, epsilon, topics):
        processor = stream_window(seed)
        vector = np.zeros(3)
        vector[topics] = np.random.default_rng(seed).uniform(0.2, 1.0, len(topics))
        assert_mttd_is_the_lazy_heap(
            processor.snapshot(), processor.ranked_lists, vector, k, epsilon
        )

    def test_a_fresh_entry_waits_behind_equal_re_pushes(self):
        """Binary-fraction word weights and no followers make gains exact.
        ``a`` covers words 1 and 2; ``b`` and ``c`` tie on their singles and,
        once ``a`` is in, both fall to ``λ/4`` and are re-pushed in round 2.
        ``d``'s single is ``λ/4`` too, and its bound is exactly round 3's
        ``τ = λ/4``, so it is retrieved in round 3 (with an equal bound
        counting as reachable), after both re-pushes: it pops after them."""
        a, b, c, d = 1, 2, 3, 4
        words = {
            a: {1: 0.5, 2: 0.5},
            b: {1: 0.5, 3: 0.25},
            c: {2: 0.5, 4: 0.25},
            d: {5: 0.25},
        }
        profile_map = {
            eid: ElementProfile(eid, 1, {0: 1.0}, {0: sigma}, {0: sum(sigma.values())}, ())
            for eid, sigma in words.items()
        }
        context = ScoringContext(profile_map, {}, SCORING, time=1)
        index = RankedListIndex(1, SCORING)
        index.bulk_update(inserts=[(profile, 1) for profile in profile_map.values()])
        vector = np.array([1.0])
        assert assert_mttd_is_the_lazy_heap(context, index, vector, 4, 0.5) == (a, b, c, d)
        for k in (1, 2, 3):
            assert_mttd_is_the_lazy_heap(context, index, vector, k, 0.5)
        outcome = MTTD(0.5).select(KSIRObjective(context, vector), 3, index=index)
        assert outcome.extras == {"rounds": 3.0, "retrieved": 4.0, "buffered": 1.0}

    @given(instance=tied_instances(), vector=QUERY_VECTORS, k=st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_celf(self, instance, vector, k):
        context, _ = instance
        ours = CELF().select(KSIRObjective(context, vector), k)
        theirs = oracle.reference_celf(KSIRObjective(context, vector), k)
        assert (
            ours.element_ids, ours.value, ours.evaluated_elements, ours.extras
        ) == theirs
