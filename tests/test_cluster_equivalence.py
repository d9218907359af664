"""Property test: sharded query answers equal single-node answers.

Random streamed instances (random topic models, documents, backward
references and query vectors) are replayed through a single
``KSIRProcessor`` and a ``ClusterCoordinator`` with a random shard count;
window lengths are chosen so expiry, follower loss
and parent re-activation all trigger.  ``verify_equivalence`` must report
identical element ids and scores (within 1e-9) for every deterministic
algorithm.

SieveStreaming is excluded by design: it is a single-pass streaming
algorithm whose output depends on element iteration order, which sharding
inherently changes (see ``repro.cluster.verify``).

The pool contract is then held exactly, with ``==``: with every replica
current the sharded answers are the single node's to the last bit, and every
candidate pool a shard exports compiles, on the coordinator, to the terms the
single node compiles for those candidates — follower edges included.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterCoordinator,
    RoutedBucket,
    ShardPlanner,
    merge_candidate_pools,
    shard_of,
    verify_equivalence,
)
from repro.core.element import SocialElement
from repro.core.processor import ProcessorConfig
from repro.core.query import KSIRQuery
from repro.core.scoring import KSIRObjective, ScoringConfig, ScoringContext
from repro.topics.model import MatrixTopicModel
from repro.topics.vocabulary import Vocabulary
from tests.conftest import PAPER_SCORING, build_processor, build_reference_stream
from tests.test_query_path import reposting_stream
from tests.test_store_columnar import bucketise

#: Deterministic algorithms covered by the transparency contract.
ALGORITHMS = ("mttd", "mtts", "greedy", "celf")


def build_stream(
    seed: int, num_elements: int, num_topics: int, vocab_size: int
) -> tuple:
    """A random topic model plus a stream with backward references."""
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


def random_query(seed: int, num_topics: int, k: int) -> KSIRQuery:
    rng = np.random.default_rng(seed + 104729)
    active = int(rng.integers(1, min(3, num_topics) + 1))
    topics = rng.choice(num_topics, size=active, replace=False)
    vector = np.zeros(num_topics)
    vector[topics] = rng.dirichlet(np.ones(active))
    return KSIRQuery(k=k, vector=vector)


instance_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=6, max_value=12),      # elements
    st.integers(min_value=2, max_value=5),       # topics
    st.integers(min_value=6, max_value=14),      # vocabulary
    st.integers(min_value=2, max_value=4),       # k
    st.integers(min_value=2, max_value=4),       # shards
)


class TestShardedEquivalence:
    @given(params=instance_params)
    @settings(max_examples=30, deadline=None)
    def test_sharded_answers_match_single_node(self, params):
        seed, n, z, v, k, shards = params
        model, elements = build_stream(seed, n, z, v)
        # A window shorter than the stream forces expiry/re-activation on
        # both sides; small buckets force several advances.
        config = ProcessorConfig(
            window_length=max(3, n // 2),
            bucket_length=2,
            scoring=ScoringConfig(lambda_weight=0.5, eta=2.0),
        )
        report = verify_equivalence(
            elements,
            model,
            queries=[random_query(seed, z, k)],
            config=config,
            cluster=ClusterConfig(num_shards=shards),
            algorithms=ALGORITHMS,
            epsilon=0.1,
        )
        assert report.active_single == report.active_cluster
        assert report.matched, "; ".join(
            f"[{c.algorithm}] {c.detail}" for c in report.mismatches
        )

    @given(params=instance_params)
    @settings(max_examples=5, deadline=None)
    def test_random_instances_match_single_node_over_pipes(self, params):
        """The same proof with one process per shard (whose home filters
        recompute ``shard_of``: nothing about ownership crosses the pipe)."""
        seed, n, z, v, k, shards = params
        model, elements = build_stream(seed, n, z, v)
        config = ProcessorConfig(
            window_length=max(3, n // 2),
            bucket_length=2,
            scoring=ScoringConfig(lambda_weight=0.5, eta=2.0),
        )
        report = verify_equivalence(
            elements,
            model,
            queries=[random_query(seed, z, k)],
            config=config,
            cluster=ClusterConfig(num_shards=min(shards, 3), transport="pipe"),
            algorithms=("mttd", "mtts", "greedy", "celf"),
            epsilon=0.1,
        )
        assert report.active_single == report.active_cluster
        assert report.matched, "; ".join(
            f"[{c.algorithm}] {c.detail}" for c in report.mismatches
        )

    @given(params=instance_params)
    @settings(max_examples=10, deadline=None)
    def test_full_window_instances_match(self, params):
        """No-expiry regime: the whole stream stays active."""
        seed, n, z, v, k, shards = params
        model, elements = build_stream(seed, n, z, v)
        config = ProcessorConfig(
            window_length=10 * n,
            bucket_length=3,
            scoring=ScoringConfig(lambda_weight=0.5, eta=2.0),
        )
        report = verify_equivalence(
            elements,
            model,
            queries=[random_query(seed, z, k), random_query(seed + 1, z, k)],
            config=config,
            cluster=ClusterConfig(num_shards=shards),
            algorithms=("mttd", "greedy"),
            epsilon=0.1,
        )
        assert report.matched, "; ".join(c.detail for c in report.mismatches)


# ---------------------------------------------------------------------------
# The pool contract, exactly
# ---------------------------------------------------------------------------

#: Every index algorithm and both deterministic batch algorithms.
EXACT_ALGORITHMS = ("mtts", "mttd", "celf", "greedy", "topk")
REPLAY = ProcessorConfig(
    window_length=10, bucket_length=4, scoring=PAPER_SCORING, archive_windows=3
)


def replicate_everywhere(planner, elements):
    """``ShardPlanner.route_bucket`` with every element sent to every shard,
    so no shard can hold a version of an element its home shard replaced."""
    num_shards = planner.num_shards
    home_counts = [0] * num_shards
    for element in elements:
        home_counts[shard_of(element.element_id, num_shards)] += 1
    return tuple(
        RoutedBucket(
            shard, tuple(elements), home_counts[shard], len(elements) - home_counts[shard]
        )
        for shard in range(num_shards)
    )


class TestThePoolContract:
    def test_consistent_replicas_answer_as_one_node(self, monkeypatch):
        """With every replica current (every element on every shard), the
        sharded answer *is* the single node's: ids and ``repr(score)`` of
        five algorithms after every bucket of the re-posting streams.  What
        the recorded sharded digests still differ by is ROADMAP 5(d) — a
        shard keeping a version of an element that a re-post replaced."""
        monkeypatch.setattr(ShardPlanner, "route_bucket", replicate_everywhere)
        compared = 0
        for seed in range(30):
            model, elements = reposting_stream(seed)
            rng = np.random.default_rng(seed)
            queries = [
                KSIRQuery(k=int(rng.integers(1, 6)), vector=rng.dirichlet(np.full(3, 0.6)))
                for _ in range(len(elements))
            ]
            single = build_processor(model, REPLAY)
            with ClusterCoordinator(model, REPLAY, ClusterConfig(num_shards=3)) as cluster:
                for position, (members, end_time) in enumerate(bucketise(elements, 4)):
                    single.process_bucket(members, end_time)
                    cluster.process_bucket(members, end_time)
                    for algorithm in EXACT_ALGORITHMS:
                        ours = cluster.query(queries[position], algorithm=algorithm)
                        theirs = single.query(queries[position], algorithm=algorithm)
                        assert (ours.element_ids, repr(ours.score)) == (
                            theirs.element_ids, repr(theirs.score)
                        ), (seed, position, algorithm)
                        compared += 1
        assert compared == 30 * 12 * len(EXACT_ALGORITHMS)

    @pytest.mark.parametrize("transport", ["serial", "pipe"])
    def test_a_pool_is_what_one_node_holds(self, transport):
        """After every bucket, every shard's pool for two queries (all
        topics; one topic at zero weight): the pools hold exactly the single
        node's candidates; per candidate, the merged context compiles the
        very terms a cold single-node context over copies of the live maps
        compiles (``σ`` maps in the same order), its activity time is the
        single node's, and the shipped ``δ_i`` are the single node's stored
        scores on exactly the query's topics — no record names another."""
        model, elements = build_reference_stream(21, 64, 3, 8)
        config = ProcessorConfig(window_length=12, bucket_length=4, scoring=PAPER_SCORING)
        vectors = (np.array([0.5, 0.3, 0.2]), np.array([0.0, 0.6, 0.4]))
        single = build_processor(model, config)
        cluster_config = ClusterConfig(num_shards=3, transport=transport)
        exported = followed = 0
        with ClusterCoordinator(model, config, cluster_config) as cluster:
            for members, end_time in bucketise(elements, 4):
                single.process_bucket(members, end_time)
                cluster.process_bucket(members, end_time)
                cold = ScoringContext(
                    dict(single._profiles), single.window.followers_snapshot(), config.scoring
                )
                index = single.ranked_lists
                for vector in vectors:
                    query_topics = KSIRObjective(cold, vector).query_topics
                    pools = cluster.fanout.export(vector, None)
                    assert sorted(e for pool in pools for e in pool) == sorted(
                        index.top_candidates(vector)
                    )
                    merged, _ = merge_candidate_pools(pools, model.num_topics, config.scoring)
                    for pool in pools:
                        for element_id, (activity, held) in pool.items():
                            ours = merged.compile_terms(element_id, query_topics)
                            theirs = cold.compile_terms(element_id, query_topics)
                            assert ours == theirs
                            assert [list(term[4].items()) for term in ours] == [
                                list(term[4].items()) for term in theirs
                            ]
                            assert activity == index.last_activity(element_id)
                            assert {topic: record[0] for topic, record in held.items()} == {
                                topic: score
                                for topic, score in index.scores_of(element_id).items()
                                if vector[topic] > 0.0
                            }
                            followed += any(term[5][0] for term in ours)
                        exported += len(pool)
        assert followed > 100 and exported > followed  # both kinds of candidate

    def test_the_merged_context_is_not_a_window_snapshot(self):
        """The merged context offers what the objective reads and nothing of
        a window snapshot: no profiles, no follower view and no from-scratch
        evaluator that would answer influence 0.0 without a follower view."""
        model, elements = build_reference_stream(21, 64, 3, 8)
        config = ProcessorConfig(window_length=12, bucket_length=4, scoring=PAPER_SCORING)
        vector = np.array([0.5, 0.3, 0.2])
        with ClusterCoordinator(model, config, ClusterConfig(num_shards=2)) as cluster:
            cluster.process_stream(elements)
            pools = cluster.fanout.export(vector, None)
            merged, _ = merge_candidate_pools(pools, model.num_topics, config.scoring)
        assert not isinstance(merged, ScoringContext)
        assert merged.active_count == sum(map(len, pools)) > 0
        assert all(element_id in merged for element_id in merged.active_ids)
        window_api = {
            name for name in dir(ScoringContext) if not name.startswith("_")
        } - {"config", "time", "active_ids", "active_count", "compile_terms"}
        assert window_api >= {"profile", "followers_of", "follower_edges"}
        window_api |= {"semantic_score", "influence_score", "singleton_score", "score"}
        assert [name for name in window_api if hasattr(merged, name)] == []
