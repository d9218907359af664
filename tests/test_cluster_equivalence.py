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
"""

from __future__ import annotations

from typing import List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, verify_equivalence
from repro.core.element import SocialElement
from repro.core.processor import ProcessorConfig
from repro.core.query import KSIRQuery
from repro.core.scoring import ScoringConfig
from repro.topics.model import MatrixTopicModel
from repro.topics.vocabulary import Vocabulary

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
