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

The mirror contract is then held exactly, with ``==``: with every replica
current the sharded answers are the single node's to the last bit, and the
coordinator's replica of the shards' records compiles to the terms the
single node compiles — follower edges included — and holds the single
node's ranked lists, after every bucket, a load, a failover and a rebalance.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig, KSIREngine
from repro.cluster import (
    ClusterConfig,
    ClusterCoordinator,
    MergedCandidateContext,
    RoutedBucket,
    ShardPlanner,
    ShardWorker,
    shard_of,
    verify_equivalence,
)
from repro.cluster.partition import home_filter
from repro.core.element import SocialElement
from repro.core.processor import ProcessorConfig
from repro.core.query import KSIRQuery
from repro.core.scoring import ScoringConfig, ScoringContext
from repro.ha import ClusterSupervisor, HAConfig
from repro.ha.chaos import kill_worker
from repro.topics.model import MatrixTopicModel
from repro.topics.vocabulary import Vocabulary
from tests.conftest import PAPER_SCORING, build_processor, build_reference_stream
from tests.test_cluster_coordinator import contract_stream
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
# The mirror contract, exactly
# ---------------------------------------------------------------------------

#: Every index algorithm and both deterministic batch algorithms.
EXACT_ALGORITHMS = ("mtts", "mttd", "celf", "greedy", "topk")
REPLAY = ProcessorConfig(
    window_length=10, bucket_length=4, scoring=PAPER_SCORING, archive_windows=3
)
MIRRORED = ProcessorConfig(window_length=12, bucket_length=4, scoring=PAPER_SCORING)
#: ``TestTransportContract.CONFIG``, the configuration of ``contract_stream``.
CONTRACT = ProcessorConfig(
    window_length=4, bucket_length=1, scoring=PAPER_SCORING, archive_windows=2
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


def mirrored_streams():
    """``(model, config, buckets)`` of the reference stream (followers,
    expiry, re-activation) and of the transport contract's stream (re-posts
    that drop and regain topics)."""
    model, elements = build_reference_stream(21, 64, 3, 8)
    yield model, MIRRORED, list(bucketise(elements, 4))
    model, buckets = contract_stream()
    yield model, CONTRACT, buckets


def assert_mirrors_one_node(coordinator, single):
    """Sync the replica (the first query after a bucket does) and hold it to
    the single node with ``==``: the same ids; per element the terms a cold
    single-node context compiles on every topic (``σ`` maps in the same
    order) and the same activity time; every ranked list item for item.
    Returns how many replicated elements have followers."""
    num_topics = single.topic_model.num_topics
    coordinator.query(np.full(num_topics, 1.0 / num_topics), k=1)
    records, index = coordinator._records, coordinator._index
    assert sorted(records) == sorted(single.window.active_ids())
    cold = ScoringContext(
        dict(single.profiles), single.window.followers_snapshot(), single.config.scoring
    )
    merged = MergedCandidateContext(records, np.ones(num_topics), single.config.scoring)
    every_topic = tuple((topic, 1.0) for topic in range(num_topics))
    followed = 0
    for element_id, (activity, _) in records.items():
        ours = merged.compile_terms(element_id, every_topic)
        theirs = cold.compile_terms(element_id, every_topic)
        assert ours == theirs, element_id
        assert [list(term[4].items()) for term in ours] == [
            list(term[4].items()) for term in theirs
        ]
        assert activity == single.ranked_lists.last_activity(element_id)
        followed += any(term[5][0] for term in ours)
    for topic in range(num_topics):
        assert index.items(topic) == single.ranked_lists.items(topic), topic
    return followed


def sharded(transport, num_shards=3, config=MIRRORED):
    return EngineConfig(
        backend="sharded", processor=config,
        cluster=ClusterConfig(num_shards=num_shards, transport=transport),
    )


class TestTheMirrorContract:
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
    def test_the_mirror_is_what_one_node_holds(self, transport):
        """After every bucket of both streams the replica is the single
        node's window, record for record and list for list."""
        followed = 0
        for model, config, buckets in mirrored_streams():
            single = build_processor(model, config)
            cluster_config = ClusterConfig(num_shards=3, transport=transport)
            with ClusterCoordinator(model, config, cluster_config) as cluster:
                for members, end_time in buckets:
                    single.process_bucket(members, end_time)
                    cluster.process_bucket(members, end_time)
                    followed += assert_mirrors_one_node(cluster, single)
        assert followed > 100  # and the rest have none: both kinds of record

    @pytest.mark.parametrize("transport", ["serial", "pipe"])
    def test_a_loaded_engine_mirrors_one_node(self, transport, tmp_path):
        """A checkpoint never holds the replica: the loaded engine syncs a
        full dump of every shard, then deltas."""
        model, config, buckets = next(mirrored_streams())
        single = build_processor(model, config)
        with KSIREngine(model, sharded(transport)) as engine:
            for members, end_time in buckets[:7]:
                single.process_bucket(members, end_time)
                engine.ingest_bucket(members, end_time)
                assert_mirrors_one_node(engine.coordinator, single)
            path = engine.save(tmp_path / "ckpt")
        with KSIREngine.load(path) as loaded:
            coordinator = loaded.coordinator
            assert coordinator._records == {}
            assert_mirrors_one_node(coordinator, single)
            for members, end_time in buckets[7:]:
                single.process_bucket(members, end_time)
                loaded.ingest_bucket(members, end_time)
                assert_mirrors_one_node(coordinator, single)

    @pytest.mark.parametrize("recovery", ["logged", "checkpointed"])
    def test_a_healed_cluster_mirrors_one_node(self, recovery, tmp_path):
        """Kill a shard before a bucket (healed in the ingest) and between a
        bucket and its query (healed in the query's sync, whose reply from
        the live shard is never applied).  ``logged``: the dead shard
        replays the whole WAL into a fresh process and the replica is kept,
        so the live shard answers the next sync in full; ``checkpointed``:
        the shard restores the newest checkpoint and the replica starts
        over."""
        model, config, buckets = next(mirrored_streams())
        single = build_processor(model, config)
        supervisor = ClusterSupervisor(
            KSIREngine(model, sharded("pipe", num_shards=2)),
            ha=HAConfig(checkpoint_every=3 if recovery == "checkpointed" else 0),
            checkpoint_dir=tmp_path if recovery == "checkpointed" else None,
        )
        query = KSIRQuery(k=3, vector=np.array([0.5, 0.3, 0.2]))
        with supervisor:
            for position, (members, end_time) in enumerate(buckets):
                if position == 5:
                    kill_worker(supervisor.coordinator, 1)
                single.process_bucket(members, end_time)
                supervisor.ingest_bucket(members, end_time)
                if position in (4, 9):
                    kill_worker(supervisor.coordinator, position % 2)
                ours = supervisor.query(query, algorithm="mttd")
                theirs = single.query(query, algorithm="mttd")
                assert (ours.element_ids, repr(ours.score)) == (
                    theirs.element_ids, repr(theirs.score)
                )
                assert_mirrors_one_node(supervisor.coordinator, single)
            assert supervisor.status()["recoveries"] == 3

    def test_a_rebalanced_cluster_mirrors_one_node(self):
        """2 → 3 → 2 shards: each new engine starts from an empty replica."""
        model, config, buckets = next(mirrored_streams())
        single = build_processor(model, config)
        with ClusterSupervisor(KSIREngine(model, sharded("serial", num_shards=2))) as supervisor:
            for position, (members, end_time) in enumerate(buckets):
                if position in (5, 10):
                    supervisor.rebalance(5 - supervisor.coordinator.num_shards)
                    assert supervisor.coordinator._records == {}
                    assert_mirrors_one_node(supervisor.coordinator, single)
                single.process_bucket(members, end_time)
                supervisor.ingest_bucket(members, end_time)
                assert_mirrors_one_node(supervisor.coordinator, single)
            assert supervisor.coordinator.num_shards == 2

    def test_a_failed_sync_is_never_half_applied(self):
        """A sync that fails on one shard folds in nothing and keeps no
        generation: the shards that did answer reply in full next time."""
        model, config, buckets = next(mirrored_streams())
        single = build_processor(model, config)
        with ClusterCoordinator(model, config, ClusterConfig(num_shards=3)) as cluster:
            for position, (members, end_time) in enumerate(buckets):
                single.process_bucket(members, end_time)
                cluster.process_bucket(members, end_time)
                if position % 4 == 2:
                    failing = cluster.workers[position % 3]

                    def refuse(generation, worker=failing):
                        del worker.sync  # answer the next sync again
                        raise RuntimeError("shard unavailable")

                    failing.sync = refuse
                    with pytest.raises(RuntimeError, match="shard unavailable"):
                        cluster.query(np.full(3, 1 / 3), k=1)
                assert_mirrors_one_node(cluster, single)

    def test_a_restored_worker_dumps_in_full(self):
        """Whatever generation it is handed, a restored worker's next reply
        is its whole share, equal to the share of a worker that never
        synced."""
        model, config, buckets = next(mirrored_streams())

        def worker():
            return ShardWorker(0, model, config, home_filter=home_filter(0, 2))

        live, checkpointed = worker(), worker()
        for members, end_time in buckets[:6]:
            live.ingest(members, end_time)
        first = live.sync(None)
        assert first.full and first.records and first.generation == 0
        state = live.state_dict()
        checkpointed.restore_state(state)
        for members, end_time in buckets[6:9]:
            live.ingest(members, end_time)
        delta = live.sync(first.generation)
        assert not delta.full and delta.generation == 1
        assert delta.records and delta.gone and delta.records.keys().isdisjoint(delta.gone)
        live.restore_state(state)
        again = live.sync(delta.generation)
        assert again.full and again.gone == ()
        assert again.records == checkpointed.sync(None).records == first.records

    def test_merged_context_is_not_a_window_snapshot(self):
        """The merged context offers what the objective reads and nothing of
        a window snapshot: no profiles, no follower view and no from-scratch
        evaluator that would answer influence 0.0 without a follower view.
        Its ground set is the query's candidates, ascending."""
        model, elements = build_reference_stream(21, 64, 3, 8)
        config = ProcessorConfig(window_length=12, bucket_length=4, scoring=PAPER_SCORING)
        vector = np.array([0.0, 0.3, 0.7])
        with ClusterCoordinator(model, config, ClusterConfig(num_shards=2)) as cluster:
            cluster.process_stream(elements)
            cluster.query(vector, k=1)
            records = cluster._records
            merged = MergedCandidateContext(records, vector, config.scoring)
        assert not isinstance(merged, ScoringContext)
        assert merged.active_ids == tuple(sorted(records)) and merged.active_count > 0
        record = (0.5, 0.5, {3: 0.5}, ((), (), 0.0))
        held_by = {9: {0: record}, 4: {1: record, 2: record}, 7: {2: record}}
        only = MergedCandidateContext(
            {element_id: (1, held) for element_id, held in held_by.items()},
            np.array([0.0, 0.0, 1.0]), config.scoring,
        )
        assert (only.active_ids, only.active_count) == ((4, 7), 2)
        assert [element_id in only for element_id in (4, 7, 9, 5)] == [True, True, False, False]
        window_api = {
            name for name in dir(ScoringContext) if not name.startswith("_")
        } - {"config", "time", "active_ids", "active_count", "compile_terms"}
        assert window_api >= {"profile", "followers_of", "follower_edges"}
        window_api |= {"semantic_score", "influence_score", "singleton_score", "score"}
        assert [name for name in window_api if hasattr(merged, name)] == []
