"""Tests for the shard workers, the cluster coordinator and the service seam."""

from __future__ import annotations

import math
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterCoordinator,
    TransportBackend,
    create_transport,
    register_transport,
    transport_names,
)
from repro.cluster import shard_of, transport as transport_module
from repro.cluster.partition import home_filter
from repro.core.element import SocialElement
from repro.core.processor import ProcessorConfig
from repro.core.query import KSIRQuery
from repro.core.scoring import ScoringConfig
from repro.core.stream import SocialStream
from repro.ha.delta import _equal, normalise_state
from repro.ha.rebalance import repartition_state
from tests.conftest import PAPER_SCORING, build_processor, build_service_engine
from tests.oracle import Oracle
from tests.test_oracle import ALGORITHMS, materialise

TINY_CONFIG = ProcessorConfig(
    window_length=3 * 3600,
    bucket_length=900,
    scoring=ScoringConfig(lambda_weight=0.5, eta=1.0),
)


@pytest.fixture(scope="module")
def replayed(tiny_dataset):
    """The tiny stream replayed on a single node and on a 3-shard cluster."""
    single = build_processor(tiny_dataset.topic_model, TINY_CONFIG)
    single.process_stream(tiny_dataset.stream)
    coordinator = ClusterCoordinator(
        tiny_dataset.topic_model,
        TINY_CONFIG,
        cluster=ClusterConfig(num_shards=3),
    )
    coordinator.process_stream(tiny_dataset.stream)
    yield single, coordinator
    coordinator.close()


class TestClusterConfig:
    def test_transport_validated(self):
        with pytest.raises(ValueError, match="unknown cluster transport"):
            ClusterConfig(transport="carrier-pigeon")
        with pytest.raises(ValueError, match="unknown cluster transport"):
            ClusterConfig(transport=" ")

    def test_three_fields(self):
        assert list(ClusterConfig.__dataclass_fields__) == [
            "num_shards", "transport", "candidate_budget",
        ]
        assert ClusterConfig().transport == "serial"

    def test_the_budget_is_retired(self, replayed, tiny_dataset):
        """Nothing derives a per-shard budget any more; ``candidate_budget``
        is still validated (configurations name it) and changes nothing."""
        assert not hasattr(ClusterConfig, "derive_budget")
        with pytest.raises(ValueError, match="candidate_budget"):
            ClusterConfig(candidate_budget=0)
        _single, coordinator = replayed
        query = tiny_dataset.make_query(k=4, topic=0)
        with ClusterCoordinator(
            tiny_dataset.topic_model, TINY_CONFIG,
            cluster=ClusterConfig(num_shards=3, candidate_budget=1),
        ) as budgeted:
            budgeted.process_stream(tiny_dataset.stream)
            for algorithm in ("mttd", "celf"):
                ours = budgeted.query(query, algorithm=algorithm)
                theirs = coordinator.query(query, algorithm=algorithm)
                assert (ours.element_ids, repr(ours.score), ours.extras) == (
                    theirs.element_ids, repr(theirs.score), theirs.extras
                )
                assert ours.extras["shards"] == 3.0
                assert not {"candidate_budget", "merged_candidates"} & set(ours.extras)


class TestCoordinatorIngestion:
    def test_active_count_matches_single_node(self, replayed):
        single, coordinator = replayed
        assert coordinator.active_count == single.active_count
        assert coordinator.elements_processed == single.elements_processed
        assert coordinator.current_time == single.current_time
        assert coordinator.buckets_processed == single.buckets_processed

    def test_every_active_element_is_home_somewhere(self, replayed):
        single, coordinator = replayed
        home_ids = set()
        for worker in coordinator.workers:
            index = worker.processor.ranked_lists
            ids = {
                eid for topic in range(index.num_topics)
                for eid, _score in index.items(topic)
            }
            assert home_ids.isdisjoint(ids), "ranked lists overlap across shards"
            home_ids.update(ids)
        single_ids = {
            eid for topic in range(single.ranked_lists.num_topics)
            for eid, _score in single.ranked_lists.items(topic)
        }
        assert home_ids == single_ids

    def test_stored_scores_match_single_node(self, replayed):
        single, coordinator = replayed
        for worker in coordinator.workers:
            index = worker.processor.ranked_lists
            for topic in range(index.num_topics):
                for element_id, score in index.items(topic):
                    assert score == pytest.approx(
                        single.ranked_lists.score(topic, element_id), abs=1e-9
                    )

    def test_shard_stats_accounting(self, replayed):
        _single, coordinator = replayed
        stats = coordinator.shard_stats()
        assert len(stats) == 3
        assert sum(s.home_elements for s in stats) == coordinator.elements_processed
        assert all(s.foreign_elements >= 0 for s in stats)
        assert sum(s.active_home for s in stats) == coordinator.active_count

    def test_dirty_topics_union(self, tiny_dataset):
        with ClusterCoordinator(
            tiny_dataset.topic_model,
            TINY_CONFIG,
            cluster=ClusterConfig(num_shards=2),
        ) as coordinator:
            stream = SocialStream(tiny_dataset.stream.elements[:40])
            coordinator.process_stream(stream)
            dirty = coordinator.take_dirty_topics()
            assert len(dirty) > 0
            # Drained: a second take returns nothing new.
            assert coordinator.take_dirty_topics() == ()

    def test_closed_coordinator_rejects_work(self, tiny_dataset):
        coordinator = ClusterCoordinator(
            tiny_dataset.topic_model,
            TINY_CONFIG,
            cluster=ClusterConfig(num_shards=2),
        )
        coordinator.close()
        with pytest.raises(RuntimeError):
            coordinator.process_bucket([], end_time=900)
        with pytest.raises(RuntimeError):
            coordinator.query(np.full(tiny_dataset.topic_model.num_topics, 1.0), k=2)


class TestCoordinatorQueries:
    @pytest.mark.parametrize("algorithm", ["mttd", "mtts", "greedy", "celf"])
    def test_query_matches_single_node(self, replayed, tiny_dataset, algorithm):
        single, coordinator = replayed
        query = tiny_dataset.make_query(k=5, topic=2)
        expected = single.query(query, algorithm=algorithm, epsilon=0.1)
        actual = coordinator.query(query, algorithm=algorithm, epsilon=0.1)
        assert set(actual.element_ids) == set(expected.element_ids)
        assert actual.score == pytest.approx(expected.score, abs=1e-9)
        assert actual.extras["shards"] == 3.0
        assert actual.active_elements == single.active_count

    def test_raw_vector_requires_k(self, replayed, tiny_dataset):
        _single, coordinator = replayed
        vector = np.full(tiny_dataset.topic_model.num_topics, 1.0)
        with pytest.raises(ValueError, match="k must be provided"):
            coordinator.query(vector)
        result = coordinator.query(vector, k=3)
        assert len(result) <= 3

    def test_default_config_answers_as_one_node(self, replayed, tiny_dataset):
        """Mixed-topic queries whose support on every shard is larger than
        the ``⌈k/ε⌉`` candidates a shard used to export (which moved 5 of
        these 12 MTTD answers): the default configuration answers as one
        node, ids and ``repr(score)``, for every deterministic algorithm."""
        single, coordinator = replayed
        rng = np.random.default_rng(0)
        for _ in range(12):
            vector = rng.dirichlet(np.ones(5))
            k, epsilon = int(rng.integers(2, 7)), float(rng.choice([0.2, 0.3, 0.5]))
            for worker in coordinator.workers:
                index = worker.processor.ranked_lists
                support = {e for topic in range(5) for e, _ in index.items(topic)}
                assert len(support) > math.ceil(k / epsilon)
            query = KSIRQuery(k=k, vector=vector)
            for algorithm in ("mttd", "mtts", "celf", "greedy", "topk"):
                ours = coordinator.query(query, algorithm=algorithm, epsilon=epsilon)
                theirs = single.query(query, algorithm=algorithm, epsilon=epsilon)
                assert (ours.element_ids, repr(ours.score)) == (
                    theirs.element_ids, repr(theirs.score)
                ), algorithm
                assert ours.active_elements == theirs.active_elements

    def test_concurrent_queries_answer_as_sequential_ones(self, tiny_dataset):
        """4 threads × 20 queries after every bucket, on ``serial``, with the
        interpreter switching threads every 10 µs: the first query of a
        bucket syncs the replica while the others wait, and every answer is
        the one a lone caller gets."""
        queries = [
            (tiny_dataset.make_query(k=3 + n % 3, topic=n % 5), ("mttd", "mtts", "celf")[n % 3])
            for n in range(20)
        ]
        elements = tiny_dataset.stream.elements[:160]
        cluster = ClusterConfig(num_shards=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ClusterCoordinator(tiny_dataset.topic_model, TINY_CONFIG, cluster) as shared, \
                    ClusterCoordinator(tiny_dataset.topic_model, TINY_CONFIG, cluster) as alone:
                for bucket in SocialStream(elements).buckets(TINY_CONFIG.bucket_length):
                    shared.process_bucket(bucket.elements, bucket.end_time)
                    alone.process_bucket(bucket.elements, bucket.end_time)
                    expected = [answers(alone, q, (a,)) for q, a in queries]
                    with ThreadPoolExecutor(max_workers=4) as pool:
                        runs = [
                            pool.submit(lambda: [answers(shared, q, (a,)) for q, a in queries])
                            for _ in range(4)
                        ]
                        assert [run.result(timeout=60) for run in runs] == [expected] * 4
        finally:
            sys.setswitchinterval(interval)


class TestProcessBackend:
    def test_process_backend_matches_single_node(self, tiny_dataset):
        stream = SocialStream(tiny_dataset.stream.elements[:120])
        single = build_processor(tiny_dataset.topic_model, TINY_CONFIG)
        single.process_stream(stream)
        with ClusterCoordinator(
            tiny_dataset.topic_model,
            TINY_CONFIG,
            cluster=ClusterConfig(num_shards=2, transport="pipe"),
        ) as coordinator:
            coordinator.process_stream(stream)
            assert coordinator.active_count == single.active_count
            query = tiny_dataset.make_query(k=4, topic=3)
            expected = single.query(query, algorithm="mttd", epsilon=0.1)
            actual = coordinator.query(query, algorithm="mttd", epsilon=0.1)
            assert set(actual.element_ids) == set(expected.element_ids)
            assert actual.score == pytest.approx(expected.score, abs=1e-9)


class TestServiceEngineClusterBackend:
    def test_standing_results_match_single_node_engine(self, tiny_dataset):
        queries = [tiny_dataset.make_query(k=4, topic=t) for t in range(4)]

        single_processor = build_processor(tiny_dataset.topic_model, TINY_CONFIG)
        with build_service_engine(single_processor) as engine:
            for query in queries:
                engine.register(query, algorithm="mttd", epsilon=0.1)
            engine.serve_stream(tiny_dataset.stream)
            single_results = {
                qid: (set(r.result.element_ids), r.result.score)
                for qid, r in engine.results().items()
            }
            assert engine.processor is single_processor

        coordinator = ClusterCoordinator(
            tiny_dataset.topic_model,
            TINY_CONFIG,
            cluster=ClusterConfig(num_shards=3),
        )
        with coordinator, build_service_engine(coordinator) as engine:
            for query in queries:
                engine.register(query, algorithm="mttd", epsilon=0.1)
            engine.serve_stream(tiny_dataset.stream)
            cluster_results = {
                qid: (set(r.result.element_ids), r.result.score)
                for qid, r in engine.results().items()
            }
            assert engine.processor is None
            report = engine.report()
            assert "3-shard cluster" in report

        assert set(single_results) == set(cluster_results)
        for qid, (ids, score) in single_results.items():
            assert cluster_results[qid][0] == ids
            assert cluster_results[qid][1] == pytest.approx(score, abs=1e-9)


# ---------------------------------------------------------------------------
# The transport contract
# ---------------------------------------------------------------------------

BUILT_INS = ("serial", "pipe")


class TestTransportRegistry:
    def test_builtin_transports_are_registered(self):
        assert transport_names() == tuple(sorted(BUILT_INS))

    def test_unknown_transport_is_an_error(self, paper_topic_model):
        with pytest.raises(ValueError, match="unknown cluster transport"):
            create_transport("carrier-pigeon", None)

    @pytest.mark.parametrize("retired", ["shm", "thread", "SHM "])
    def test_retired_transports_are_named_as_such(self, retired):
        with pytest.raises(ValueError, match="retired in PR 16.*'serial' and 'pipe'"):
            ClusterConfig(transport=retired)

    def test_third_party_registration(self, paper_topic_model):
        calls = []

        def factory(coordinator):
            calls.append(coordinator)
            return create_transport("serial", coordinator)

        register_transport("test-custom", factory)
        try:
            config = ProcessorConfig(window_length=4, bucket_length=1)
            coordinator = ClusterCoordinator(
                paper_topic_model,
                config,
                cluster=ClusterConfig(num_shards=2, transport="Test-Custom"),
            )
            coordinator.close()
            assert calls == [coordinator]
        finally:
            transport_module._REGISTRY.pop("test-custom", None)
        with pytest.raises(ValueError, match="unknown cluster transport"):
            ClusterConfig(transport="test-custom")


def contract_stream():
    """Fourteen buckets of re-posts (which drop and regain topics), forward,
    dangling and archived references, late timestamps and expiry.

    Every version of an id keeps the references of its first one: a re-post
    that *drops* a reference is routed only to its remaining parents' shards,
    so the dropped parent's home shard keeps the stale follower edge and
    over-scores it — a cluster-layer defect older than this test (it
    reproduces on every transport of every earlier commit), recorded in
    ROADMAP.md rather than hidden behind a tolerance here.
    """
    rng = np.random.default_rng(16)
    references = {}
    buckets = []
    for _ in range(14):
        arrivals = []
        for _ in range(int(rng.integers(1, 6))):
            element_id = int(rng.integers(0, 12))
            drawn = [int(r) for r in rng.choice(15, size=int(rng.integers(0, 4)), replace=False)]
            arrivals.append(
                (element_id, references.setdefault(element_id, drawn), int(rng.integers(0, 3)))
            )
        buckets.append((arrivals, int(rng.choice([1, 1, 2, 3]))))
    return materialise(buckets, seed=16)


def answers(engine, query, algorithms=ALGORITHMS):
    """``algorithm → (ids, repr(score))`` from a coordinator or an oracle."""
    out = {}
    for algorithm in algorithms:
        if isinstance(engine, Oracle):
            ids, score = engine.query(query, algorithm)
        else:
            result = engine.query(query, algorithm=algorithm)
            ids, score = result.element_ids, result.score
        out[algorithm] = (tuple(ids), repr(float(score)))
    return out


def same_state(left, right):
    """Deep equality over ``state_dict`` trees (arrays included)."""
    return _equal(normalise_state(left), normalise_state(right))


@pytest.mark.parametrize("transport", BUILT_INS)
class TestTransportContract:
    """ingest → sync / dirty / state → restore → close, on every built-in,
    against the element-by-element oracle of ``tests/oracle.py``."""

    CONFIG = ProcessorConfig(
        window_length=4, bucket_length=1, scoring=PAPER_SCORING, archive_windows=2
    )
    QUERY = KSIRQuery(k=3, vector=np.array([0.5, 0.3, 0.2]))
    #: Sieve reads the ground set in enumeration order — activation order on
    #: a single node, ascending ids on a cluster — so it is held to the
    #: other transport; the rest are held to the oracle.
    ORDER_FREE = tuple(name for name in ALGORITHMS if name != "sieve")

    def assert_equals_oracle(self, engine, oracle):
        assert answers(engine, self.QUERY, self.ORDER_FREE) == answers(
            oracle, self.QUERY, self.ORDER_FREE
        )

    def coordinator(self, model, transport, num_shards=3):
        cluster = ClusterConfig(num_shards=num_shards, transport=transport)
        return ClusterCoordinator(model, self.CONFIG, cluster=cluster)

    def test_whole_protocol(self, transport):
        model, stream = contract_stream()
        other = next(name for name in BUILT_INS if name != transport)
        oracle = Oracle.for_config(model, self.CONFIG)
        coordinator = self.coordinator(model, transport)
        assert isinstance(coordinator.fanout, TransportBackend)
        assert (coordinator.workers == ()) == (transport == "pipe")

        # ingest, sync, dirty topics — after every bucket
        for elements, end_time in stream[:8]:
            coordinator.process_bucket(elements, end_time)
            oracle.process_bucket(elements, end_time)
            self.assert_equals_oracle(coordinator, oracle)
            assert coordinator.take_dirty_topics() == oracle.ranked_lists.take_dirty_topics()
            assert coordinator.active_count == len(oracle.window.active_ids())
        assert sum(s.home_elements for s in coordinator.shard_stats()) == sum(
            len(elements) for elements, _ in stream[:8]
        )

        # states → restore_all, into a fresh coordinator of the other transport
        checkpoint = coordinator.state_dict()
        restored = self.coordinator(model, other)
        restored.restore_state(checkpoint)
        assert same_state(restored.state_dict(), checkpoint)
        assert answers(restored, self.QUERY) == answers(coordinator, self.QUERY)
        for elements, end_time in stream[8:11]:
            oracle.process_bucket(elements, end_time)
            for engine in (coordinator, restored):
                engine.process_bucket(elements, end_time)
                self.assert_equals_oracle(engine, oracle)
            assert answers(restored, self.QUERY) == answers(coordinator, self.QUERY)
        assert restored.take_dirty_topics() == coordinator.take_dirty_topics()

        # restore_shard + ingest_shard: shard 1 falls back to the checkpoint
        # and catches up from the logged buckets; the others are not touched.
        coordinator.restore_shard(1, checkpoint)
        for elements, end_time in stream[8:11]:
            coordinator.replay_bucket_to_shard(1, elements, end_time)
        self.assert_equals_oracle(coordinator, oracle)
        assert answers(restored, self.QUERY) == answers(coordinator, self.QUERY)
        # (The recovered shard's dirty topics are a superset: nothing drained
        # them since the checkpoint.)
        assert same_state(
            coordinator.state_dict()["workers"][1]["processor"]["ranked_lists"]["entries"],
            restored.state_dict()["workers"][1]["processor"]["ranked_lists"]["entries"],
        )
        for elements, end_time in stream[11:]:
            oracle.process_bucket(elements, end_time)
            for engine in (coordinator, restored):
                engine.process_bucket(elements, end_time)
                self.assert_equals_oracle(engine, oracle)
            assert answers(restored, self.QUERY) == answers(coordinator, self.QUERY)

        for engine in (coordinator, restored):
            engine.close()
            engine.close()
            with pytest.raises(RuntimeError, match="closed"):
                engine.query(self.QUERY)

    def test_restarted_shard_replays_the_gap(self, transport):
        """kill → restart → restore → WAL-gap replay of each shard in turn
        answers as the run nothing happened to — including for an element
        first seen inside the gap and gone from every archive before the
        failure, which a partitioner that *remembered* homes would have
        re-assigned on replay (ROADMAP 5d, the stateful-partitioner half)."""
        model, stream = contract_stream()
        checkpoint_after, fail_after = 3, 13
        gap_elements, gap_time = stream[checkpoint_after]
        one_shot = SocialElement(
            40, gap_time, ("w1", "w2"), (), topic_distribution=np.array([0.6, 0.3, 0.1])
        )
        stream[checkpoint_after] = (list(gap_elements) + [one_shot], gap_time)
        fail_time = stream[fail_after - 1][1]
        assert gap_time + self.CONFIG.archive_horizon < fail_time

        uninterrupted = self.coordinator(model, transport)
        recovering = self.coordinator(model, transport)
        for index, (elements, end_time) in enumerate(stream[:fail_after]):
            for engine in (uninterrupted, recovering):
                engine.process_bucket(elements, end_time)
            if index + 1 == checkpoint_after:
                checkpoint = recovering.state_dict()
        for shard_id in range(3):
            if transport == "pipe":
                recovering.fanout.kill_shard(shard_id)
                recovering.fanout.restart_shard(shard_id)
            recovering.restore_shard(shard_id, checkpoint)
            for elements, end_time in stream[checkpoint_after:fail_after]:
                recovering.replay_bucket_to_shard(shard_id, elements, end_time)
            assert answers(recovering, self.QUERY) == answers(uninterrupted, self.QUERY)
            assert recovering.active_count == uninterrupted.active_count
        for name in ("window", "ranked_lists"):
            for ours, theirs in zip(
                recovering.state_dict()["workers"], uninterrupted.state_dict()["workers"]
            ):
                if name == "ranked_lists":  # nothing drained the dirty topics since
                    ours, theirs = (s["processor"][name]["entries"] for s in (ours, theirs))
                else:
                    ours, theirs = (s["processor"][name] for s in (ours, theirs))
                assert same_state(ours, theirs)
        for elements, end_time in stream[fail_after:]:
            for engine in (uninterrupted, recovering):
                engine.process_bucket(elements, end_time)
            assert answers(recovering, self.QUERY) == answers(uninterrupted, self.QUERY)
        for engine in (uninterrupted, recovering):
            engine.close()

    def test_rebalance_2_3_2_keeps_answers(self, transport):
        """``repartition_state`` re-homes with the function the shards were
        filled by: no ownership state crosses from one shape to the next."""
        model, stream = contract_stream()
        oracle = Oracle.for_config(model, self.CONFIG)
        engine = self.coordinator(model, transport, num_shards=2)
        for index, (elements, end_time) in enumerate(stream):
            if index in (5, 10):
                num_shards = 5 - engine.num_shards
                state = repartition_state(engine.state_dict(), num_shards)
                assert state["planner"] == {"num_shards": num_shards}
                engine.close()
                engine = self.coordinator(model, transport, num_shards=num_shards)
                engine.restore_state(state)
                self.assert_equals_oracle(engine, oracle)
            engine.process_bucket(elements, end_time)
            oracle.process_bucket(elements, end_time)
            self.assert_equals_oracle(engine, oracle)
            assert engine.active_count == len(oracle.window.active_ids())
        engine.close()

    @pytest.mark.parametrize("archive_windows", [1, 12])
    def test_expired_parent_is_dangling(self, transport, archive_windows):
        """A parent last active ``w`` windows ago is re-activated by a late
        reference iff ``w ≤ archive_windows`` — on a single node and on the
        cluster, which keeps no record of the parent but its home shard's
        archive: the reference is routed to ``shard_of(parent)`` either way
        and is dangling there exactly when it is on one node.  So is a
        reference to an id never posted.  (Sieve reads its ground set shard
        by shard, so it is held to the other transport, the rest to the
        oracle.)"""
        model, _ = contract_stream()
        config = ProcessorConfig(
            window_length=2, bucket_length=1, scoring=PAPER_SCORING,
            archive_windows=archive_windows,
        )
        rng = np.random.default_rng(12)

        def element(element_id, time, references=()):
            # Distinct words and topic mixes: no two scores tie.
            tokens = tuple(f"w{int(i)}" for i in rng.integers(0, 8, size=3))
            return SocialElement(
                element_id, time, tokens, tuple(references),
                topic_distribution=rng.dirichlet(np.ones(3)),
            )

        parents = [element(eid, 1) for eid in range(6)]
        # One child per parent: 10 windows later, inside a 12-window archive
        # only; a second generation referencing parents 1.5 windows old; and
        # one child of 99, which nobody ever posts.
        late = [element(10 + eid, 21, [eid]) for eid in range(6)]
        soon = [element(20 + eid, 24, [10 + eid]) for eid in range(6)] + [element(30, 24, [99])]
        stream = [(parents, 1)]
        stream += [([], time) for time in range(2, 21)]
        stream += [(late, 21), ([], 22), ([], 23), (soon, 24), ([], 25)]
        # Every reference reaches its target's shard, whatever became of the target.
        replicas = [0, 0, 0]
        for child in late + soon:
            for shard in {shard_of(r, 3) for r in child.references} - {shard_of(child.element_id, 3)}:
                replicas[shard] += 1
        assert shard_of(30, 3) != shard_of(99, 3)

        oracle = Oracle.for_config(model, config)
        other = next(name for name in BUILT_INS if name != transport)
        clusters = [
            ClusterConfig(num_shards=3, transport=name)
            for name in (transport, other)
        ]
        with ClusterCoordinator(model, config, cluster=clusters[0]) as coordinator, \
                ClusterCoordinator(model, config, cluster=clusters[1]) as twin:
            for elements, end_time in stream:
                coordinator.process_bucket(elements, end_time)
                twin.process_bucket(elements, end_time)
                oracle.process_bucket(elements, end_time)
                self.assert_equals_oracle(coordinator, oracle)
                assert answers(coordinator, self.QUERY) == answers(twin, self.QUERY)
                assert coordinator.active_count == len(oracle.window.active_ids())
                if end_time == 21:
                    reactivated = set(range(6)) & set(oracle.window.active_ids())
                    assert len(reactivated) == (6 if archive_windows == 12 else 0)
            assert [s.foreign_elements for s in coordinator.shard_stats()] == replicas
            # Nothing about the stream stayed with the routing: the parents
            # are gone once no archive can hold them, and 99 never was.
            assert coordinator.state_dict()["planner"] == {"num_shards": 3}

    def test_routing_holds_nothing_per_element(self, transport, tiny_dataset):
        """After 10 × ``archive_windows`` windows of the tiny stream, nothing
        on the routing / home-filter path has grown with the elements seen."""
        config = ProcessorConfig(
            window_length=1800, bucket_length=900, archive_windows=1,
            scoring=ScoringConfig(lambda_weight=0.5, eta=1.0),
        )
        elements = tiny_dataset.stream.elements
        assert elements[-1].timestamp - elements[0].timestamp >= 10 * config.archive_horizon
        cluster = ClusterConfig(num_shards=3, transport=transport)
        with ClusterCoordinator(tiny_dataset.topic_model, config, cluster=cluster) as coordinator:
            coordinator.process_stream(tiny_dataset.stream)
            assert coordinator.elements_processed == len(elements)

            def grown(holder):
                return {
                    name: value for name, value in vars(holder).items()
                    if isinstance(value, (dict, list, set, frozenset, deque, tuple))
                    and len(value) > coordinator.num_shards
                }

            assert vars(coordinator.planner) == {"_num_shards": 3}
            assert coordinator.state_dict()["planner"] == {"num_shards": 3}
            assert grown(coordinator) == {} and grown(coordinator.fanout) == {}
            # One home filter on both transports (the shard processes build
            # theirs from the same two integers), closing over no container.
            filters = [worker.processor._home_filter for worker in coordinator.workers]
            for shard_id, is_home in enumerate(filters or map(home_filter, range(3), [3] * 3)):
                assert [cell.cell_contents for cell in is_home.__closure__] == [3, shard_id]
                assert all(is_home(e.element_id) == (shard_of(e.element_id, 3) == shard_id)
                           for e in elements)
