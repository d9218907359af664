"""Tests for the stream processor (Figure 4 architecture)."""

from __future__ import annotations

import dataclasses
import gc

import numpy as np
import pytest

from repro.api import EngineConfig, KSIREngine
from repro.core.algorithms import resolve_algorithm
from repro.core.element import SocialElement
from repro.core.processor import KSIRProcessor, ProcessorConfig
from repro.core.query import KSIRQuery
from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import KSIRObjective, ScoringContext
from repro.core.stream import SocialStream
from repro.utils.timing import RECENT_SAMPLES
from tests.conftest import (
    PAPER_SCORING,
    PAPER_WINDOW_LENGTH,
    build_processor,
    build_reference_stream,
)
from tests.oracle import Oracle
from tests.test_query_path import cold_copy
from tests.test_store_columnar import bucketise


def query_every_algorithm(target):
    """One two-topic ad-hoc query per algorithm: they fill the shared memos."""
    rng = np.random.default_rng(3)
    for algorithm in ("mttd", "mtts", "celf", "sieve", "topk", "greedy"):
        target.query(KSIRQuery(k=3, vector=rng.dirichlet(np.ones(2))), algorithm=algorithm)


def reposting_stream(seed, num_elements):
    """``build_reference_stream`` with a quarter of the arrivals re-posting
    an earlier id (fresh timestamp, tokens and references)."""
    model, base = build_reference_stream(seed, num_elements, 2, 8)
    rng = np.random.default_rng(seed + 1000)
    elements = []
    for position, element in enumerate(base):
        element_id = element.element_id
        if position > 4 and rng.random() < 0.25:
            element_id = int(rng.integers(0, position))
        elements.append(
            SocialElement(
                element_id=element_id,
                timestamp=element.timestamp,
                tokens=element.tokens,
                references=tuple(r for r in element.references if r != element_id),
                topic_distribution=element.topic_distribution,
            )
        )
    return model, elements


class TestProcessorConfig:
    def test_defaults(self):
        config = ProcessorConfig()
        assert config.window_length == 24 * 3600
        assert config.bucket_length == 15 * 60
        assert config.default_algorithm == "mttd"

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            ProcessorConfig(window_length=0)
        with pytest.raises(ValueError):
            ProcessorConfig(bucket_length=0)
        with pytest.raises(ValueError):
            ProcessorConfig(window_length=10, bucket_length=20)


class TestStreamIngestion:
    def test_paper_stream_active_window(self, paper_processor):
        assert paper_processor.current_time == 8
        assert set(paper_processor.window.active_ids()) == {1, 2, 3, 5, 6, 7, 8}
        assert paper_processor.elements_processed == 8
        assert paper_processor.buckets_processed == 8
        assert paper_processor.active_count == 7

    def test_ranked_lists_match_figure5(self, paper_processor):
        index = paper_processor.ranked_lists
        assert index.score(0, 3) == pytest.approx(0.65, abs=0.011)
        assert index.score(1, 1) == pytest.approx(0.56, abs=0.011)
        assert index.score(1, 2) == pytest.approx(0.48, abs=0.011)
        assert 4 not in index

    def test_expired_elements_removed_from_index(self, paper_processor):
        assert 4 not in paper_processor.ranked_lists
        assert 4 not in paper_processor.window

    def test_reactivated_parent_reenters_index(self, paper_topic_model, paper_elements):
        """e2 expires at t=6 but is re-activated when e7 references it at t=7."""
        config = ProcessorConfig(
            window_length=PAPER_WINDOW_LENGTH, bucket_length=1, scoring=PAPER_SCORING
        )
        processor = build_processor(paper_topic_model, config)
        by_id = {element.element_id: element for element in paper_elements}
        # Feed elements one bucket at a time and check e2's status around t=6/7.
        for time in range(1, 9):
            bucket = [by_id[time]] if time in by_id else []
            processor.process_bucket(bucket, end_time=time)
            if time == 6:
                assert 2 not in processor.window
                assert 2 not in processor.ranked_lists
            if time == 7:
                assert 2 in processor.window
                assert 2 in processor.ranked_lists
        assert processor.ranked_lists.score(1, 2) == pytest.approx(0.48, abs=0.011)

    def test_topic_inference_applied_when_missing(self, paper_topic_model, paper_elements):
        config = ProcessorConfig(
            window_length=PAPER_WINDOW_LENGTH, bucket_length=1, scoring=PAPER_SCORING
        )
        processor = build_processor(paper_topic_model, config)
        stripped = [
            type(element)(
                element_id=element.element_id,
                timestamp=element.timestamp,
                tokens=element.tokens,
                references=element.references,
                topic_distribution=None,
            )
            for element in paper_elements
        ]
        processor.process_stream(SocialStream(stripped))
        assert processor.active_count == 7
        # Inferred distributions put the soccer tweet e1 mostly on topic 2.
        snapshot = processor.snapshot()
        assert snapshot.profile(1).topic_probability(1) > 0.5

    def test_process_stream_until(self, paper_topic_model, paper_elements):
        config = ProcessorConfig(
            window_length=PAPER_WINDOW_LENGTH, bucket_length=1, scoring=PAPER_SCORING
        )
        processor = build_processor(paper_topic_model, config)
        processor.process_stream(SocialStream(paper_elements), until=5)
        assert processor.current_time == 5
        assert set(processor.window.window_ids()) == {2, 3, 4, 5}

    def test_empty_stream_is_noop(self, paper_topic_model):
        processor = build_processor(paper_topic_model)
        processor.process_stream(SocialStream())
        assert processor.current_time is None
        assert processor.active_count == 0

    def test_timers_collect_samples(self, paper_processor):
        assert paper_processor.ingest_timer.count == 8
        assert paper_processor.update_timer.count > 0

    def test_update_timer_counts_operations_in_bounded_memory(
        self, tiny_dataset, monkeypatch
    ):
        """One recent sample per maintained bucket, one count per tuple operation."""
        applied = []
        bulk_update = RankedListIndex.bulk_update

        def counting(self, inserts=(), removes=(), scored_refreshes=()):
            applied.append(len(inserts) + len(removes) + len(scored_refreshes))
            bulk_update(self, inserts, removes, scored_refreshes)

        monkeypatch.setattr(RankedListIndex, "bulk_update", counting)
        config = ProcessorConfig(window_length=3 * 3600, bucket_length=100)
        processor = build_processor(tiny_dataset.topic_model, config)
        processor.process_stream(tiny_dataset.stream)
        assert processor.buckets_processed >= 200
        timer = processor.update_timer
        assert timer.count == sum(applied) > len(tiny_dataset.stream.elements)
        assert len(timer.samples_ms) == sum(1 for operations in applied if operations)
        assert len(timer.samples_ms) <= RECENT_SAMPLES
        assert timer.mean_ms == pytest.approx(timer.total_ms / sum(applied))


class TestQueryProcessing:
    def test_query_with_ksir_query_object(self, paper_processor):
        query = KSIRQuery(k=2, vector=np.array([0.5, 0.5]))
        result = paper_processor.query(query, algorithm="mttd")
        assert set(result.element_ids) == {1, 3}
        assert result.score == pytest.approx(0.65, abs=0.01)
        assert result.algorithm == "mttd"
        assert result.active_elements == 7
        assert result.elapsed_ms >= 0.0

    def test_query_with_raw_vector(self, paper_processor):
        result = paper_processor.query([0.5, 0.5], k=2, algorithm="celf")
        assert set(result.element_ids) == {1, 3}

    def test_query_with_raw_vector_requires_k(self, paper_processor):
        with pytest.raises(ValueError):
            paper_processor.query([0.5, 0.5])

    def test_default_algorithm_used(self, paper_processor):
        result = paper_processor.query([0.5, 0.5], k=2)
        assert result.algorithm == "mttd"

    def test_algorithm_instance_accepted(self, paper_processor):
        from repro.core.algorithms import MTTS

        result = paper_processor.query([0.5, 0.5], k=2, algorithm=MTTS(epsilon=0.3))
        assert set(result.element_ids) == {1, 3}

    def test_epsilon_override(self, paper_processor):
        result = paper_processor.query([0.5, 0.5], k=2, algorithm="mtts", epsilon=0.5)
        assert len(result.element_ids) <= 2

    def test_all_registry_algorithms_run(self, paper_processor):
        for name in ("greedy", "celf", "sieve", "topk", "mtts", "mttd"):
            result = paper_processor.query([0.3, 0.7], k=3, algorithm=name)
            assert len(result.element_ids) <= 3

    def test_result_elements_materialisation(self, paper_processor):
        result = paper_processor.query([0.5, 0.5], k=2, algorithm="mttd")
        elements = paper_processor.result_elements(result)
        assert {element.element_id for element in elements} == set(result.element_ids)

    def test_snapshot_is_frozen(self, paper_processor):
        snapshot = paper_processor.snapshot()
        before = snapshot.active_count
        # Further ingestion must not affect the existing snapshot.
        paper_processor.process_bucket([], end_time=20)
        assert snapshot.active_count == before
        assert paper_processor.active_count == 0

    def test_objective_binding(self, paper_processor):
        objective = paper_processor.objective(np.array([0.5, 0.5]))
        assert objective.context.active_count == paper_processor.active_count


class TestSnapshotCaching:
    def test_snapshot_reused_while_window_unchanged(self, paper_topic_model, paper_elements):
        config = ProcessorConfig(
            window_length=PAPER_WINDOW_LENGTH, bucket_length=1, scoring=PAPER_SCORING
        )
        processor = build_processor(paper_topic_model, config)
        processor.process_stream(SocialStream(paper_elements))
        first = processor.snapshot()
        assert processor.snapshot() is first

    def test_snapshot_invalidated_by_new_bucket(self, paper_topic_model, paper_elements):
        config = ProcessorConfig(
            window_length=PAPER_WINDOW_LENGTH, bucket_length=1, scoring=PAPER_SCORING
        )
        processor = build_processor(paper_topic_model, config)
        processor.process_stream(SocialStream(paper_elements))
        first = processor.snapshot()
        processor.process_bucket([], end_time=9)
        second = processor.snapshot()
        assert second is not first
        # e1 (ts=1, last referenced at 5) expired at t=9: the new snapshot
        # reflects the slide while the old one stays frozen.
        assert second.active_count < first.active_count

    def test_repeated_queries_share_one_snapshot(self, paper_topic_model, paper_elements):
        config = ProcessorConfig(
            window_length=PAPER_WINDOW_LENGTH, bucket_length=1, scoring=PAPER_SCORING
        )
        processor = build_processor(paper_topic_model, config)
        processor.process_stream(SocialStream(paper_elements))
        first = processor.query([0.5, 0.5], k=2, algorithm="mttd")
        second = processor.query([0.5, 0.5], k=2, algorithm="celf")
        assert set(first.element_ids) == set(second.element_ids) == {1, 3}


class TestSnapshotInputsStayCurrent:
    """A context is built from the maintained profile map and follower view
    alone; these invariants are what makes that equal to re-deriving both
    from the window after every bucket."""

    @staticmethod
    def _assert_current(processor):
        window = processor.window
        active = window.active_ids()
        assert set(processor._profiles) <= set(active)
        context = processor.snapshot()
        # Ordered: sieve and CELF enumerate ``active_ids`` as it iterates.
        assert context.active_ids == tuple(
            element_id for element_id in active if element_id in processor._profiles
        )
        for element_id in active:
            assert context.followers_of(element_id) == tuple(
                sorted(window.followers_of(element_id))
            )

    # The id dates from the store × ingest-path matrix this test spanned;
    # it is kept so the surviving cell stays traceable across the removal.
    @pytest.mark.parametrize("seed", [11], ids=["columnar-True"])
    def test_local_processor(self, seed):
        model, elements = build_reference_stream(seed, 60, 2, 8)
        config = ProcessorConfig(window_length=6, bucket_length=3, scoring=PAPER_SCORING)
        processor = build_processor(model, config)
        for members, end_time in bucketise(elements, 3):
            processor.process_bucket(members, end_time=end_time)
            self._assert_current(processor)

    @pytest.mark.parametrize("seed", range(6))
    def test_reposts_and_restore_keep_window_order(self, seed):
        config = ProcessorConfig(
            window_length=6, bucket_length=3, scoring=PAPER_SCORING, archive_windows=3,
        )
        model, elements = reposting_stream(seed, 80)
        processor = build_processor(model, config)
        for position, (members, end_time) in enumerate(bucketise(elements, 3)):
            processor.process_bucket(members, end_time=end_time)
            self._assert_current(processor)
            if position % 7 == 6:
                # Save → load → continue (a checkpoint lists A_t ascending).
                state = processor.state_dict()
                processor = build_processor(model, config)
                processor.restore_state(state)
                self._assert_current(processor)

    def test_home_filtered_shard_processors(self):
        from repro.cluster import ClusterConfig, ClusterCoordinator

        model, elements = build_reference_stream(12, 60, 2, 8)
        config = ProcessorConfig(window_length=6, bucket_length=3, scoring=PAPER_SCORING)
        with ClusterCoordinator(
            model, config, cluster=ClusterConfig(num_shards=3)
        ) as coordinator:
            for members, end_time in bucketise(elements, 3):
                coordinator.process_bucket(members, end_time=end_time)
                for worker in coordinator.workers:
                    self._assert_current(worker.processor)

    def test_context_taken_before_a_bucket_stays_frozen(self):
        model, elements = build_reference_stream(13, 40, 2, 8)
        config = ProcessorConfig(window_length=8, bucket_length=4, scoring=PAPER_SCORING)
        processor = build_processor(model, config)
        held = []
        for members, end_time in bucketise(elements, 4):
            processor.process_bucket(members, end_time=end_time)
            context = processor.snapshot()
            assert processor.snapshot() is context
            for earlier, ids, followers, profiles in held:
                assert earlier.active_ids == ids
                assert {i: earlier.followers_of(i) for i in ids} == followers
                assert all(earlier.profile(i) is profiles[i] for i in ids)
            ids = context.active_ids
            held.append(
                (
                    context,
                    ids,
                    {i: context.followers_of(i) for i in ids},
                    {i: context.profile(i) for i in ids},
                )
            )
        # The stream really moved underneath the held contexts.
        assert all(followers != held[-1][2] for _, _, followers, _ in held[:-1])
        assert all(ids != held[-1][1] for _, ids, _, _ in held[:-1])

    @staticmethod
    def _record(context):
        """What a context answers: its maps, every compiled term and three
        index-free selections."""
        ids = context.active_ids
        record = [
            ids,
            {e: context.profile(e) for e in ids},
            {e: context.followers_of(e) for e in ids},
            {e: context.terms(e) for e in ids},
        ]
        for name in ("celf", "greedy", "sieve"):
            outcome = resolve_algorithm(name, default_name=name).select(
                KSIRObjective(context, np.array([0.6, 0.4])), 3
            )
            record.append((outcome.element_ids, outcome.value, outcome.evaluated_elements))
        return record

    def test_a_held_context_stays_frozen_under_every_mutation(self):
        """Contexts held across a bucket that expires parents and their
        followers, a re-post and a restore of an older checkpoint answer,
        after each of those and every later one, as a cold context over
        copies of their maps taken when they were built."""
        config = ProcessorConfig(
            window_length=6, bucket_length=3, scoring=PAPER_SCORING, archive_windows=3,
        )
        model, elements = reposting_stream(4, 60)
        processor = build_processor(model, config)
        buckets = bucketise(elements, 3)
        for members, end_time in buckets[:4]:
            processor.process_bucket(members, end_time=end_time)
        older = processor.state_dict()
        for members, end_time in buckets[4:12]:
            processor.process_bucket(members, end_time=end_time)
        window = processor.window

        def expire():
            """Half the window leaves, parents that had followers and
            followers among it."""
            followed = [e for e in window.active_ids() if window.follower_count(e)]
            followers = {f for e in followed for f in window.followers_of(e)}
            processor.process_bucket([], end_time=processor.current_time + 3)
            active = set(window.active_ids())
            assert set(followed) - active and followers - active

        def repost():
            followed = [e for e in window.active_ids() if window.follower_count(e)]
            element = dataclasses.replace(
                window.get(followed[0]),
                timestamp=processor.current_time + 1,
                references=(followed[-1],),
            )
            processor.process_bucket([element], end_time=element.timestamp)

        def restore():
            processor.restore_state(older)

        held = []
        for event in (expire, repost, restore):
            query_every_algorithm(processor)
            context = processor.snapshot()
            assert context._term_memo is processor._term_memo and context._term_memo
            held.append((context, self._record(cold_copy(context))))
            del context
            event()
            query_every_algorithm(processor)
            for context, expected in held:
                assert self._record(context) == expected
        # Every event changed what the next context sees.
        records = [expected for _, expected in held] + [self._record(processor.snapshot())]
        assert all(a[0] != b[0] or a[2] != b[2] for a, b in zip(records, records[1:]))


class TestTheSteadyStateCopiesNothing:
    """A finished query holds no snapshot, so the window changes under no
    context and nothing is copied.  A reference cycle that kept a finished
    query's context alive would bring back one copy per bucket without
    failing any other test; the collector is off here, so it shows."""

    @pytest.fixture()
    def detaches(self, monkeypatch):
        calls = []
        detach = ScoringContext.detach

        def counted(context):
            calls.append(type(context).__name__)
            detach(context)

        monkeypatch.setattr(ScoringContext, "detach", counted)
        gc.disable()
        try:
            yield calls
        finally:
            gc.enable()

    @staticmethod
    def stream():
        model, elements = reposting_stream(8, 72)
        config = ProcessorConfig(
            window_length=9, bucket_length=3, scoring=PAPER_SCORING, archive_windows=2,
        )
        return model, bucketise(elements, 3), config

    def test_ad_hoc_queries_of_every_algorithm_on_local(self, detaches):
        model, buckets, config = self.stream()
        with KSIREngine(model, EngineConfig(processor=config)) as engine:
            for members, end_time in buckets:
                engine.ingest_bucket(members, end_time)
                query_every_algorithm(engine)
            assert engine.processor.snapshot_builds == len(buckets)
        assert detaches == []

    def test_standing_queries_on_service(self, detaches):
        model, buckets, config = self.stream()
        with KSIREngine(model, EngineConfig(backend="service", processor=config)) as engine:
            rng = np.random.default_rng(9)
            for algorithm in ("mttd", "mtts", "celf", "greedy"):
                engine.register(
                    KSIRQuery(k=3, vector=rng.dirichlet(np.ones(2))), algorithm=algorithm
                )
            for members, end_time in buckets:
                engine.ingest_bucket(members, end_time)
            assert engine.processor.snapshot_builds == len(buckets)
            assert all(r.result.element_ids for r in engine.results().values())
        assert detaches == []


class TestBatchedEqualsSequentialAnswers:
    """The batched ingest path answers every algorithm exactly as the
    element-by-element oracle does — including the batch algorithms that
    enumerate ``context.active_ids`` in order, on streams whose references
    keep re-activating archived parents."""

    ALGORITHMS = ("sieve", "celf", "greedy", "mttd", "mtts", "topk")

    # Ids kept from when the test also ran on the objects store.
    @pytest.mark.parametrize(
        "reposts", [False, True], ids=["False-columnar", "True-columnar"]
    )
    def test_same_elements_and_score(self, reposts):
        reactivated = 0
        config = ProcessorConfig(
            window_length=6, bucket_length=3, scoring=PAPER_SCORING, archive_windows=3,
        )
        for seed in range(8):
            if reposts:
                model, elements = reposting_stream(seed, 60)
            else:
                model, elements = build_reference_stream(seed, 60, 2, 8)
            batched = build_processor(model, config)
            sequential = Oracle.for_config(model, config)
            rng = np.random.default_rng(seed)
            for members, end_time in bucketise(elements, 3):
                posted = {element.element_id for element in members}
                before = set(batched.window.active_ids())
                batched.process_bucket(members, end_time=end_time)
                sequential.process_bucket(members, end_time=end_time)
                reactivated += len(
                    set(batched.window.active_ids()) - before - posted
                )
                assert (
                    batched.snapshot().active_ids == sequential.snapshot().active_ids
                )
                query = KSIRQuery(k=3, vector=rng.dirichlet(np.ones(2)))
                for algorithm in self.ALGORITHMS:
                    ours = batched.query(query, algorithm=algorithm)
                    ids, score = sequential.query(query, algorithm)
                    assert ours.element_ids == ids, (seed, algorithm)
                    assert ours.score == pytest.approx(score, abs=1e-9)
        # The streams really exercised the archive re-activation branch.
        assert reactivated > 20


class TestRepostDropsATopic:
    def test_stale_tuples_leave_with_the_old_version(self, paper_topic_model):
        """Versions of element 1: topics {0,1}, then — in one later bucket —
        {0} and {1}.  Only the last version's tuples stay; its follower keeps
        scoring it; topic 0 is marked dirty for the tuple that left."""
        config = ProcessorConfig(window_length=10, bucket_length=1, scoring=PAPER_SCORING)
        processor = build_processor(paper_topic_model, config)
        oracle = Oracle.for_config(paper_topic_model, config)

        def post(element_id, time, distribution, references=()):
            return SocialElement(
                element_id=element_id, timestamp=time, tokens=("final", "champion"),
                references=references, topic_distribution=distribution,
            )

        buckets = [
            ([post(1, 1, [0.5, 0.5])], 1),
            ([post(2, 2, [0.5, 0.5], references=(1,))], 2),
            ([post(1, 3, [1.0, 0.0]), post(1, 3, [0.0, 1.0])], 3),
        ]
        for members, end_time in buckets:
            processor.ranked_lists.take_dirty_topics()
            processor.process_bucket(members, end_time)
            oracle.process_bucket(members, end_time)
        index = processor.ranked_lists
        assert index.scores_of(1).keys() == {1}
        assert index.take_dirty_topics() == (0, 1)
        assert index.score(1, 1) == pytest.approx(oracle.ranked_lists.score(1, 1), abs=1e-12)
        assert index.score(1, 1) > PAPER_SCORING.lambda_weight * processor.profiles[1].semantic_score(1)
        assert [e for e, _ in index.items(0)] == [e for e, _ in oracle.ranked_lists.items(0)] == [2]


class TestParentReactivation:
    """The re-activation branch of process_bucket (Algorithm 1).

    When an expired parent is referenced by a new element, the processor must
    rebuild its profile from the window archive and re-insert its
    ranked-list tuples before refreshing its influence score.
    """

    def _drive(self, paper_topic_model, elements, until):
        config = ProcessorConfig(
            window_length=PAPER_WINDOW_LENGTH, bucket_length=1, scoring=PAPER_SCORING
        )
        processor = build_processor(paper_topic_model, config)
        by_id = {element.element_id: element for element in elements}
        for time in range(1, until + 1):
            bucket = [by_id[time]] if time in by_id else []
            processor.process_bucket(bucket, end_time=time)
        return processor

    def test_profile_rebuilt_and_tuples_reinserted(self, paper_topic_model, paper_elements):
        # e2 (t=2) expires at t=6; e7 (t=7) references it, re-activating it.
        processor = self._drive(paper_topic_model, paper_elements, until=6)
        assert 2 not in processor.ranked_lists
        assert 2 not in processor.snapshot()

        by_id = {element.element_id: element for element in paper_elements}
        processor.process_bucket([by_id[7]], end_time=7)

        # The parent is active again with a freshly built profile...
        snapshot = processor.snapshot()
        assert 2 in snapshot
        profile = snapshot.profile(2)
        assert profile.topic_probability(1) == pytest.approx(0.74)
        # ...its ranked-list tuples are back with the refreshed influence
        # score delta_2(e2) = 0.5*R_2(e2) + 0.25*p_2(e2)*p_2(e7) ~= 0.39
        # (only e7 follows it at t=7; e8's reference arrives later and lifts
        # it to Figure 5's 0.48), and its last activity is the referencing
        # element's time, so it survives until t = 7 + T.
        assert 2 in processor.ranked_lists
        assert processor.ranked_lists.score(1, 2) == pytest.approx(0.393, abs=0.011)
        assert processor.ranked_lists.last_activity(2) == 7
        assert processor.window.followers_of(2) == (7,)

    def test_reactivated_parent_is_queryable(self, paper_topic_model, paper_elements):
        processor = self._drive(paper_topic_model, paper_elements, until=7)
        result = processor.query([0.0, 1.0], k=2, algorithm="mttd")
        # At t=7 the topic-2 ranking is e1 (0.56) then the re-activated e2
        # (0.39): an expired-then-referenced element is immediately
        # answerable again.
        assert result.element_ids == (1, 2)

    def test_reactivation_with_inferred_distributions(self, paper_topic_model, paper_elements):
        # The same replay with topic distributions stripped: the parent's
        # archived copy carries the distribution inferred on first arrival,
        # and re-activation rebuilds the profile from it.
        stripped = [
            type(element)(
                element_id=element.element_id,
                timestamp=element.timestamp,
                tokens=element.tokens,
                references=element.references,
                topic_distribution=None,
            )
            for element in paper_elements
        ]
        processor = self._drive(paper_topic_model, stripped, until=7)
        assert 2 in processor.ranked_lists
        snapshot = processor.snapshot()
        # The soccer tweet e2 infers mostly topic 2 and lands on its list.
        assert snapshot.profile(2).topic_probability(1) > 0.5
        assert processor.ranked_lists.score(1, 2) > 0.0

    def test_dirty_topics_cover_reactivation(self, paper_topic_model, paper_elements):
        processor = self._drive(paper_topic_model, paper_elements, until=6)
        processor.ranked_lists.take_dirty_topics()
        by_id = {element.element_id: element for element in paper_elements}
        processor.process_bucket([by_id[7]], end_time=7)
        dirty = set(processor.ranked_lists.take_dirty_topics())
        # The topics of both the re-activated parent (e2) and the new
        # follower (e7) are reported, so the serving layer re-evaluates any
        # standing query they could affect.
        snapshot = processor.snapshot()
        assert set(snapshot.profile(2).topics) <= dirty
        assert set(snapshot.profile(7).topics) <= dirty
