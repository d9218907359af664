"""The columnar state store: unit tests plus columnar == oracle equivalence.

Three layers of proof:

* :class:`repro.store.ElementStore` unit behaviour — row interning with
  free-row recycling, array growth, follower adjacency and CSR export,
  topic change epochs;
* :class:`repro.store.ColumnarWindow` tracks the reference
  :class:`tests.oracle.OracleWindow` operation-for-operation on random
  streams (hypothesis);
* end-to-end: engines produce the ranked lists, dirty-topic accounting and
  query results (within 1e-9) of the element-by-element
  :class:`tests.oracle.Oracle` on all three execution backends, and the
  checkpoint format round-trips (retired config keys tolerated at their
  surviving values, v1 manifests and the objects store rejected by name).
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CheckpointError, EngineConfig, KSIREngine
from repro.cluster import ClusterConfig
from repro.core.element import SocialElement
from repro.core.processor import ProcessorConfig
from repro.core.query import KSIRQuery
from repro.core.scoring import ScoringConfig
from repro.store import ColumnarWindow, ElementStore

from tests.conftest import build_processor, build_reference_stream
from tests.oracle import Oracle, OracleWindow

SCORING = ScoringConfig(lambda_weight=0.5, eta=2.0)


def make_element(element_id, timestamp, references=()):
    return SocialElement(
        element_id=element_id,
        timestamp=timestamp,
        tokens=("word",),
        references=tuple(references),
        topic_distribution=np.array([1.0]),
    )


# ---------------------------------------------------------------------------
# ElementStore
# ---------------------------------------------------------------------------


class TestElementStore:
    def test_acquire_and_release_recycle_rows(self):
        store = ElementStore(num_topics=3, initial_capacity=2)
        row_a = store.acquire(10, 5)
        row_b = store.acquire(11, 6)
        assert len(store) == 2
        assert store.row_of(10) == row_a
        assert store.element_id_at(row_b) == 11
        released = store.release(10)
        assert released == row_a
        assert store.free_row_count == 1
        # The freed row is recycled for the next acquire.
        row_c = store.acquire(12, 7)
        assert row_c == row_a
        assert store.element_id_at(row_c) == 12
        assert store.last_activity_of(row_c) == 7
        assert store.validate()

    def test_growth_preserves_contents(self):
        store = ElementStore(num_topics=2, initial_capacity=2)
        for element_id in range(40):
            store.acquire(element_id, element_id)
        assert store.capacity >= 40
        assert len(store) == 40
        for element_id in range(40):
            assert store.timestamp_of(store.row_of(element_id)) == element_id
        assert store.validate()

    def test_follower_adjacency_and_counts(self):
        store = ElementStore(num_topics=2)
        parent = store.acquire(1, 1)
        follower = store.acquire(2, 2)
        store.set_in_window(follower, True)
        assert store.add_follower(parent, follower)
        assert not store.add_follower(parent, follower)  # already present
        assert store.follower_count(parent) == 1
        assert store.follower_ids(parent) == (2,)
        assert store.discard_follower(parent, follower)
        assert not store.discard_follower(parent, follower)
        assert store.follower_count(parent) == 0
        assert store.validate()

    def test_followers_csr_is_sorted_and_segmented(self):
        store = ElementStore(num_topics=2)
        rows = {eid: store.acquire(eid, eid) for eid in (1, 2, 3, 4)}
        for follower in (4, 3, 2):
            store.set_in_window(rows[follower], True)
            store.add_follower(rows[1], rows[follower])
        store.add_follower(rows[2], rows[4])
        indptr, follower_ids = store.followers_csr(store.rows_of([1, 2, 3]))
        assert indptr.tolist() == [0, 3, 4, 4]
        assert follower_ids.tolist() == [2, 3, 4, 4]

    def test_profile_matrix_rows(self):
        store = ElementStore(num_topics=4)
        row = store.acquire(7, 1)
        assert not store.has_profile(row)
        store.set_profile(row, {1: 0.25, 3: 0.75})
        assert store.has_profile(row)
        assert store.profile_matrix[row].tolist() == [0.0, 0.25, 0.0, 0.75]
        store.release(7)
        assert store.profile_matrix[row].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_vectorised_scans(self):
        store = ElementStore(num_topics=1)
        for element_id, timestamp in ((1, 1), (2, 5), (3, 9)):
            row = store.acquire(element_id, timestamp)
            store.set_in_window(row, True)
        assert store.ids_at(store.expired_window_rows(6)).tolist() == [1, 2]
        assert store.ids_at(store.inactive_rows(6)).tolist() == [1, 2]
        assert store.window_count == 3

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ElementStore(num_topics=0)
        with pytest.raises(ValueError):
            ElementStore(num_topics=1, initial_capacity=0)


# ---------------------------------------------------------------------------
# ColumnarWindow ≡ OracleWindow
# ---------------------------------------------------------------------------


def assert_windows_equal(columnar: ColumnarWindow, oracle: OracleWindow):
    assert sorted(columnar.active_ids()) == sorted(oracle.active_ids())
    assert sorted(columnar.window_ids()) == sorted(oracle.window_ids())
    assert columnar.active_count == len(oracle.active_ids())
    assert columnar.window_count == len(oracle.window_ids())
    assert columnar.current_time == oracle.current_time
    for element_id in oracle.active_ids():
        assert columnar.last_activity(element_id) == oracle.last_activity(element_id)
        assert sorted(columnar.followers_of(element_id)) == sorted(
            oracle.followers_of(element_id)
        )
        assert columnar.follower_count(element_id) == len(
            oracle.followers_of(element_id)
        )
        assert columnar.in_window(element_id) == oracle.in_window(element_id)
    # Every element with ≥ 1 in-window follower → ascending follower ids;
    # absent means none.
    assert columnar.followers_snapshot() == oracle.followers_snapshot()
    assert columnar.validate()


class TestColumnarWindowEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_elements=st.integers(min_value=4, max_value=30),
        window_length=st.integers(min_value=2, max_value=8),
        bucket=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_tracks_active_window(self, seed, num_elements, window_length, bucket):
        _, elements = build_reference_stream(seed, num_elements, 2, 8)
        columnar = ColumnarWindow(window_length, archive_windows=2, num_topics=2)
        oracle = OracleWindow(window_length, archive_windows=2)
        for start in range(0, num_elements, bucket):
            members = elements[start : start + bucket]
            for element in members:
                touched_a = columnar.insert(element)
                touched_b = oracle.insert(element)
                assert touched_a == touched_b
            end_time = members[-1].timestamp
            removed_a = columnar.advance_to(end_time)
            removed_b = oracle.advance_to(end_time)
            assert sorted(removed_a) == sorted(removed_b)
            assert sorted(columnar.take_touched_by_expiry()) == sorted(
                oracle.take_touched_by_expiry()
            )
            assert_windows_equal(columnar, oracle)

    def test_intra_bucket_forward_reference_stays_dangling(self):
        """A reference to an element arriving later in the same bucket is
        dangling at its insertion point on every path (regression: the bulk
        row pre-interning must not resolve it)."""
        first = make_element(1, 5, references=(2,))
        second = make_element(2, 6)
        columnar = ColumnarWindow(10, num_topics=1)
        oracle = OracleWindow(10)
        touched_lists, _ = columnar.insert_many([first, second])
        touched_oracle = [oracle.insert(first), oracle.insert(second)]
        assert touched_lists == touched_oracle == [(), ()]
        columnar.advance_to(6)
        oracle.advance_to(6)
        assert_windows_equal(columnar, oracle)
        assert columnar.followers_of(2) == ()

    def test_forward_reference_to_archived_element_reactivates(self):
        """A forward reference to an id that expired earlier (still archived)
        re-activates the archived precedent, like the element-wise path."""
        for window_length in (3,):
            columnar = ColumnarWindow(window_length, archive_windows=8, num_topics=1)
            oracle = OracleWindow(window_length, archive_windows=8)
            original = make_element(2, 1)
            for window in (columnar, oracle):
                window.insert(original)
                window.advance_to(1)
                removed = window.advance_to(10)  # id 2 expires, stays archived
                assert 2 in removed
            referencer = make_element(5, 11, references=(2,))
            repost = make_element(2, 12)
            touched_lists, _ = columnar.insert_many([referencer, repost])
            touched_oracle = [oracle.insert(referencer), oracle.insert(repost)]
            assert touched_lists == touched_oracle == [(2,), ()]
            columnar.advance_to(12)
            oracle.advance_to(12)
            assert_windows_equal(columnar, oracle)
            assert sorted(columnar.followers_of(2)) == [5]

    def test_forward_reference_processor_equivalence(self):
        """End-to-end: forward references in one bucket leave the ranked
        lists the element-by-element oracle derives."""
        model, elements = build_reference_stream(41, 12, 2, 8)
        # Rewrite element 3 to reference element 7 (arrives later, same
        # bucket of 6) and element 9 to reference element 1 (backward).
        elements = list(elements)
        elements[3] = replace(elements[3], references=(7,))
        elements[9] = replace(elements[9], references=(1,))
        buckets = bucketise(elements, 6)

        config = ProcessorConfig(window_length=8, bucket_length=6, scoring=SCORING)
        engine = KSIREngine(model, EngineConfig(processor=config))
        oracle = Oracle.for_config(model, config)
        for members, end_time in buckets:
            engine.ingest_bucket(members, end_time)
            oracle.process_bucket(members, end_time)
        assert_ranked_lists_equal(
            engine.processor.ranked_lists, oracle.ranked_lists
        )

    def test_repost_with_dropped_reference_retires_the_edge(self):
        """Re-posting a window member with changed references must retire
        the old edges (regression: a leaked edge survived the
        member's expiry and, on the columnar store, was misattributed to
        whatever element later recycled the freed row)."""
        def scenario(window):
            window.insert(make_element(1, 1))
            window.insert(make_element(3, 1))
            window.insert(make_element(2, 2, references=(1, 3)))
            window.advance_to(2)
            # Re-post id 2, dropping the reference to 1 (keeping 3).
            window.insert(make_element(2, 3, references=(3,)))
            removed_touched = sorted(window.take_touched_by_expiry())
            window.advance_to(3)
            return removed_touched

        columnar = ColumnarWindow(10, num_topics=1)
        oracle = OracleWindow(10)
        # Parent 1 lost its edge; parent 3's edge was retired-and-re-added
        # (marked for a no-op re-score).  Window and oracle agree.
        assert scenario(columnar) == scenario(oracle) == [1, 3]
        assert columnar.followers_of(1) == oracle.followers_of(1) == ()
        assert sorted(columnar.followers_of(3)) == sorted(oracle.followers_of(3)) == [2]
        assert_windows_equal(columnar, oracle)
        # Expire 2 and recycle its row with a fresh element: the dead edge
        # must not resurface pointing at the recycled row.
        for window in (columnar, oracle):
            window.advance_to(20)
            window.insert(make_element(99, 21))
            window.advance_to(21)
        assert columnar.followers_of(1) == oracle.followers_of(1) == ()
        assert columnar.followers_of(3) == oracle.followers_of(3) == ()
        assert_windows_equal(columnar, oracle)

    def test_repost_inside_one_batched_bucket_matches_elementwise(self):
        """Intra-bucket re-posts with changed references behave identically
        on insert_many and on the element-wise oracle."""
        bucket = [
            make_element(1, 1),
            make_element(2, 2, references=(1,)),
            make_element(2, 3, references=()),
        ]
        columnar = ColumnarWindow(10, num_topics=1)
        oracle = OracleWindow(10)
        touched_lists, _ = columnar.insert_many(list(bucket))
        touched_oracle = [oracle.insert(element) for element in bucket]
        assert touched_lists == touched_oracle == [(), (1,), ()]
        assert sorted(columnar.take_touched_by_expiry()) == sorted(
            oracle.take_touched_by_expiry()
        ) == [1]
        columnar.advance_to(3)
        oracle.advance_to(3)
        assert columnar.followers_of(1) == oracle.followers_of(1) == ()
        assert_windows_equal(columnar, oracle)

    def test_repost_keeps_influence_in_ranked_lists(self):
        """A re-posted element that still has in-window followers must keep
        the influence component in its ranked-list tuples (regression: the
        insert reset it to the semantic-only score), exactly as the oracle
        scores it — including when the referencing follower and the re-post
        land in the same bucket."""
        model, _ = build_reference_stream(5, 4, 2, 8)

        def element(element_id, timestamp, references=()):
            return SocialElement(
                element_id, timestamp, ("w0", "w1"),
                references=tuple(references),
                topic_distribution=np.array([0.6, 0.4]),
            )

        scenarios = {
            "separate-buckets": [
                ([element(1, 1), element(2, 2, (1,))], 2),
                ([element(1, 3)], 3),  # re-post; 2 still follows 1
            ],
            "same-bucket": [
                ([element(1, 1)], 1),
                ([element(2, 2, (1,)), element(1, 3)], 3),
            ],
        }
        config = ProcessorConfig(window_length=20, bucket_length=2, scoring=SCORING)
        for name, buckets in scenarios.items():
            processor = build_processor(model, config)
            oracle = Oracle.for_config(model, config)
            for members, end_time in buckets:
                processor.process_bucket(members, end_time)
                oracle.process_bucket(members, end_time)
            assert processor.window.followers_of(1) == (2,), name
            scores = processor.ranked_lists.scores_of(1)
            reference = oracle.ranked_lists.scores_of(1)
            # The stored score must exceed the semantic-only component ...
            profile = oracle.profiles[1]
            for topic, score in reference.items():
                lambda_only = SCORING.lambda_weight * profile.semantic_score(topic)
                assert score > lambda_only + 1e-12, (name, topic)
            # ... and production agrees with the oracle within 1e-9.
            assert scores.keys() == reference.keys(), name
            for topic, score in reference.items():
                assert abs(scores[topic] - score) <= 1e-9, (name, topic)

    def test_state_dict_round_trips(self):
        _, elements = build_reference_stream(3, 20, 2, 8)
        columnar = ColumnarWindow(4, archive_windows=2, num_topics=2)
        oracle = OracleWindow(4, archive_windows=2)
        for element in elements:
            columnar.insert(element)
            oracle.insert(element)
            columnar.advance_to(element.timestamp)
            oracle.advance_to(element.timestamp)
        restored = ColumnarWindow(4, archive_windows=2, num_topics=2)
        restored.restore_state(columnar.state_dict())
        assert_windows_equal(restored, oracle)

    def test_rejects_backward_advance_and_bad_config(self):
        window = ColumnarWindow(5, num_topics=1)
        window.insert(make_element(1, 10))
        window.advance_to(10)
        with pytest.raises(ValueError):
            window.advance_to(9)
        with pytest.raises(ValueError):
            ColumnarWindow(0, num_topics=1)
        with pytest.raises(ValueError):
            ColumnarWindow(5, archive_windows=0, num_topics=1)


# ---------------------------------------------------------------------------
# Processor / backend equivalence
# ---------------------------------------------------------------------------


def assert_ranked_lists_equal(index, reference):
    """Same elements in the same order on every list, scores within 1e-9."""
    assert index.element_count == reference.element_count
    for topic in range(reference.num_topics):
        got, expected = index.items(topic), reference.items(topic)
        assert [e for e, _ in got] == [e for e, _ in expected], topic
        for (eid, score), (_, wanted) in zip(got, expected):
            assert abs(score - wanted) <= 1e-9, (topic, eid)


def bucketise(elements, bucket_length):
    buckets = []
    for start in range(0, len(elements), bucket_length):
        members = elements[start : start + bucket_length]
        buckets.append((members, members[-1].timestamp))
    return buckets


def engine_config(backend: str, window_length: int, shards: int = 2):
    processor = ProcessorConfig(
        window_length=window_length,
        bucket_length=2,
        scoring=SCORING,
    )
    cluster = (
        ClusterConfig(num_shards=shards)
        if backend == "sharded"
        else None
    )
    return EngineConfig(
        backend=backend,
        processor=processor,
        cluster=cluster,
    )


backend_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=8, max_value=20),      # elements
    st.integers(min_value=2, max_value=4),       # topics
    st.sampled_from(["local", "sharded", "service"]),
)


class TestColumnarBackendEquivalence:
    @given(params=backend_params)
    @settings(max_examples=25, deadline=None)
    def test_query_results_match_objects_store(self, params):
        """Every backend answers as the single-node oracle does (the name
        predates the oracle: the reference used to be the objects store)."""
        seed, num_elements, num_topics, backend = params
        model, elements = build_reference_stream(seed, num_elements, num_topics, 10)
        window_length = max(3, num_elements // 2)  # forces expiry
        buckets = bucketise(elements, 2)
        query = KSIRQuery(
            k=3, vector=np.arange(1, num_topics + 1, dtype=float) / num_topics
        )

        config = engine_config(backend, window_length)
        oracle = Oracle.for_config(model, config.processor)
        with KSIREngine(model, config) as engine:
            if backend == "service":
                engine.register(query, query_id="standing", algorithm="mttd",
                                epsilon=0.2)
            for members, end_time in buckets:
                engine.ingest_bucket(members, end_time)
                oracle.process_bucket(members, end_time)
            assert engine.active_count == len(oracle.window.active_ids())
            for algorithm in ("mttd", "greedy"):
                result = engine.query(query, algorithm=algorithm, epsilon=0.2)
                ids, score = oracle.query(query, algorithm, 0.2)
                assert result.element_ids == ids, algorithm
                assert abs(result.score - score) <= 1e-9
            if backend == "service":
                standing = engine.result("standing").result
                ids, score = oracle.query(query, "mttd", 0.2)
                assert standing.element_ids == ids
                assert abs(standing.score - score) <= 1e-9

    def test_ranked_lists_and_dirty_topics_match(self, tiny_dataset):
        config = ProcessorConfig(
            window_length=1800,
            bucket_length=600,
            scoring=ScoringConfig(lambda_weight=0.5, eta=1.0),
        )
        columnar = build_processor(tiny_dataset.topic_model, config)
        columnar.process_stream(tiny_dataset.stream)
        oracle = Oracle.for_config(tiny_dataset.topic_model, config)
        for bucket in tiny_dataset.stream.buckets(config.bucket_length):
            oracle.process_bucket(bucket.elements, bucket.end_time)

        assert_ranked_lists_equal(columnar.ranked_lists, oracle.ranked_lists)
        assert (
            columnar.ranked_lists.take_dirty_topics()
            == oracle.ranked_lists.take_dirty_topics()
        )
        assert columnar.window.validate()

    def test_store_epochs_drive_the_scheduler(self, tmp_path):
        """A bucket's update reads the one dirty set: the ranked lists'
        drained one.  Per bucket it equals what draining the oracle's
        yields, and a set saved undrained reaches the first update after a
        load."""
        model, elements = build_reference_stream(11, 24, 3, 10)
        buckets = bucketise(elements, 2)
        half = len(buckets) // 2
        query = KSIRQuery(k=3, vector=np.array([1.0, 0.0, 0.0]))
        config = engine_config("service", window_length=12)
        oracle = Oracle.for_config(model, config.processor)
        with KSIREngine(model, config) as engine:
            engine.register(query, query_id="standing")
            service = engine.service_engine
            for members, end_time in buckets[:half]:
                update = service.ingest_bucket(members, end_time)
                oracle.process_bucket(members, end_time)
                assert update.dirty_topics == oracle.ranked_lists.take_dirty_topics()
            # One bucket reaches the processor behind the service's back, so
            # the checkpoint carries a dirty set nobody drained.
            members, end_time = buckets[half]
            service.processor.process_bucket(members, end_time)
            oracle.process_bucket(members, end_time)
            carried = set(oracle.ranked_lists.take_dirty_topics())
            assert carried
            engine.save(tmp_path / "checkpoint")
        with KSIREngine.load(tmp_path / "checkpoint") as engine:
            service = engine.service_engine
            for members, end_time in buckets[half + 1:]:
                update = service.ingest_bucket(members, end_time)
                oracle.process_bucket(members, end_time)
                carried.update(oracle.ranked_lists.take_dirty_topics())
                assert update.dirty_topics == tuple(sorted(carried))
                carried.clear()


# ---------------------------------------------------------------------------
# Configurable archive horizon + restore pruning
# ---------------------------------------------------------------------------


class TestArchiveHorizon:
    # Ids kept from when both tests also ran on the objects store.
    @pytest.mark.parametrize("archive_windows", [2], ids=["columnar"])
    def test_archive_windows_threads_through_config(self, archive_windows):
        model, elements = build_reference_stream(7, 30, 2, 8)
        config = ProcessorConfig(
            window_length=4, bucket_length=2, scoring=SCORING,
            archive_windows=archive_windows,
        )
        engine = KSIREngine(model, EngineConfig(processor=config))
        for members, end_time in bucketise(elements, 2):
            engine.ingest_bucket(members, end_time)
        window = engine.processor.window
        horizon = window._archive_horizon  # noqa: SLF001 - white-box check
        assert horizon == archive_windows * 4
        cutoff = engine.current_time - horizon
        for element in window._archive.values():
            assert (
                element.timestamp >= cutoff
                or element.element_id in window.active_ids()
            )

    def test_invalid_archive_windows_rejected(self):
        with pytest.raises(ValueError):
            ProcessorConfig(archive_windows=0)

    @pytest.mark.parametrize("tight_windows", [1], ids=["columnar"])
    def test_restore_prunes_archive_beyond_horizon(self, tight_windows, tmp_path):
        model, elements = build_reference_stream(13, 40, 2, 8)
        generous = ProcessorConfig(
            window_length=4, bucket_length=2, scoring=SCORING, archive_windows=8,
        )
        engine = KSIREngine(model, EngineConfig(processor=generous))
        for members, end_time in bucketise(elements, 2):
            engine.ingest_bucket(members, end_time)
        path = engine.save(tmp_path / "ckpt")

        tight = EngineConfig(
            processor=replace(generous, archive_windows=tight_windows)
        )
        restored = KSIREngine.load(path, config=tight)
        window = restored.processor.window
        cutoff = restored.current_time - tight_windows * 4
        stale = [
            element_id
            for element_id, element in window._archive.items()
            if element.timestamp < cutoff and element_id not in window.active_ids()
        ]
        assert stale == [], "restore carried archived elements beyond the horizon"
        # The generous engine itself kept more history than the tight one.
        wide_archive = engine.processor.window._archive
        assert len(wide_archive) > len(window._archive)


# ---------------------------------------------------------------------------
# Checkpoint v2: what the reader accepts and what it rejects by name
# ---------------------------------------------------------------------------


def _replay_engine(model, config, buckets):
    engine = KSIREngine(model, config)
    for members, end_time in buckets:
        engine.ingest_bucket(members, end_time)
    return engine


class TestCheckpointCompatibility:
    def make_setup(self, seed=17):
        model, elements = build_reference_stream(seed, 24, 3, 10)
        buckets = bucketise(elements, 2)
        query = KSIRQuery(k=3, vector=np.array([0.4, 0.3, 0.3]))
        return model, buckets, query

    def assert_same_answers(self, engine_a, engine_b, query):
        assert engine_a.active_count == engine_b.active_count
        for algorithm in ("mttd", "greedy"):
            result_a = engine_a.query(query, algorithm=algorithm, epsilon=0.2)
            result_b = engine_b.query(query, algorithm=algorithm, epsilon=0.2)
            assert result_a.element_ids == result_b.element_ids
            assert abs(result_a.score - result_b.score) <= 1e-9

    @staticmethod
    def edit_manifest(path, edit):
        manifest = json.loads((path / "MANIFEST.json").read_text())
        edit(manifest)
        (path / "MANIFEST.json").write_text(json.dumps(manifest))

    def test_retired_config_keys_load_at_their_surviving_values(self, tmp_path):
        """Manifests written before the objects store and the sequential
        path were retired carry both keys; they still load and continue."""
        model, buckets, query = self.make_setup()
        config = engine_config("local", window_length=12)
        engine = _replay_engine(model, config, buckets[:8])
        path = engine.save(tmp_path / "ckpt")
        assert (path / "state_arrays.npz").exists()
        assert "store" not in json.loads((path / "MANIFEST.json").read_text())[
            "config"]["processor"]

        self.edit_manifest(path, lambda manifest: manifest["config"]["processor"].update(
            store="columnar", batched_ingest=True))
        restored = KSIREngine.load(path)
        for members, end_time in buckets[8:]:
            engine.ingest_bucket(members, end_time)
            restored.ingest_bucket(members, end_time)
        self.assert_same_answers(engine, restored, query)

    @pytest.mark.parametrize(
        "retired", [{"store": "objects"}, {"batched_ingest": False}]
    )
    def test_retired_config_values_are_rejected_by_name(self, retired, tmp_path):
        model, buckets, _ = self.make_setup()
        engine = _replay_engine(
            model, engine_config("local", window_length=12), buckets[:4]
        )
        path = engine.save(tmp_path / "ckpt")
        self.edit_manifest(
            path, lambda manifest: manifest["config"]["processor"].update(retired)
        )
        (key,) = retired
        with pytest.raises(ValueError, match=f"{key}.*retired"):
            KSIREngine.load(path)

    def test_v1_manifest_is_rejected_before_state_is_touched(self, tmp_path):
        model, buckets, _ = self.make_setup()
        engine = _replay_engine(
            model, engine_config("local", window_length=12), buckets[:4]
        )
        path = engine.save(tmp_path / "ckpt")
        self.edit_manifest(path, lambda manifest: manifest.update(version=1))
        # Not even the state files are opened: corrupt them to prove it.
        (path / "state.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="version 1"):
            KSIREngine.load(path)

    def test_sharded_columnar_checkpoint_round_trip(self, tmp_path):
        model, buckets, query = self.make_setup(seed=23)
        config = engine_config("sharded", window_length=12)
        uninterrupted = _replay_engine(model, config, buckets)
        first = _replay_engine(model, config, buckets[:8])
        path = first.save(tmp_path / "ckpt")
        first.close()
        resumed = KSIREngine.load(path)
        for members, end_time in buckets[8:]:
            resumed.ingest_bucket(members, end_time)
        self.assert_same_answers(uninterrupted, resumed, query)
        uninterrupted.close()
        resumed.close()
