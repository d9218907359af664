"""The cluster supervisor (repro.ha.supervisor): detect, restore, replay.

The acceptance property of the HA subsystem, hypothesis-backed like the
cluster equivalence suite: SIGKILL a process shard worker mid-stream at a
random bucket, let the supervisor heal it (restart + checkpoint restore +
WAL replay), and the recovered cluster must answer queries *identically*
(within 1e-9) to an uninterrupted single-node run over the same stream —
with identical counters, so nothing was lost or double-applied.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ha.supervisor as supervisor_module
from repro.api import EngineConfig, KSIREngine, read_checkpoint
from repro.cluster import ClusterConfig
from repro.core.processor import ProcessorConfig
from repro.core.query import KSIRQuery
from repro.core.scoring import ScoringConfig
from repro.ha import ClusterSupervisor, HAConfig
from repro.ha.chaos import kill_worker

from tests.conftest import build_reference_stream, same_state

NUM_BUCKETS = 16
BUCKET_LENGTH = 2
NUM_TOPICS = 4

PROCESSOR = ProcessorConfig(
    window_length=NUM_BUCKETS,  # half the stream span: expiry triggers
    bucket_length=BUCKET_LENGTH,
    scoring=ScoringConfig(lambda_weight=0.5, eta=2.0),
)


def build_stream(seed: int):
    return build_reference_stream(seed, NUM_BUCKETS * BUCKET_LENGTH, NUM_TOPICS, 18)


def buckets_of(elements):
    return [
        (elements[start : start + BUCKET_LENGTH],
         elements[start + BUCKET_LENGTH - 1].timestamp)
        for start in range(0, len(elements), BUCKET_LENGTH)
    ]


def random_query(seed: int, k: int = 4) -> KSIRQuery:
    rng = np.random.default_rng(seed + 104729)
    vector = rng.dirichlet(np.ones(NUM_TOPICS))
    return KSIRQuery(k=k, vector=vector)


def sharded_config(shards: int = 2) -> EngineConfig:
    return EngineConfig(
        backend="sharded",
        processor=PROCESSOR,
        cluster=ClusterConfig(num_shards=shards, transport="pipe"),
    )


def serial_config() -> EngineConfig:
    """In-process shards: enough for what is checkpointed, never killed."""
    return EngineConfig(
        backend="sharded", processor=PROCESSOR, cluster=ClusterConfig(num_shards=2)
    )


def reference_run(model, buckets) -> KSIREngine:
    engine = KSIREngine(model, EngineConfig(processor=PROCESSOR))
    for members, end_time in buckets:
        engine.ingest_bucket(members, end_time)
    return engine


def assert_matches_reference(supervisor, reference, query) -> None:
    """``supervisor`` may be a ClusterSupervisor or a plain engine."""
    engine = getattr(supervisor, "engine", supervisor)
    assert engine.elements_processed == reference.elements_processed
    assert engine.buckets_processed == reference.buckets_processed
    assert engine.active_count == reference.active_count
    assert engine.current_time == reference.current_time
    for algorithm in ("mttd", "greedy"):
        a = reference.query(query, algorithm=algorithm, epsilon=0.2)
        b = supervisor.query(query, algorithm=algorithm, epsilon=0.2)
        assert a.element_ids == b.element_ids, algorithm
        assert abs(a.score - b.score) <= 1e-9, algorithm


class TestKillAndRecover:
    @given(
        params=st.tuples(
            st.integers(min_value=0, max_value=10_000),  # stream seed
            st.integers(min_value=2, max_value=12),      # kill before bucket
            st.sampled_from([0, 3]),                     # checkpoint cadence
        )
    )
    @settings(max_examples=5, deadline=None)
    def test_recovered_cluster_matches_uninterrupted_run(self, params):
        seed, kill_bucket, checkpoint_every = params
        model, elements = build_stream(seed)
        buckets = buckets_of(elements)
        query = random_query(seed)
        reference = reference_run(model, buckets)
        try:
            with tempfile.TemporaryDirectory() as tmp:
                supervisor = ClusterSupervisor(
                    KSIREngine(model, sharded_config()),
                    ha=HAConfig(checkpoint_every=checkpoint_every),
                    checkpoint_dir=Path(tmp) if checkpoint_every else None,
                )
                with supervisor:
                    for index, (members, end_time) in enumerate(buckets):
                        if index == kill_bucket:
                            kill_worker(supervisor.coordinator, 1)
                        supervisor.ingest_bucket(members, end_time)
                    assert_matches_reference(supervisor, reference, query)
                    # The kill was detected in-band and healed exactly once.
                    status = supervisor.status()
                    assert status["recoveries"] >= 1
                    assert status["healthy"]
        finally:
            reference.close()

    def test_query_path_heals_dead_shard(self):
        model, elements = build_stream(seed=41)
        buckets = buckets_of(elements)
        query = random_query(41)
        reference = reference_run(model, buckets)
        try:
            supervisor = ClusterSupervisor(KSIREngine(model, sharded_config()))
            with supervisor:
                for members, end_time in buckets:
                    supervisor.ingest_bucket(members, end_time)
                kill_worker(supervisor.coordinator, 0)
                # No ingest follows the kill: the query itself must detect
                # the broken shard, heal it and answer correctly.
                a = reference.query(query, algorithm="mttd", epsilon=0.2)
                b = supervisor.query(query, algorithm="mttd", epsilon=0.2)
                assert a.element_ids == b.element_ids
                assert abs(a.score - b.score) <= 1e-9
                assert supervisor.status()["recoveries"] == 1
        finally:
            reference.close()

    def test_a_refused_bucket_is_never_logged_or_replayed(self):
        """A bucket ending before the window's time is refused before the
        WAL append, so the recovery that follows does not replay it."""
        model, elements = build_stream(seed=23)
        buckets = buckets_of(elements)
        query = random_query(23)
        reference = reference_run(model, buckets)
        try:
            supervisor = ClusterSupervisor(KSIREngine(model, sharded_config()))
            with supervisor:
                for position, (members, end_time) in enumerate(buckets):
                    if position == 8:
                        with pytest.raises(ValueError, match="backwards"):
                            supervisor.ingest_bucket(members, buckets[2][1])
                        assert len(supervisor.wal) == 8
                        kill_worker(supervisor.coordinator, 1)
                    supervisor.ingest_bucket(members, end_time)
                assert_matches_reference(supervisor, reference, query)
                assert supervisor.status()["recoveries"] == 1
        finally:
            reference.close()

    def test_heartbeat_detects_and_restarts_dead_worker(self):
        model, elements = build_stream(seed=13)
        buckets = buckets_of(elements)
        query = random_query(13)
        reference = reference_run(model, buckets)
        try:
            supervisor = ClusterSupervisor(
                KSIREngine(model, sharded_config()),
                ha=HAConfig(heartbeat_interval=0.05, heartbeat_timeout=1.0),
            )
            with supervisor:
                supervisor.start()
                for members, end_time in buckets[:6]:
                    supervisor.ingest_bucket(members, end_time)
                kill_worker(supervisor.coordinator, 1)
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    status = supervisor.status()
                    if status["recoveries"] >= 1 and status["healthy"]:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("heartbeat never recovered the killed shard")
                for members, end_time in buckets[6:]:
                    supervisor.ingest_bucket(members, end_time)
                assert_matches_reference(supervisor, reference, query)
        finally:
            reference.close()


class TestCheckpointCadence:
    def test_cadence_takes_checkpoints_and_truncates_wal(self, tmp_path):
        model, elements = build_stream(seed=3)
        buckets = buckets_of(elements)
        supervisor = ClusterSupervisor(
            KSIREngine(model, sharded_config()),
            ha=HAConfig(checkpoint_every=3),
            checkpoint_dir=tmp_path,
        )
        with supervisor:
            for members, end_time in buckets[:7]:
                supervisor.ingest_bucket(members, end_time)
            assert supervisor.status()["checkpoint"]["generation"] == 2
            # Checkpointed buckets leave the WAL; only the gap is retained.
            assert len(supervisor.wal) == 1

    def test_wal_capacity_forces_checkpoint(self, tmp_path):
        model, elements = build_stream(seed=3)
        buckets = buckets_of(elements)
        supervisor = ClusterSupervisor(
            KSIREngine(model, sharded_config()),
            ha=HAConfig(checkpoint_every=0, wal_capacity=4),
            checkpoint_dir=tmp_path,
        )
        with supervisor:
            for members, end_time in buckets[:6]:
                supervisor.ingest_bucket(members, end_time)
            assert supervisor.status()["checkpoint"]["generation"] >= 1
            assert len(supervisor.wal) < 4

    def test_manual_checkpoint_returns_segment_name(self, tmp_path):
        model, elements = build_stream(seed=3)
        buckets = buckets_of(elements)
        supervisor = ClusterSupervisor(
            KSIREngine(model, sharded_config()),
            checkpoint_dir=tmp_path,
        )
        with supervisor:
            supervisor.ingest_bucket(*buckets[0])
            assert supervisor.status()["checkpoint"]["latest"] is None
            name = supervisor.checkpoint()
            assert name == "000001"
            assert supervisor.status()["checkpoint"]["latest"] == str(tmp_path / "latest")
            assert (tmp_path / "latest").resolve() == (tmp_path / name).resolve()
            assert len(supervisor.wal) == 0

    def test_checkpoint_without_chain_is_none(self):
        model, elements = build_stream(seed=3)
        supervisor = ClusterSupervisor(KSIREngine(model, sharded_config()))
        with supervisor:
            assert supervisor.checkpoint() is None


class TestCheckpointOnDisk:
    def test_a_checkpoint_is_what_engine_save_writes(self, tmp_path):
        """The supervisor's checkpoint is an ordinary engine checkpoint: it
        reads back as the state ``engine.save`` writes at the same instant,
        and ``KSIREngine.load(checkpoint_dir / "latest")`` resumes with the
        answers of the uninterrupted run."""
        model, elements = build_stream(seed=23)
        buckets = buckets_of(elements)
        reference = reference_run(model, buckets)
        try:
            supervisor = ClusterSupervisor(
                KSIREngine(model, serial_config()), checkpoint_dir=tmp_path / "ha"
            )
            with supervisor:
                for members, end_time in buckets[:7]:
                    supervisor.ingest_bucket(members, end_time)
                supervisor.checkpoint()
                saved = supervisor.engine.save(tmp_path / "saved")
            latest, direct = read_checkpoint(tmp_path / "ha" / "latest"), read_checkpoint(saved)
            assert (latest.backend, latest.config) == (direct.backend, direct.config)
            assert same_state(latest.state, direct.state)
            with KSIREngine.load(tmp_path / "ha" / "latest") as resumed:
                assert resumed.buckets_processed == 7
                for members, end_time in buckets[7:]:
                    resumed.ingest_bucket(members, end_time)
                assert_matches_reference(resumed, reference, random_query(23))
        finally:
            reference.close()

    def test_disk_holds_one_checkpoint_after_many(self, tmp_path):
        model, elements = build_stream(seed=3)
        buckets = buckets_of(elements)
        supervisor = ClusterSupervisor(
            KSIREngine(model, serial_config()),
            ha=HAConfig(checkpoint_every=2),
            checkpoint_dir=tmp_path,
        )
        with supervisor:
            for members, end_time in buckets[:12]:
                supervisor.ingest_bucket(members, end_time)
            assert supervisor.status()["checkpoint"]["generation"] == 6
        assert sorted(path.name for path in tmp_path.iterdir()) == ["000006", "latest"]
        # A supervisor over the same directory keeps counting and pruning.
        engine = KSIREngine.load(tmp_path / "latest")
        assert engine.buckets_processed == 12
        with ClusterSupervisor(engine, checkpoint_dir=tmp_path) as supervisor:
            for members, end_time in buckets[12:]:
                supervisor.ingest_bucket(members, end_time)
            assert supervisor.checkpoint() == "000007"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["000007", "latest"]
        with KSIREngine.load(tmp_path / "latest") as resumed:
            assert resumed.buckets_processed == NUM_BUCKETS

    def test_a_failed_save_leaves_latest_at_the_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        model, elements = build_stream(seed=3)
        buckets = buckets_of(elements)
        supervisor = ClusterSupervisor(
            KSIREngine(model, serial_config()), checkpoint_dir=tmp_path
        )

        def torn_write(path, **kwargs):
            # Die mid-save: the topic model is on disk, the state is not.
            path.mkdir(parents=True)
            kwargs["topic_model"].save(path / "topic_model.npz")
            raise OSError("disk full")

        with supervisor:
            for members, end_time in buckets[:4]:
                supervisor.ingest_bucket(members, end_time)
            supervisor.checkpoint()
            for members, end_time in buckets[4:6]:
                supervisor.ingest_bucket(members, end_time)
            monkeypatch.setattr(supervisor_module, "write_checkpoint", torn_write)
            with pytest.raises(OSError, match="disk full"):
                supervisor.checkpoint()
            monkeypatch.undo()
            # The WAL still holds the buckets the good checkpoint lacks.
            assert len(supervisor.wal) == 2
            assert sorted(path.name for path in tmp_path.iterdir()) == ["000001", "latest"]
            with KSIREngine.load(tmp_path / "latest") as previous:
                assert previous.buckets_processed == 4
            assert supervisor.checkpoint() == "000003"
        with KSIREngine.load(tmp_path / "latest") as current:
            assert current.buckets_processed == 6


class TestResumeUnderSupervision:
    @pytest.mark.parametrize("checkpoint_dir", [None, "ha"])
    def test_a_loaded_engine_is_anchored_when_supervision_starts(
        self, tmp_path, checkpoint_dir
    ):
        """A supervisor around a restored engine restores a killed shard from
        the state it was handed, not from empty, before any checkpoint."""
        model, elements = build_stream(seed=7)
        buckets = buckets_of(elements)
        reference = reference_run(model, buckets)
        try:
            with KSIREngine(model, sharded_config()) as first:
                for members, end_time in buckets[:8]:
                    first.ingest_bucket(members, end_time)
                path = first.save(tmp_path / "saved")
            supervisor = ClusterSupervisor(
                KSIREngine.load(path),
                checkpoint_dir=None if checkpoint_dir is None else tmp_path / checkpoint_dir,
            )
            with supervisor:
                for index, (members, end_time) in enumerate(buckets[8:], start=8):
                    if index == 10:
                        kill_worker(supervisor.coordinator, 1)
                    supervisor.ingest_bucket(members, end_time)
                assert supervisor.status()["recoveries"] == 1
                assert_matches_reference(supervisor, reference, random_query(7))
        finally:
            reference.close()


class TestRebalance:
    def test_rebalance_preserves_answers_without_stopping_ingest(self):
        model, elements = build_stream(seed=17)
        buckets = buckets_of(elements)
        query = random_query(17)
        reference = reference_run(model, buckets)
        try:
            supervisor = ClusterSupervisor(KSIREngine(model, sharded_config(2)))
            with supervisor:
                for members, end_time in buckets[:6]:
                    supervisor.ingest_bucket(members, end_time)
                supervisor.rebalance(3)  # scale out mid-stream
                assert supervisor.coordinator.num_shards == 3
                for members, end_time in buckets[6:11]:
                    supervisor.ingest_bucket(members, end_time)
                supervisor.rebalance(2)  # and back in
                assert supervisor.coordinator.num_shards == 2
                for members, end_time in buckets[11:]:
                    supervisor.ingest_bucket(members, end_time)
                assert_matches_reference(supervisor, reference, query)
                assert supervisor.status()["rebalances"] == 2
        finally:
            reference.close()

    def test_a_shard_killed_after_a_rebalance_recovers(self):
        """Without a ``checkpoint_dir`` the rebalanced state is the anchor:
        the WAL before the rebalance is gone, so a shard restarted empty
        would lose every element it held."""
        model, elements = build_stream(seed=17)
        buckets = buckets_of(elements)
        reference = reference_run(model, buckets)
        try:
            supervisor = ClusterSupervisor(KSIREngine(model, sharded_config(2)))
            with supervisor:
                for members, end_time in buckets[:6]:
                    supervisor.ingest_bucket(members, end_time)
                supervisor.rebalance(3)
                for index, (members, end_time) in enumerate(buckets[6:], start=6):
                    if index == 8:
                        kill_worker(supervisor.coordinator, 2)
                    supervisor.ingest_bucket(members, end_time)
                assert supervisor.status()["recoveries"] == 1
                assert_matches_reference(supervisor, reference, random_query(17))
        finally:
            reference.close()

    def test_rebalance_rejects_bad_shard_count(self):
        model, elements = build_stream(seed=3)
        supervisor = ClusterSupervisor(KSIREngine(model, sharded_config()))
        with supervisor:
            with pytest.raises(ValueError, match="num_shards"):
                supervisor.rebalance(0)


class TestSupervisorSurface:
    def test_requires_sharded_backend(self):
        model, _ = build_stream(seed=3)
        engine = KSIREngine(model, EngineConfig(processor=PROCESSOR))
        with pytest.raises(TypeError, match="sharded"):
            ClusterSupervisor(engine)
        engine.close()

    def test_status_shape(self, tmp_path):
        model, elements = build_stream(seed=3)
        supervisor = ClusterSupervisor(
            KSIREngine(model, sharded_config()),
            checkpoint_dir=tmp_path,
        )
        with supervisor:
            supervisor.ingest_bucket(*buckets_of(elements)[0])
            status = supervisor.status()
            assert status["supervised"] is True
            assert status["transport"] == "pipe"
            assert status["num_shards"] == 2
            assert [shard["alive"] for shard in status["shards"]] == [True, True]
            assert status["healthy"] is True
            assert status["heartbeat"]["running"] is False
            assert status["recoveries"] == 0
            assert status["wal"]["entries"] == 1
            assert status["checkpoint"] == {"latest": None, "generation": 0}

    def test_ha_config_resolves_from_engine_config(self):
        model, _ = build_stream(seed=3)
        tuned = HAConfig(heartbeat_interval=9.0)
        config = EngineConfig(
            backend="sharded",
            processor=PROCESSOR,
            cluster=ClusterConfig(num_shards=2, transport="pipe"),
            ha=tuned,
        )
        supervisor = ClusterSupervisor(KSIREngine(model, config))
        with supervisor:
            assert supervisor.ha_config is tuned

    def test_process_stream_uses_shared_bucketing(self):
        model, elements = build_stream(seed=19)
        buckets = buckets_of(elements)
        reference = reference_run(model, buckets)
        try:
            supervisor = ClusterSupervisor(KSIREngine(model, sharded_config()))
            with supervisor:
                supervisor.process_stream(elements)
                assert (
                    supervisor.engine.buckets_processed
                    == reference.buckets_processed
                )
                assert (
                    supervisor.engine.elements_processed
                    == reference.elements_processed
                )
        finally:
            reference.close()
