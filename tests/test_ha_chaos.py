"""Fault injection (repro.ha.chaos) and the recoveries it must trigger.

Each injector is exercised against the failure path it simulates: a hung
worker must trip the heartbeat timeout and be replaced, and a damaged
checkpoint — plain or chain — must surface as a clear CheckpointError
rather than garbage state.
"""

from __future__ import annotations

import time

import pytest

from repro.api import (
    CheckpointError,
    EngineConfig,
    KSIREngine,
    read_checkpoint,
)
from repro.cluster import ClusterConfig
from repro.core.processor import ProcessorConfig
from repro.core.scoring import ScoringConfig
from repro.ha import CheckpointChain, ClusterSupervisor, HAConfig
from repro.ha.chaos import corrupt_checkpoint, delay_heartbeat, kill_worker

from tests.conftest import build_reference_stream

NUM_BUCKETS = 8
BUCKET_LENGTH = 2

PROCESSOR = ProcessorConfig(
    window_length=NUM_BUCKETS,
    bucket_length=BUCKET_LENGTH,
    scoring=ScoringConfig(lambda_weight=0.5, eta=2.0),
)


def build_stream(seed: int):
    return build_reference_stream(seed, NUM_BUCKETS * BUCKET_LENGTH, 4, 18)


def buckets_of(elements):
    return [
        (elements[start : start + BUCKET_LENGTH],
         elements[start + BUCKET_LENGTH - 1].timestamp)
        for start in range(0, len(elements), BUCKET_LENGTH)
    ]


def sharded_engine(model) -> KSIREngine:
    return KSIREngine(
        model,
        EngineConfig(
            backend="sharded",
            processor=PROCESSOR,
            cluster=ClusterConfig(num_shards=2, transport="pipe"),
        ),
    )


class TestDelayHeartbeat:
    def test_hung_worker_trips_timeout_and_is_replaced(self):
        model, elements = build_stream(seed=29)
        buckets = buckets_of(elements)
        supervisor = ClusterSupervisor(
            sharded_engine(model),
            ha=HAConfig(heartbeat_interval=0.05, heartbeat_timeout=0.25),
        )
        with supervisor:
            for members, end_time in buckets[:4]:
                supervisor.ingest_bucket(members, end_time)
            # Hang shard 1: alive but answering probes slower than the
            # timeout — indistinguishable from a wedged worker.
            delay_heartbeat(supervisor.coordinator, 1, 5.0)
            supervisor.start()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                status = supervisor.status()
                if status["recoveries"] >= 1 and status["healthy"]:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("hung worker was never declared dead and replaced")
            supervisor.stop()
            # The replacement worker has no chaos knobs set: ingest and
            # query work normally again.
            for members, end_time in buckets[4:]:
                supervisor.ingest_bucket(members, end_time)
            assert supervisor.engine.elements_processed == len(elements)
            assert supervisor.status()["healthy"]

    def test_zero_delay_restores_normal_probes(self):
        model, _ = build_stream(seed=29)
        supervisor = ClusterSupervisor(sharded_engine(model))
        with supervisor:
            fanout = supervisor.coordinator.fanout
            delay_heartbeat(fanout, 0, 5.0)
            delay_heartbeat(fanout, 0, 0.0)
            assert fanout.ping(timeout=1.0) == [True, True]


class TestKillWorker:
    def test_kill_leaves_failure_invisible_until_probed(self):
        model, _ = build_stream(seed=29)
        supervisor = ClusterSupervisor(sharded_engine(model))
        with supervisor:
            fanout = supervisor.coordinator.fanout
            kill_worker(supervisor.coordinator, 1)
            # Like a real crash: nothing is marked dead until a probe or
            # command hits the broken pipe.
            assert fanout.dead_shards == ()
            fanout.ping(timeout=1.0)
            assert fanout.dead_shards == (1,)

    def test_rejects_in_process_fanout(self):
        model, _ = build_stream(seed=29)
        engine = KSIREngine(
            model,
            EngineConfig(
                backend="sharded",
                processor=PROCESSOR,
                cluster=ClusterConfig(num_shards=2),
            ),
        )
        backend = engine.backend
        with pytest.raises(TypeError, match="process fan-out"):
            kill_worker(backend.coordinator, 0)
        engine.close()


class TestCorruptCheckpoint:
    @staticmethod
    def _checkpoint(tmp_path, seed: int = 5):
        model, elements = build_stream(seed)
        engine = KSIREngine(model, EngineConfig(processor=PROCESSOR))
        for members, end_time in buckets_of(elements)[:4]:
            engine.ingest_bucket(members, end_time)
        path = engine.save(tmp_path / "ckpt")
        engine.close()
        return path

    @pytest.mark.parametrize("mode", ["truncate", "garbage", "remove"])
    def test_damaged_plain_checkpoint_raises_checkpoint_error(
        self, tmp_path, mode
    ):
        path = self._checkpoint(tmp_path)
        victim = corrupt_checkpoint(path, mode=mode)
        assert victim.name == "state_arrays.npz" or not victim.exists()
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_damaged_chain_targets_newest_full_segment(self, tmp_path):
        model, elements = build_stream(seed=5)
        buckets = buckets_of(elements)
        engine = KSIREngine(model, EngineConfig(processor=PROCESSOR))
        chain = CheckpointChain(tmp_path / "chain", full_every=8)
        for index in range(0, 6, 2):
            for members, end_time in buckets[index : index + 2]:
                engine.ingest_bucket(members, end_time)
            chain.save(engine)
        engine.close()
        victim = corrupt_checkpoint(tmp_path / "chain", mode="garbage")
        assert victim.parent.name.endswith("-full")
        with pytest.raises(CheckpointError):
            CheckpointChain(tmp_path / "chain").read_payload()

    def test_unknown_mode_rejected(self, tmp_path):
        path = self._checkpoint(tmp_path)
        with pytest.raises(ValueError, match="unknown corruption mode"):
            corrupt_checkpoint(path, mode="sabotage")

    def test_non_checkpoint_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not a checkpoint"):
            corrupt_checkpoint(tmp_path)
