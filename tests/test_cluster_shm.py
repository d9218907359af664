"""The shared-memory cluster transport: arenas, codec, registry, lifecycle.

Four layers of coverage:

* the packed-buffer codec and :class:`SharedColumnArena` segment lifecycle
  (creation, generational grow, retirement, unlink) — pure unit tests;
* the :class:`~repro.cluster.transport.TransportBackend` registry — aliases,
  unknown names, third-party registration, ``ClusterConfig`` resolution;
* segment-leak checks: ``/dev/shm`` must hold zero ``ksir-*`` segments after
  engine close, worker restart, and SIGKILL recovery (the coordinator owns
  every segment; workers only attach, so a killed worker cannot leak);
* equivalence: the shm transport must answer exactly like the pipe transport
  and a single-node processor (ids identical, scores within 1e-9), driven
  over random instances by hypothesis.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig, KSIREngine
from repro.cluster import (
    ClusterConfig,
    canonical_transport_name,
    create_transport,
    register_transport,
    transport_names,
    verify_equivalence,
)
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.merge import merge_candidate_pools
from repro.cluster.shm import (
    COLUMN_KEYS,
    ArenaView,
    SharedColumnArena,
    column_spec,
    new_session_token,
    pack_arrays,
    packed_size,
    scan_segments,
    unpack_arrays,
)
from repro.cluster.shm_backend import ShmProcessFanout
from repro.cluster.worker import CandidatePool
from repro.core.processor import ProcessorConfig
from repro.core.scoring import ElementProfile, ScoringConfig
from repro.ha.chaos import kill_worker
from tests.conftest import build_processor, build_reference_stream
from tests.test_cluster_equivalence import random_query

CONFIG = ProcessorConfig(
    window_length=8,
    bucket_length=2,
    scoring=ScoringConfig(lambda_weight=0.5, eta=2.0),
)


def shm_cluster(num_shards: int = 2, **kwargs) -> ClusterConfig:
    return ClusterConfig(num_shards=num_shards, transport="shm", **kwargs)


# ---------------------------------------------------------------------------
# Packed-buffer codec
# ---------------------------------------------------------------------------


class TestPackedBuffers:
    def test_round_trip_preserves_arrays_and_order(self):
        rng = np.random.default_rng(5)
        arrays = [
            ("ids", rng.integers(0, 100, size=7).astype(np.int64)),
            ("vals", rng.random(11)),
            ("empty", np.zeros(0, dtype=np.int64)),
            ("flags", rng.random(4) > 0.5),
        ]
        buffer = np.zeros(packed_size(arrays), dtype=np.uint8)
        pack_arrays(buffer, arrays)
        decoded = unpack_arrays(buffer, [(k, a.dtype, a.shape) for k, a in arrays])
        assert list(decoded) == [key for key, _ in arrays]
        for key, original in arrays:
            np.testing.assert_array_equal(decoded[key], original)

    def test_sections_are_sixteen_byte_aligned(self):
        arrays = [
            ("a", np.arange(3, dtype=np.int64)),
            ("b", np.arange(5, dtype=np.float64)),
        ]
        size = packed_size(arrays)
        # 3*8 = 24 → padded to 32 so "b" starts 16-aligned, plus 5*8 = 40.
        assert size == 72
        buffer = np.zeros(size, dtype=np.uint8)
        header = pack_arrays(buffer, arrays)
        decoded = unpack_arrays(buffer, header)
        base = buffer.__array_interface__["data"][0]
        assert decoded["b"].__array_interface__["data"][0] - base == 32

    def test_unpacked_views_are_zero_copy(self):
        arrays = [("a", np.arange(4, dtype=np.int64))]
        buffer = np.zeros(packed_size(arrays), dtype=np.uint8)
        pack_arrays(buffer, arrays)
        view = unpack_arrays(buffer, [("a", np.dtype(np.int64), (4,))])["a"]
        buffer[:8] = 0
        assert view[0] == 0  # the view aliases the buffer


# ---------------------------------------------------------------------------
# Arena lifecycle
# ---------------------------------------------------------------------------


class TestSharedColumnArena:
    def test_create_grow_and_unlink_lifecycle(self):
        session = new_session_token()
        arena = SharedColumnArena(session, shard_id=0)
        try:
            array = arena.create("ids", (4,), np.dtype(np.int64), fill=-1)
            assert array.tolist() == [-1, -1, -1, -1]
            array[:2] = [7, 9]

            segments = scan_segments(session)
            assert len(segments) == 1 and "-ids-g0" in segments[0]

            grown = arena.grow("ids", (8,), copy=True, fill=-1)
            assert grown.tolist() == [7, 9, -1, -1, -1, -1, -1, -1]
            # Old generation retired but still linked until confirmed.
            assert len(scan_segments(session)) == 2
            arena.unlink_retired()
            segments = scan_segments(session)
            assert len(segments) == 1 and "-ids-g1" in segments[0]
        finally:
            arena.close(unlink=True)
        assert scan_segments(session) == []

    def test_view_attaches_and_shares_writes(self):
        session = new_session_token()
        arena = SharedColumnArena(session, shard_id=1)
        try:
            arena.create("ts", (6,), np.dtype(np.int64), fill=0)
            view = ArenaView(arena.manifest())
            try:
                arena.array("ts")[3] = 42
                assert view.array("ts")[3] == 42  # same physical memory
                view.array("ts")[3] = 43
                assert arena.array("ts")[3] == 43
            finally:
                view.close()
        finally:
            arena.close(unlink=True)

    def test_view_refresh_reports_only_changed_keys(self):
        session = new_session_token()
        arena = SharedColumnArena(session, shard_id=0)
        try:
            arena.create("ids", (4,), np.dtype(np.int64), fill=-1)
            arena.create("out", (64,), np.dtype(np.uint8))
            view = ArenaView(arena.manifest())
            try:
                assert view.refresh(arena.manifest()) == ()
                arena.grow("out", (128,), copy=False)
                changed = view.refresh(arena.manifest())
                assert changed == ("out",)
                assert view.array("out").shape == (128,)
            finally:
                view.close()
        finally:
            arena.close(unlink=True)

    def test_column_spec_covers_every_store_column(self):
        spec = column_spec(capacity=16, num_topics=3)
        assert set(spec) == set(COLUMN_KEYS)
        shape, dtype, fill = spec["prof"]
        assert shape == (16, 3) and dtype == np.dtype(np.float64) and fill == 0.0


# ---------------------------------------------------------------------------
# Transport registry
# ---------------------------------------------------------------------------


class TestTransportRegistry:
    def test_builtin_transports_are_registered(self):
        names = transport_names()
        for name in ("serial", "thread", "pipe", "shm"):
            assert name in names

    def test_legacy_backend_aliases_resolve(self):
        assert canonical_transport_name("process") == "pipe"

    def test_unknown_transport_is_an_error(self, paper_topic_model):
        with pytest.raises(ValueError, match="unknown cluster transport"):
            config = ProcessorConfig(window_length=4, bucket_length=1)
            ClusterCoordinator(
                paper_topic_model,
                config,
                cluster=ClusterConfig(num_shards=2, transport="carrier-pigeon"),
            )

    def test_effective_transport_defaults_to_the_backend(self):
        assert ClusterConfig(backend="thread").effective_transport == "thread"
        assert ClusterConfig(backend="process").effective_transport == "pipe"

    def test_transport_overrides_the_backend(self):
        config = ClusterConfig(backend="process", transport="shm")
        assert config.effective_transport == "shm"

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
                cluster=ClusterConfig(num_shards=2, transport="test-custom"),
            )
            coordinator.close()
            assert calls == [coordinator]
        finally:
            from repro.cluster import transport as transport_module

            transport_module._REGISTRY.pop("test-custom", None)


# ---------------------------------------------------------------------------
# Merge guard: stripped follower profiles must not shadow full ones
# ---------------------------------------------------------------------------


def _profile(element_id: int, stripped: bool) -> ElementProfile:
    return ElementProfile(
        element_id=element_id,
        timestamp=element_id,
        topic_probabilities={0: 0.5},
        word_weights={} if stripped else {0: {1: 0.25}},
        semantic_scores={} if stripped else {0: 0.25},
        references=(),
    )


def _pool(shard_id: int, candidates, profiles) -> CandidatePool:
    return CandidatePool(
        shard_id=shard_id,
        candidate_ids=tuple(candidates),
        scores={eid: {0: 1.0} for eid in candidates},
        activity={eid: eid for eid in candidates},
        followers={eid: () for eid in candidates},
        profiles=profiles,
    )


class TestMergeGuard:
    def test_stripped_follower_does_not_shadow_full_candidate(self):
        # Element 5 is a full candidate in pool 0 and a stripped follower
        # profile in pool 1 (shm follower exports carry no word weights).
        pools = [
            _pool(0, [5], {5: _profile(5, stripped=False)}),
            _pool(1, [6], {6: _profile(6, stripped=False), 5: _profile(5, stripped=True)}),
        ]
        context, _ = merge_candidate_pools(pools, num_topics=1, config=CONFIG.scoring)
        assert context.profile(5).word_weights == {0: {1: 0.25}}

    def test_full_profile_replaces_an_earlier_stripped_one(self):
        pools = [
            _pool(0, [6], {6: _profile(6, stripped=False), 5: _profile(5, stripped=True)}),
            _pool(1, [5], {5: _profile(5, stripped=False)}),
        ]
        context, _ = merge_candidate_pools(pools, num_topics=1, config=CONFIG.scoring)
        assert context.profile(5).word_weights == {0: {1: 0.25}}


# ---------------------------------------------------------------------------
# Segment-leak checks (process-spawning; coordinator owns every segment)
# ---------------------------------------------------------------------------


class TestSegmentLifecycle:
    def test_engine_close_leaves_no_segments(self):
        model, elements = build_reference_stream(31, 30, 3, 12)
        engine = KSIREngine(
            model,
            EngineConfig(backend="sharded", processor=CONFIG, cluster=shm_cluster()),
        )
        for element in elements:
            engine.ingest_bucket([element], element.timestamp)
        assert scan_segments() != []  # live cluster holds segments
        engine.close()
        assert scan_segments() == []
        engine.close()  # idempotent

    def test_failed_construction_leaves_no_segments(
        self, paper_topic_model, monkeypatch
    ):
        """The arenas exist before the shard processes do; a spawn that
        fails must not orphan their ``ksir-*`` segments."""
        created = []

        def failing_spawn(self, shard_id):
            created.extend(scan_segments())
            raise OSError("cannot start the shard process")

        monkeypatch.setattr(ShmProcessFanout, "_spawn", failing_spawn)
        config = ProcessorConfig(window_length=4, bucket_length=1)
        with pytest.raises(OSError, match="cannot start"):
            ShmProcessFanout(2, paper_topic_model, config)
        assert created != []  # the failure really came after the arenas
        assert scan_segments() == []

    def test_sigkill_recovery_leaves_no_segments(self):
        model, elements = build_reference_stream(37, 24, 3, 12)
        coordinator = ClusterCoordinator(
            model, CONFIG, cluster=shm_cluster(num_shards=2, backend="process")
        )
        try:
            mid = len(elements) // 2
            for element in elements[:mid]:
                coordinator.process_bucket([element], element.timestamp)
            checkpoint = coordinator.state_dict()

            kill_worker(coordinator, 1)
            fanout = coordinator.fanout
            assert isinstance(fanout, ShmProcessFanout)
            assert fanout.ping() == [True, False]
            fanout.restart_shard(1)
            coordinator.restore_state(checkpoint)
            for element in elements[mid:]:
                coordinator.process_bucket([element], element.timestamp)

            result = coordinator.query(random_query(37, 3, 3), algorithm="mttd", epsilon=0.1)
            single = build_processor(model, CONFIG)
            single.process_stream(elements)
            expected = single.query(random_query(37, 3, 3), algorithm="mttd", epsilon=0.1)
            assert set(result.element_ids) == set(expected.element_ids)
            assert result.score == pytest.approx(expected.score, abs=1e-9)
        finally:
            coordinator.close()
        assert scan_segments() == []

    def test_no_resource_tracker_leak_warnings_at_interpreter_exit(self):
        """A full engine lifecycle must not trip the shm resource tracker."""
        script = textwrap.dedent(
            """
            from repro.api import EngineConfig, KSIREngine
            from repro.cluster import ClusterConfig
            from repro.core.processor import ProcessorConfig
            from repro.core.scoring import ScoringConfig
            from tests.conftest import build_reference_stream

            config = ProcessorConfig(
                window_length=8, bucket_length=2,
                scoring=ScoringConfig(lambda_weight=0.5, eta=2.0),
            )
            model, elements = build_reference_stream(41, 20, 3, 12)
            engine = KSIREngine(model, EngineConfig(
                backend="sharded", processor=config,
                cluster=ClusterConfig(num_shards=2, transport="shm"),
            ))
            for element in elements:
                engine.ingest_bucket([element], element.timestamp)
            engine.close()
            """
        )
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(
                None,
                [
                    os.path.join(repo_root, "src"),
                    repo_root,
                    env.get("PYTHONPATH", ""),
                ],
            )
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=repo_root,
            env=env,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "leaked shared_memory" not in completed.stderr, completed.stderr


# ---------------------------------------------------------------------------
# Equivalence: shm == pipe == single node
# ---------------------------------------------------------------------------


class TestShmEquivalence:
    def test_shm_matches_pipe_and_single_node_exactly(self):
        model, elements = build_reference_stream(43, 36, 4, 14)
        queries = [random_query(43 + i, 4, 3) for i in range(3)]

        single = build_processor(model, CONFIG)
        pipe = ClusterCoordinator(
            model, CONFIG, cluster=ClusterConfig(num_shards=2, transport="pipe")
        )
        shm = ClusterCoordinator(model, CONFIG, cluster=shm_cluster(num_shards=2))
        try:
            for element in elements:
                single.process_bucket([element], element.timestamp)
                pipe.process_bucket([element], element.timestamp)
                shm.process_bucket([element], element.timestamp)
            assert shm.active_count == pipe.active_count == single.active_count
            for query in queries:
                for algorithm in ("mttd", "greedy"):
                    a = single.query(query, algorithm=algorithm, epsilon=0.1)
                    b = pipe.query(query, algorithm=algorithm, epsilon=0.1)
                    c = shm.query(query, algorithm=algorithm, epsilon=0.1)
                    assert set(c.element_ids) == set(a.element_ids)
                    assert set(c.element_ids) == set(b.element_ids)
                    assert c.score == pytest.approx(a.score, abs=1e-9)
                    assert c.score == pytest.approx(b.score, abs=1e-9)
        finally:
            pipe.close()
            shm.close()
        assert scan_segments() == []

    def test_checkpoint_round_trip_through_shm(self):
        model, elements = build_reference_stream(47, 28, 3, 12)
        first = ClusterCoordinator(model, CONFIG, cluster=shm_cluster(num_shards=2))
        try:
            mid = len(elements) // 2
            for element in elements[:mid]:
                first.process_bucket([element], element.timestamp)
            state = first.state_dict()
        finally:
            first.close()

        second = ClusterCoordinator(model, CONFIG, cluster=shm_cluster(num_shards=2))
        single = build_processor(model, CONFIG)
        try:
            second.restore_state(state)
            for element in elements:
                single.process_bucket([element], element.timestamp)
            for element in elements[mid:]:
                second.process_bucket([element], element.timestamp)
            query = random_query(47, 3, 3)
            restored = second.query(query, algorithm="mttd", epsilon=0.1)
            expected = single.query(query, algorithm="mttd", epsilon=0.1)
            assert set(restored.element_ids) == set(expected.element_ids)
            assert restored.score == pytest.approx(expected.score, abs=1e-9)
        finally:
            second.close()
        assert scan_segments() == []

    @given(
        params=st.tuples(
            st.integers(min_value=0, max_value=10_000),  # seed
            st.integers(min_value=8, max_value=14),      # elements
            st.integers(min_value=2, max_value=4),       # topics
            st.integers(min_value=6, max_value=12),      # vocabulary
            st.integers(min_value=2, max_value=3),       # k
            st.integers(min_value=2, max_value=3),       # shards
            st.sampled_from(["hash", "round-robin", "load-balanced"]),
        )
    )
    @settings(max_examples=5, deadline=None)
    def test_random_instances_match_single_node(self, params):
        seed, n, z, v, k, shards, partitioner = params
        model, elements = build_reference_stream(seed, n, z, v)
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
            cluster=ClusterConfig(
                num_shards=shards, partitioner=partitioner, transport="shm"
            ),
            algorithms=("mttd", "mtts", "greedy", "celf"),
            epsilon=0.1,
        )
        assert report.active_single == report.active_cluster
        assert report.matched, "; ".join(
            f"[{c.algorithm}] {c.detail}" for c in report.mismatches
        )
        assert scan_segments() == []


# ---------------------------------------------------------------------------
# Growth paths under tiny initial capacities
# ---------------------------------------------------------------------------


def _tiny_shm_transport(coordinator):
    return ShmProcessFanout(
        coordinator.num_shards,
        coordinator.topic_model,
        coordinator.config,
        initial_rows=4,
        initial_buffer_bytes=32,
    )


class TestTinyCapacityGrowth:
    def test_rows_and_buffers_grow_transparently(self):
        register_transport("shm-tiny", _tiny_shm_transport)
        try:
            model, elements = build_reference_stream(61, 40, 3, 12)
            single = build_processor(model, CONFIG)
            coordinator = ClusterCoordinator(
                model, CONFIG, cluster=ClusterConfig(num_shards=2, transport="shm-tiny")
            )
            try:
                for element in elements:
                    single.process_bucket([element], element.timestamp)
                    coordinator.process_bucket([element], element.timestamp)
                assert coordinator.active_count == single.active_count
                query = random_query(61, 3, 3)
                got = coordinator.query(query, algorithm="mttd", epsilon=0.1)
                expected = single.query(query, algorithm="mttd", epsilon=0.1)
                assert set(got.element_ids) == set(expected.element_ids)
                assert got.score == pytest.approx(expected.score, abs=1e-9)
            finally:
                coordinator.close()
            assert scan_segments() == []
        finally:
            from repro.cluster import transport as transport_module

            transport_module._REGISTRY.pop("shm-tiny", None)
