"""Checkpoint/restore tests: save → load → continue == uninterrupted run."""

from __future__ import annotations

import json
import multiprocessing

import numpy as np
import pytest

from repro.api import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    CheckpointError,
    EngineConfig,
    KSIREngine,
    LocalBackend,
    ServiceBackend,
    ShardedBackend,
    read_checkpoint,
)
from repro.cluster import ClusterConfig, ShardWorker
from repro.core.processor import ProcessorConfig
from repro.core.query import KSIRQuery
from repro.core.scoring import ScoringConfig
from repro.ha.delta import CheckpointChain

from tests.conftest import build_reference_stream

NUM_BUCKETS = 20
BUCKET_LENGTH = 2


def build_stream(seed: int, num_topics: int = 4, vocab_size: int = 18):
    """A random stream spanning exactly NUM_BUCKETS buckets."""
    return build_reference_stream(
        seed, NUM_BUCKETS * BUCKET_LENGTH, num_topics, vocab_size
    )


def buckets_of(elements):
    buckets = []
    for start in range(0, len(elements), BUCKET_LENGTH):
        members = elements[start : start + BUCKET_LENGTH]
        buckets.append((members, members[-1].timestamp))
    return buckets


PROCESSOR = ProcessorConfig(
    window_length=NUM_BUCKETS,  # half the stream span: expiry triggers
    bucket_length=BUCKET_LENGTH,
    scoring=ScoringConfig(lambda_weight=0.5, eta=2.0),
)

CONFIGS = {
    "local": EngineConfig(processor=PROCESSOR),
    "sharded": EngineConfig(
        backend="sharded",
        processor=PROCESSOR,
        cluster=ClusterConfig(num_shards=3),
    ),
    "service": EngineConfig(backend="service", processor=PROCESSOR),
    "service-sharded": EngineConfig(
        backend="service",
        processor=PROCESSOR,
        cluster=ClusterConfig(num_shards=2),
    ),
}


def ranked_list_states(engine: KSIREngine):
    """Every ranked-list index behind an engine, as {topic: {id: score}} maps."""
    backend = engine.backend
    if isinstance(backend, ServiceBackend):
        substrate = backend.engine.backend
        processors = (
            [worker.processor for worker in substrate.workers]
            if hasattr(substrate, "workers")
            else [substrate]
        )
    elif isinstance(backend, ShardedBackend):
        processors = [worker.processor for worker in backend.coordinator.workers]
    else:
        assert isinstance(backend, LocalBackend)
        processors = [backend.processor]
    states = []
    for processor in processors:
        index = processor.ranked_lists
        states.append(
            {
                topic: dict(index.items(topic))
                for topic in range(index.num_topics)
            }
        )
    return states


def assert_ranked_lists_close(a, b, tolerance=1e-9):
    assert len(a) == len(b)
    for state_a, state_b in zip(a, b):
        assert state_a.keys() == state_b.keys()
        for topic in state_a:
            assert state_a[topic].keys() == state_b[topic].keys(), f"topic {topic}"
            for element_id, score in state_a[topic].items():
                assert abs(score - state_b[topic][element_id]) <= tolerance


def make_engine(model, config: EngineConfig, query: KSIRQuery) -> KSIREngine:
    engine = KSIREngine(model, config)
    if config.backend == "service":
        engine.register(query, query_id="standing", algorithm="mttd", epsilon=0.2)
        engine.register(query, query_id="short-lived", ttl_buckets=4)
    return engine


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_save_load_continue_matches_uninterrupted(name, tmp_path):
    config = CONFIGS[name]
    model, elements = build_stream(seed=29)
    buckets = buckets_of(elements)
    query = KSIRQuery(k=4, vector=np.array([0.5, 0.5, 0.0, 0.0]))

    uninterrupted = make_engine(model, config, query)
    for members, end_time in buckets:
        uninterrupted.ingest_bucket(members, end_time)

    first = make_engine(model, config, query)
    for members, end_time in buckets[: NUM_BUCKETS // 2]:
        first.ingest_bucket(members, end_time)
    path = first.save(tmp_path / "ckpt")
    first.close()

    resumed = KSIREngine.load(path)
    assert resumed.backend_name == config.backend
    assert resumed.buckets_processed == NUM_BUCKETS // 2
    for members, end_time in buckets[NUM_BUCKETS // 2 :]:
        resumed.ingest_bucket(members, end_time)

    # Counters and windows line up.
    assert resumed.elements_processed == uninterrupted.elements_processed
    assert resumed.buckets_processed == uninterrupted.buckets_processed
    assert resumed.active_count == uninterrupted.active_count
    assert resumed.current_time == uninterrupted.current_time

    # Ranked-list scores within 1e-9 of the uninterrupted run.
    assert_ranked_lists_close(
        ranked_list_states(resumed), ranked_list_states(uninterrupted)
    )

    # Query answers agree.
    for algorithm in ("mttd", "greedy"):
        a = uninterrupted.query(query, algorithm=algorithm, epsilon=0.2)
        b = resumed.query(query, algorithm=algorithm, epsilon=0.2)
        assert a.element_ids == b.element_ids
        assert abs(a.score - b.score) <= 1e-9

    # Standing-query state survived (service backends only).
    if config.backend == "service":
        ours, theirs = resumed.results(), uninterrupted.results()
        assert ours.keys() == theirs.keys()
        for query_id in theirs:
            assert ours[query_id].result.element_ids == theirs[query_id].result.element_ids
            assert abs(ours[query_id].result.score - theirs[query_id].result.score) <= 1e-9
            assert ours[query_id].evaluations == theirs[query_id].evaluations
        # The TTL query was registered before the checkpoint and must keep
        # its countdown across the restore.
        service = resumed.service_engine
        assert "short-lived" not in service.registry

    uninterrupted.close()
    resumed.close()


def as_written_before_pr22(path, strategy="hash"):
    """Lay a sharded checkpoint out as the parent commit did: the partitioner
    in the manifest, the ownership table and the strategy in the planner."""
    manifest = json.loads((path / "MANIFEST.json").read_text())
    manifest["config"]["cluster"]["partitioner"] = strategy
    (path / "MANIFEST.json").write_text(json.dumps(manifest))
    state = json.loads((path / "state.json").read_text())
    coordinator = state.get("coordinator") or state["service"]["backend"]
    assert coordinator["planner"].keys() - {"strategy", "strategy_state", "owners", "last_activity"} == {"num_shards"}
    coordinator["planner"].update(
        strategy=strategy, strategy_state={},
        owners=[[0, 0], [1, 1]], last_activity=[[0, 3], [1, 3]],
    )
    (path / "state.json").write_text(json.dumps(state))


@pytest.mark.parametrize("name", ["sharded", "service-sharded"])
def test_sharded_checkpoint_written_before_pr22(name, tmp_path):
    """New sharded checkpoints carry no owner lists; one the parent wrote
    under ``hash`` loads with its lists ignored and answers identically, one
    written under a retired partitioner is refused, saying why."""
    model, elements = build_stream(seed=31)
    query = KSIRQuery(k=4, vector=np.array([0.5, 0.5, 0.0, 0.0]))
    engine = make_engine(model, CONFIGS[name], query)
    for members, end_time in buckets_of(elements)[: NUM_BUCKETS // 2]:
        engine.ingest_bucket(members, end_time)
    path = engine.save(tmp_path / "ckpt")
    assert '"owners"' not in (path / "state.json").read_text()
    as_written_before_pr22(path)
    with KSIREngine.load(path) as resumed:
        assert resumed.config == CONFIGS[name]
        for members, end_time in buckets_of(elements)[NUM_BUCKETS // 2 :]:
            for side in (engine, resumed):
                side.ingest_bucket(members, end_time)
            for algorithm in ("mttd", "greedy"):
                a = engine.query(query, algorithm=algorithm, epsilon=0.2)
                b = resumed.query(query, algorithm=algorithm, epsilon=0.2)
                assert (a.element_ids, repr(a.score)) == (b.element_ids, repr(b.score))
        assert_ranked_lists_close(ranked_list_states(resumed), ranked_list_states(engine), 0.0)
    engine.close()

    as_written_before_pr22(path, strategy="round-robin")
    with pytest.raises(
        CheckpointError,
        match="partitioned by 'round-robin', which is no longer supported: 'hash' is the only",
    ):
        KSIREngine.load(path)
    # A manifest edited to pass still meets the planner's own record of how
    # the shards were filled.
    manifest = json.loads((path / "MANIFEST.json").read_text())
    del manifest["config"]["cluster"]["partitioner"]
    (path / "MANIFEST.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="partitioned by 'round-robin'.*no longer supported"):
        KSIREngine.load(path)


ALL_ALGORITHMS = ("mtts", "mttd", "celf", "greedy", "sieve", "topk")


def every_answer(engine, query):
    return [
        (r.element_ids, repr(r.score), r.evaluated_elements, sorted(r.extras.items()))
        for r in (engine.query(query, algorithm=a, epsilon=0.2) for a in ALL_ALGORITHMS)
    ]


@pytest.mark.parametrize("name", ["sharded", "sharded-pipe", "service-sharded", "chain"])
def test_checkpoint_written_before_the_replica(name, monkeypatch, tmp_path):
    """Before the coordinator kept a replica, shards exported candidate
    pools: their checkpoints carry export counters in every worker state
    and ``cluster.budget_scale`` in the manifest.  Such a checkpoint — a
    directory, or a delta chain whose full and delta segments both carry
    the counters — loads with both ignored and answers every later bucket,
    all six algorithms, as the engine it was taken from."""
    config = CONFIGS["sharded" if name == "chain" else name.replace("-pipe", "")]
    if name == "sharded-pipe":
        config = EngineConfig(
            backend="sharded", processor=PROCESSOR,
            cluster=ClusterConfig(num_shards=2, transport="pipe"),
        )
    model, elements = build_stream(seed=37)
    buckets = buckets_of(elements)
    query = KSIRQuery(k=4, vector=np.array([0.4, 0.3, 0.3, 0.0]))
    written = ShardWorker.state_dict

    def with_export_counters(worker):
        processed = worker.processor.buckets_processed
        return {**written(worker), "exports": processed, "exported_candidates": 40 * processed}

    # Patched before the engine forks its shard processes.
    monkeypatch.setattr(ShardWorker, "state_dict", with_export_counters)
    engine = make_engine(model, config, query)
    half = NUM_BUCKETS // 2
    for position, (members, end_time) in enumerate(buckets[:half]):
        engine.ingest_bucket(members, end_time)
        if name == "chain" and position in (half - 3, half - 1):
            CheckpointChain(tmp_path / "ckpt").save(engine)
    path = tmp_path / "ckpt"
    if name != "chain":
        engine.save(path)
    monkeypatch.undo()
    assert '"exported_candidates"' in "".join(
        state.read_text() for state in path.rglob("*.json")
    )
    for manifest_path in path.rglob("MANIFEST.json"):
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["cluster"]["budget_scale"] = 1.0
        manifest_path.write_text(json.dumps(manifest))

    with engine, KSIREngine.load(path) as resumed:
        assert resumed.config == config
        assert every_answer(resumed, query) == every_answer(engine, query)
        for members, end_time in buckets[half:]:
            for side in (engine, resumed):
                side.ingest_bucket(members, end_time)
            assert every_answer(resumed, query) == every_answer(engine, query)
        if config.backend == "service":
            assert {q: r.result.element_ids for q, r in resumed.results().items()} == {
                q: r.result.element_ids for q, r in engine.results().items()
            }


def test_checkpoint_is_versioned_on_disk(tmp_path):
    model, elements = build_stream(seed=5)
    engine = KSIREngine(model, CONFIGS["local"])
    for members, end_time in buckets_of(elements)[:4]:
        engine.ingest_bucket(members, end_time)
    path = engine.save(tmp_path / "ckpt")
    manifest = json.loads((path / "MANIFEST.json").read_text())
    assert manifest["format"] == CHECKPOINT_FORMAT
    assert manifest["version"] == CHECKPOINT_VERSION
    assert manifest["backend"] == "local"
    # The columnar default emits its numeric state as the npz member.
    assert (path / "state_arrays.npz").exists()
    payload = read_checkpoint(path)
    assert payload.config == CONFIGS["local"]


def test_missing_checkpoint_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="not a k-SIR checkpoint"):
        read_checkpoint(tmp_path / "nowhere")


def test_foreign_format_rejected(tmp_path):
    directory = tmp_path / "ckpt"
    directory.mkdir()
    (directory / "MANIFEST.json").write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(CheckpointError, match="format marker"):
        read_checkpoint(directory)


def test_corrupt_state_file_rejected(tmp_path):
    model, elements = build_stream(seed=5)
    engine = KSIREngine(model, CONFIGS["local"])
    members, end_time = buckets_of(elements)[0]
    engine.ingest_bucket(members, end_time)
    path = engine.save(tmp_path / "ckpt")
    # A torn write mid-state.json must fail validation, not half-restore.
    (path / "state.json").write_text('{"processor": {"elements')
    with pytest.raises(CheckpointError, match="corrupt"):
        KSIREngine.load(path)


def test_missing_arrays_member_rejected(tmp_path):
    model, elements = build_stream(seed=5)
    engine = KSIREngine(model, CONFIGS["local"])
    members, end_time = buckets_of(elements)[0]
    engine.ingest_bucket(members, end_time)
    path = engine.save(tmp_path / "ckpt")
    # A partial copy that dropped the npz member must fail loudly at read
    # time, not with a KeyError deep inside a restore_state.
    (path / "state_arrays.npz").unlink()
    with pytest.raises(CheckpointError, match="missing state_arrays.npz"):
        read_checkpoint(path)


def test_corrupt_arrays_member_rejected(tmp_path):
    model, elements = build_stream(seed=5)
    engine = KSIREngine(model, CONFIGS["local"])
    members, end_time = buckets_of(elements)[0]
    engine.ingest_bucket(members, end_time)
    path = engine.save(tmp_path / "ckpt")
    victim = path / "state_arrays.npz"
    # A torn copy: the zip container is cut in half.
    victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])
    with pytest.raises(CheckpointError, match="corrupt"):
        read_checkpoint(path)


def _shift_tail(indptr):
    """Every segment after the first starts 3 entries later: the last runs past the end."""
    shifted = indptr.copy()
    shifted[1:] += 3
    return shifted


def _swap_first_two(indptr):
    swapped = indptr.copy()
    swapped[1], swapped[2] = indptr[2], indptr[1]
    return swapped


#: ``(npz member suffix, corruption, key the error names)``: each one used to
#: load without a word and leave elements with tuples or followers missing.
CSR_CORRUPTIONS = {
    "ranked-indptr-past-the-end": ("/ranked_lists/entries/indptr", _shift_tail, "'topics'"),
    "ranked-scores-short": ("/ranked_lists/entries/scores", lambda a: a[:-2], "'scores'"),
    "ranked-ids-short": ("/ranked_lists/entries/ids", lambda a: a[:-1], "'ids'"),
    "ranked-indptr-decreasing": ("/ranked_lists/entries/indptr", _swap_first_two, "'indptr'"),
    "followers-indptr-past-the-end": ("/window/followers/indptr", _shift_tail, "'followers'"),
    "followers-parents-short": ("/window/followers/parents", lambda a: a[:-1], "'parents'"),
}


@pytest.mark.parametrize("corruption", sorted(CSR_CORRUPTIONS))
def test_corrupt_csr_member_fails_loudly(corruption, tmp_path):
    """A hand-corrupted CSR array in a well-formed ``.npz`` fails the load
    naming the key; it must not restore with tuples or followers missing."""
    suffix, corrupt, key = CSR_CORRUPTIONS[corruption]
    model, elements = build_stream(seed=5)
    with KSIREngine(model, CONFIGS["local"]) as engine:
        for members, end_time in buckets_of(elements)[:6]:
            engine.ingest_bucket(members, end_time)
        path = engine.save(tmp_path / "ckpt")
    victim = path / "state_arrays.npz"
    with np.load(victim) as arrays:
        members = {name: arrays[name] for name in arrays.files}
    (name,) = [name for name in members if name.endswith(suffix)]
    members[name] = corrupt(members[name])
    np.savez(victim, **members)
    with pytest.raises((CheckpointError, ValueError), match=key):
        KSIREngine.load(path)


def test_decoders_raise_rather_than_assert():
    """Input checks survive ``python -O``: they raise, they do not assert."""
    from repro.store.codec import decode_id_list, decode_pairs, decode_ranked_entries

    with pytest.raises(ValueError, match="id list"):
        decode_id_list("0,1,2")
    with pytest.raises(ValueError, match="pairs"):
        decode_pairs(np.arange(6))
    with pytest.raises(ValueError, match="mapping"):
        list(decode_ranked_entries([0, 1]))


def test_overwrite_invalidates_before_rewriting(tmp_path):
    model, elements = build_stream(seed=5)
    engine = KSIREngine(model, CONFIGS["local"])
    buckets = buckets_of(elements)
    engine.ingest_bucket(*buckets[0])
    path = engine.save(tmp_path / "ckpt")
    engine.ingest_bucket(*buckets[1])
    again = engine.save(tmp_path / "ckpt")  # overwrite in place
    assert again == path
    restored = KSIREngine.load(path)
    assert restored.buckets_processed == 2


def test_newer_version_rejected(tmp_path):
    model, elements = build_stream(seed=5)
    engine = KSIREngine(model, CONFIGS["local"])
    members, end_time = buckets_of(elements)[0]
    engine.ingest_bucket(members, end_time)
    path = engine.save(tmp_path / "ckpt")
    manifest = json.loads((path / "MANIFEST.json").read_text())
    manifest["version"] = 99
    (path / "MANIFEST.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="version 99"):
        KSIREngine.load(path)


def test_backend_mismatch_rejected(tmp_path):
    model, elements = build_stream(seed=5)
    engine = KSIREngine(model, CONFIGS["local"])
    members, end_time = buckets_of(elements)[0]
    engine.ingest_bucket(members, end_time)
    path = engine.save(tmp_path / "ckpt")
    with pytest.raises(CheckpointError, match="backend"):
        KSIREngine.load(path, config=CONFIGS["sharded"])


PIPE_SHARDS = EngineConfig(
    backend="sharded",
    processor=PROCESSOR,
    cluster=ClusterConfig(num_shards=2, transport="pipe"),
)


def live_shard_processes():
    return [
        child.name
        for child in multiprocessing.active_children()
        if child.name.startswith("ksir-shard-")
    ]


def test_failed_load_closes_the_engine_it_built(tmp_path):
    """A rejected load leaves no shard process behind."""
    model, elements = build_stream(seed=5)
    members, end_time = buckets_of(elements)[0]
    with KSIREngine(model, CONFIGS["local"]) as engine:
        engine.ingest_bucket(members, end_time)
        path = engine.save(tmp_path / "local")
    assert live_shard_processes() == []
    with pytest.raises(CheckpointError, match="backend"):
        KSIREngine.load(path, config=PIPE_SHARDS)
    assert live_shard_processes() == []


def test_failed_restore_closes_the_engine_it_built(tmp_path):
    """The same when restore_state itself raises on a truncated state."""
    model, elements = build_stream(seed=5)
    members, end_time = buckets_of(elements)[0]
    with KSIREngine(model, PIPE_SHARDS) as engine:
        engine.ingest_bucket(members, end_time)
        path = engine.save(tmp_path / "sharded")
    state_file = path / "state.json"
    state = json.loads(state_file.read_text())
    state["coordinator"] = {"buckets_processed": 1}
    state_file.write_text(json.dumps(state))
    assert live_shard_processes() == []
    with pytest.raises(KeyError):
        KSIREngine.load(path)
    assert live_shard_processes() == []


def test_window_length_mismatch_rejected(tmp_path):
    model, elements = build_stream(seed=5)
    engine = KSIREngine(model, CONFIGS["local"])
    members, end_time = buckets_of(elements)[0]
    engine.ingest_bucket(members, end_time)
    path = engine.save(tmp_path / "ckpt")
    from dataclasses import replace

    smaller = EngineConfig(
        processor=replace(PROCESSOR, window_length=NUM_BUCKETS * 4)
    )
    with pytest.raises(ValueError, match="window_length"):
        KSIREngine.load(path, config=smaller)


def test_process_fanout_checkpoint_round_trip(tmp_path):
    """Checkpointing round-trips through the worker processes (PR-4 limitation lifted)."""
    model, elements = build_stream(seed=5)
    buckets = buckets_of(elements)
    config = EngineConfig(
        backend="sharded",
        processor=PROCESSOR,
        cluster=ClusterConfig(num_shards=2, transport="pipe"),
    )
    query = KSIRQuery(k=4, vector=np.array([0.5, 0.5, 0.0, 0.0]))

    uninterrupted = KSIREngine(model, config)
    first = KSIREngine(model, config)
    try:
        for members, end_time in buckets:
            uninterrupted.ingest_bucket(members, end_time)
        for members, end_time in buckets[: NUM_BUCKETS // 2]:
            first.ingest_bucket(members, end_time)
        path = first.save(tmp_path / "ckpt")
    finally:
        first.close()

    resumed = KSIREngine.load(path)
    try:
        assert resumed.buckets_processed == NUM_BUCKETS // 2
        for members, end_time in buckets[NUM_BUCKETS // 2 :]:
            resumed.ingest_bucket(members, end_time)
        assert resumed.elements_processed == uninterrupted.elements_processed
        assert resumed.active_count == uninterrupted.active_count
        assert resumed.current_time == uninterrupted.current_time
        for algorithm in ("mttd", "greedy"):
            a = uninterrupted.query(query, algorithm=algorithm, epsilon=0.2)
            b = resumed.query(query, algorithm=algorithm, epsilon=0.2)
            assert a.element_ids == b.element_ids
            assert abs(a.score - b.score) <= 1e-9
    finally:
        uninterrupted.close()
        resumed.close()
