#!/usr/bin/env python3
"""Sharded serving through the unified facade: one engine, N shards.

This example walks the ``repro.api`` facade across every execution
backend:

1. the same :class:`repro.KSIREngine` replays a stream on the ``local``
   and the ``sharded`` backends — switching is one field in
   :class:`repro.EngineConfig`; an element's home shard is a hash of its
   id (``repro.cluster.shard_of``), so the shards need no routing state;
2. an ad-hoc k-SIR query is answered on the sharded engine — from the
   coordinator's replica of the shards' scoring records, synced once per
   bucket — and checked against the local engine, element for element;
3. the ``service`` backend runs standing queries over the same shard
   partitions, transparently;
4. the sharded engine is checkpointed mid-stream with ``engine.save`` and
   resumed with ``KSIREngine.load`` — the warm-restarted engine finishes
   the stream and answers exactly like the uninterrupted one;
5. ``verify_equivalence`` proves the sharding transparency contract on
   this dataset.

Run with:  python examples/sharded_serving.py
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

from repro import (
    ClusterConfig,
    EngineConfig,
    KSIREngine,
    ProcessorConfig,
    ScoringConfig,
    SyntheticStreamGenerator,
    verify_equivalence,
)
from repro.datasets.profiles import get_profile

PROFILE = replace(
    get_profile("tiny"),
    name="sharded-demo",
    num_elements=800,
    vocabulary_size=1_000,
    num_topics=32,
    duration=12 * 3600,
)

NUM_SHARDS = 4

CONFIG = EngineConfig(
    backend="sharded",
    processor=ProcessorConfig(
        window_length=4 * 3600,
        bucket_length=900,
        scoring=ScoringConfig(lambda_weight=0.5, eta=1.0),
    ),
    cluster=ClusterConfig(num_shards=NUM_SHARDS),
)


def main() -> None:
    dataset = SyntheticStreamGenerator(PROFILE, seed=23).generate()

    # -- 1. one engine, two backends ----------------------------------------------
    sharded = KSIREngine(dataset.topic_model, CONFIG)
    sharded.process_stream(dataset.stream)
    print(
        f"ingested {sharded.elements_processed} elements across "
        f"{CONFIG.cluster.num_shards} shards; {sharded.active_count} active"
    )
    for stat in sharded.stats()["shards"]:
        print(
            f"  shard {stat['shard_id']}: {stat['home_elements']} home + "
            f"{stat['foreign_elements']} foreign replicas, "
            f"{stat['active_home']} active home elements"
        )

    local = KSIREngine(dataset.topic_model, CONFIG.with_backend("local"))
    local.process_stream(dataset.stream)

    # -- 2. sharded query, checked against the local engine ------------------------
    query = dataset.make_query(k=5, keywords=["goal", "league", "champions"])
    answer = sharded.query(query, algorithm="mttd", epsilon=0.1)
    reference = local.query(query, algorithm="mttd", epsilon=0.1)
    print(f"\nsharded: {answer.summary()}")
    print(
        f"  {answer.evaluated_elements} of the {answer.active_elements} active "
        f"elements of {answer.extras['shards']:.0f} shards evaluated"
    )
    assert set(answer.element_ids) == set(reference.element_ids)
    assert abs(answer.score - reference.score) <= 1e-9
    print("  matches the local answer exactly.")
    local.close()

    # -- 3. standing queries over the shards, same facade -------------------------
    with KSIREngine(dataset.topic_model, CONFIG.with_backend("service")) as serving:
        for topic in range(0, 12, 2):
            serving.register(dataset.make_query(k=4, topic=topic), algorithm="mttd")
        serving.process_stream(dataset.stream)
        print(f"\n{serving.report()}")

    # -- 4. checkpoint mid-stream, restore, finish --------------------------------
    buckets = list(dataset.stream.buckets(CONFIG.processor.bucket_length))
    half = len(buckets) // 2
    partial = KSIREngine(dataset.topic_model, CONFIG)
    for bucket in buckets[:half]:
        partial.ingest_bucket(bucket.elements, bucket.end_time)
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = partial.save(Path(tmp) / "ksir-checkpoint")
        partial.close()
        resumed = KSIREngine.load(checkpoint)
        for bucket in buckets[half:]:
            resumed.ingest_bucket(bucket.elements, bucket.end_time)
        warm = resumed.query(query, algorithm="mttd", epsilon=0.1)
        assert set(warm.element_ids) == set(answer.element_ids)
        assert abs(warm.score - answer.score) <= 1e-9
        print(
            f"\ncheckpointed at bucket {half}, resumed, finished the stream: "
            "warm-restart answer matches the uninterrupted run."
        )
        resumed.close()

    # -- 5. the transparency contract, verified -----------------------------------
    report = verify_equivalence(
        dataset.stream,
        dataset.topic_model,
        queries=[dataset.make_query(k=4, topic=topic) for topic in range(3)],
        config=CONFIG.processor,
        cluster=ClusterConfig(num_shards=NUM_SHARDS),
        algorithms=("mttd", "greedy"),
    )
    print(f"\n{report.summary()}")
    assert report.matched

    sharded.close()


if __name__ == "__main__":
    main()
