#!/usr/bin/env python3
"""Checkpoint/restore walkthrough: warm-restart a k-SIR engine mid-stream.

The streaming model of the paper implies long-lived engines: the sliding
window, the per-topic ranked lists and (when serving) the standing-query
state accumulate over hours of stream time, so losing the process means
re-ingesting a whole window of history.  ``KSIREngine.save`` persists
the complete execution state to a versioned checkpoint directory and
``KSIREngine.load`` resumes ingest exactly where it stopped, on any
execution backend.

The walkthrough (used as the CI checkpoint smoke test):

1. serve standing queries over half a stream, checkpoint, close;
2. restore from disk into a fresh engine and finish the stream;
3. compare against an uninterrupted run — ranked lists agree within
   1e-9 and the standing results match query for query.

Run with:  python examples/checkpoint_restore.py [checkpoint-dir]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import (
    EngineConfig,
    KSIREngine,
    ProcessorConfig,
    ScoringConfig,
    SyntheticStreamGenerator,
)

CONFIG = EngineConfig(
    backend="service",
    processor=ProcessorConfig(
        window_length=3 * 3600,
        bucket_length=900,
        scoring=ScoringConfig(lambda_weight=0.5, eta=1.0),
    ),
)


def build_engine(dataset) -> KSIREngine:
    engine = KSIREngine(dataset.topic_model, CONFIG)
    for topic in range(4):
        engine.register(dataset.make_query(k=4, topic=topic), algorithm="mttd")
    return engine


def main(checkpoint_dir: Path) -> None:
    dataset = SyntheticStreamGenerator.from_profile("tiny", seed=42).generate()
    buckets = list(dataset.stream.buckets(CONFIG.processor.bucket_length))
    half = len(buckets) // 2

    # -- 1. serve half the stream, checkpoint, shut down --------------------------
    engine = build_engine(dataset)
    for bucket in buckets[:half]:
        engine.ingest_bucket(bucket.elements, bucket.end_time)
    path = engine.save(checkpoint_dir)
    print(
        f"checkpointed after {engine.buckets_processed} buckets "
        f"({engine.active_count} active elements) to {path}"
    )
    engine.close()

    # -- 2. warm restart from disk, finish the stream ------------------------------
    resumed = KSIREngine.load(path)
    print(
        f"restored: backend={resumed.backend_name}, "
        f"{resumed.elements_processed} elements already ingested, "
        f"{len(resumed.results())} standing answers carried over"
    )
    for bucket in buckets[half:]:
        resumed.ingest_bucket(bucket.elements, bucket.end_time)

    # -- 3. compare with an uninterrupted run --------------------------------------
    uninterrupted = build_engine(dataset)
    uninterrupted.process_stream(dataset.stream)

    warm, cold = resumed.results(), uninterrupted.results()
    assert warm.keys() == cold.keys()
    for query_id in cold:
        a, b = warm[query_id].result, cold[query_id].result
        assert a.element_ids == b.element_ids, query_id
        assert abs(a.score - b.score) <= 1e-9, query_id
    query = dataset.make_query(k=5, topic=1)
    a = resumed.query(query, algorithm="mttd", epsilon=0.1)
    b = uninterrupted.query(query, algorithm="mttd", epsilon=0.1)
    assert a.element_ids == b.element_ids
    assert abs(a.score - b.score) <= 1e-9
    print(
        f"warm restart matches the uninterrupted run: "
        f"{len(cold)} standing answers and an ad-hoc query agree "
        f"(score {a.score:.6f})"
    )
    resumed.close()
    uninterrupted.close()


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(Path(sys.argv[1]))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            main(Path(tmp) / "ksir-checkpoint")
