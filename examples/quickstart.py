#!/usr/bin/env python3
"""Quickstart: generate a social stream, replay it, and ask k-SIR queries.

This is the smallest end-to-end tour of the library:

1. generate a synthetic Twitter-like stream (the stand-in for the paper's
   crawls) together with its topic-model oracle;
2. replay the stream through the :class:`repro.KSIREngine` facade, which
   maintains the sliding window, the active set and the per-topic ranked
   lists (the ``local`` execution backend — swap one config field for a
   sharded cluster or a standing-query service);
3. issue a keyword query, which is converted into a query vector over the
   topic space (the paper's query-by-keyword transformation);
4. answer it with MTTD (the paper's best algorithm) and compare against the
   exact-ish CELF baseline and a plain top-k ranking.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    EngineConfig,
    KSIREngine,
    ProcessorConfig,
    ScoringConfig,
    SyntheticStreamGenerator,
)


def main() -> None:
    # ------------------------------------------------------------------ data
    print("=== 1. Generating a synthetic social stream (twitter-small) ===")
    generator = SyntheticStreamGenerator.from_profile("twitter-small", seed=2019)
    dataset = generator.generate()
    stats = dataset.statistics()
    print(
        f"    {int(stats['num_elements'])} elements, "
        f"{int(stats['vocabulary_size'])} distinct words, "
        f"avg length {stats['average_length']:.1f}, "
        f"avg references {stats['average_references']:.2f}, "
        f"{int(stats['num_topics'])} topics"
    )

    # ---------------------------------------------------------------- engine
    print("\n=== 2. Replaying the stream through the k-SIR engine ===")
    config = EngineConfig(
        backend="local",                      # or "sharded" / "service"
        processor=ProcessorConfig(
            window_length=24 * 3600,          # T = 24 hours, the paper's default
            bucket_length=15 * 60,            # L = 15 minutes
            scoring=ScoringConfig(lambda_weight=0.5, eta=1.5),
        ),
    )
    engine = KSIREngine(dataset.topic_model, config)
    engine.process_stream(dataset.stream)
    print(
        f"    processed {engine.elements_processed} elements in "
        f"{engine.buckets_processed} buckets; "
        f"{engine.active_count} active elements in the current window"
    )
    processor = engine.processor  # the layer below the facade
    assert processor is not None  # a local engine runs one processor
    print(
        f"    ranked-list maintenance: "
        f"{processor.update_timer.mean_ms:.3f} ms per element on average"
    )

    # ----------------------------------------------------------------- query
    print("\n=== 3. Asking a k-SIR query by keywords ===")
    keywords = dataset.topical_keywords(topic=0, count=3)
    query = dataset.make_query(k=5, keywords=keywords)
    print(f"    keywords: {', '.join(keywords)}")
    print(f"    inferred query vector (non-zero topics): {query.nonzero_topics}")

    print("\n=== 4. Answering with MTTD, CELF and Top-k Representative ===")
    for algorithm in ("mttd", "celf", "topk"):
        result = engine.query(query, algorithm=algorithm, epsilon=0.1)
        print(f"\n    [{algorithm}] {result.summary()}")
        for element in processor.result_elements(result):
            words = " ".join(element.tokens[:8])
            followers = processor.window.follower_count(element.element_id)
            print(f"        e{element.element_id:<6} ({followers:>3} refs in window)  {words}")

    print(
        "\nDone.  See examples/checkpoint_restore.py for warm restarts and "
        "examples/sharded_serving.py for sharded + standing-query serving."
    )


if __name__ == "__main__":
    main()
