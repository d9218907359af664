#!/usr/bin/env python3
"""Standing-query serving: many users, one shared window, incremental upkeep.

This example drives the ``repro.service`` engine the way a deployment would:
a population of users registers standing k-SIR queries (topic monitors with
different algorithms, ε values and TTLs), the social stream is replayed
bucket by bucket, and the engine keeps every standing result current while
re-evaluating only the queries whose topic support actually changed.

Along the way it shows:

* per-query options — a fast MTTD monitor, a quality-focused CELF monitor
  and a short-lived TTL query that ages out of the registry;
* staleness metadata — cached results report how many buckets ago they were
  computed (0 = fresh, >0 = provably unaffected since);
* the service metrics report — p50/p99 evaluation latency, sustained
  pairs/sec, the result-cache hit rate and the re-eval ratio.

Run with:  python examples/standing_queries_service.py
"""

from __future__ import annotations

from dataclasses import replace

from repro import (
    EngineConfig,
    KSIREngine,
    ProcessorConfig,
    ScoringConfig,
    SyntheticStreamGenerator,
)
from repro.datasets.profiles import get_profile

#: A medium-sized stream with enough topics that most buckets leave most
#: standing queries untouched (the incremental regime).
PROFILE = replace(
    get_profile("tiny"),
    name="service-demo",
    num_elements=900,
    vocabulary_size=1_000,
    num_topics=48,
    duration=12 * 3600,
)

#: One standing topic monitor per user; users 0..NUM_MONITORS-1 watch the
#: topics in rotation.
NUM_MONITORS = 30


def main() -> None:
    dataset = SyntheticStreamGenerator(PROFILE, seed=11).generate()
    config = EngineConfig(
        backend="service",
        processor=ProcessorConfig(
            window_length=4 * 3600,
            bucket_length=900,
            scoring=ScoringConfig(lambda_weight=0.5, eta=1.0),
        ),
    )

    with KSIREngine(dataset.topic_model, config) as engine:
        # A population of topic monitors with mixed per-query options.
        for user in range(NUM_MONITORS):
            topic = user % PROFILE.num_topics
            if user % 3 == 0:
                engine.register(
                    dataset.make_query(k=4, topic=topic),
                    query_id=f"celf-user{user}",
                    algorithm="celf",
                )
            else:
                engine.register(
                    dataset.make_query(k=4, topic=topic),
                    query_id=f"mttd-user{user}",
                    algorithm="mttd",
                    epsilon=0.1,
                )
        # A breaking-story watch that expires after two simulated hours.
        engine.register(
            dataset.make_query(k=3, keywords=["goal", "league", "champions"]),
            query_id="breaking-soccer",
            ttl_buckets=8,
        )

        engine.process_stream(dataset.stream)

        print(engine.report())
        print()
        print("sample standing results (freshest first):")
        ordered = sorted(
            engine.results().items(), key=lambda item: item[1].staleness_buckets
        )
        for query_id, standing_result in ordered[:6]:
            result = standing_result.result
            print(
                f"  {query_id:<14} |S|={len(result)} score={result.score:.3f} "
                f"algorithm={result.algorithm} stale={standing_result.staleness_buckets} "
                f"buckets (evaluated {standing_result.evaluations}x)"
            )
        registry = engine.service_engine.registry
        assert "breaking-soccer" not in registry, "TTL query should have aged out"
        print("\nbreaking-soccer aged out of the registry after its TTL, as configured.")


if __name__ == "__main__":
    main()
