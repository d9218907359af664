#!/usr/bin/env python3
"""Breaking-news dashboard: continuous k-SIR queries over a live window.

This example mimics the paper's motivating scenario — a dashboard that keeps
showing the most *representative* recent posts for a handful of standing
topics while the stream flows.  Every simulated "hour" the dashboard:

* ingests the new bucket of posts (window slide + ranked-list maintenance);
* re-runs one standing k-SIR query per tracked topic with MTTD;
* prints the refreshed panel, showing how trending content replaces stale
  content as the sliding window moves.

It also contrasts the k-SIR panel against a plain top-k relevance panel
(the paper's REL baseline) for one of the topics, illustrating the coverage
and influence difference that motivates the k-SIR query.

Run with:  python examples/breaking_news_dashboard.py
"""

from __future__ import annotations

from typing import Dict, List

from repro import (
    EngineConfig,
    KSIREngine,
    KSIRProcessor,
    ProcessorConfig,
    ScoringConfig,
    SyntheticStreamGenerator,
)
from repro.evaluation.metrics import coverage_score, influence_score
from repro.search.base import SearchRequest
from repro.search.relevance import TopicRelevanceSearch

#: Topics the dashboard tracks (indices into the generated topic model).
TRACKED_TOPICS = (0, 1, 2)
#: Number of posts shown per panel.
PANEL_SIZE = 4
#: How often the dashboard refreshes, in stream seconds (1 simulated hour).
REFRESH_INTERVAL = 3600


def refresh_panel(
    processor: KSIRProcessor, dataset, topic: int
) -> Dict[str, object]:
    """Run the standing query of one topic and collect the panel rows."""
    query = dataset.make_query(k=PANEL_SIZE, topic=topic)
    result = processor.query(query, algorithm="mttd", epsilon=0.1)
    rows: List[str] = []
    for element in processor.result_elements(result):
        followers = processor.window.follower_count(element.element_id)
        rows.append(f"e{element.element_id} ({followers} refs): " + " ".join(element.tokens[:7]))
    return {"query": query, "result": result, "rows": rows}


def main() -> None:
    print("=== Breaking-news dashboard over a Reddit-like stream ===\n")
    dataset = SyntheticStreamGenerator.from_profile("reddit-small", seed=7).generate()
    config = ProcessorConfig(
        window_length=12 * 3600,
        bucket_length=REFRESH_INTERVAL,
        scoring=ScoringConfig(lambda_weight=0.5, eta=2.0),
    )
    engine = KSIREngine(dataset.topic_model, EngineConfig(processor=config))
    # The dashboard reads window internals for display; they live one layer
    # below the facade, on the local engine's processor.
    processor = engine.processor
    assert processor is not None
    topic_names = {topic: dataset.topic_names[topic] for topic in TRACKED_TOPICS}
    print("Tracked topics: " + ", ".join(f"{t} ({name})" for t, name in topic_names.items()))

    refreshes = 0
    for bucket in dataset.stream.buckets(config.bucket_length):
        engine.ingest_bucket(bucket.elements, bucket.end_time)
        if processor.active_count == 0:
            continue
        refreshes += 1
        # Print the dashboard only every 8 hours to keep the output short.
        if refreshes % 8 != 0:
            continue
        hour = (bucket.end_time - dataset.stream.start_time) / 3600.0
        print(f"\n----- dashboard refresh at stream hour {hour:5.1f} "
              f"({processor.active_count} active posts) -----")
        for topic in TRACKED_TOPICS:
            panel = refresh_panel(processor, dataset, topic)
            result = panel["result"]
            print(
                f"  [{topic_names[topic]}] score={result.score:.3f} "
                f"answered in {result.elapsed_ms:.1f} ms "
                f"(evaluated {result.evaluated_elements}/{result.active_elements} posts)"
            )
            for row in panel["rows"]:
                print(f"      {row}")

    # ------------------------------------------------------------------ contrast
    print("\n=== k-SIR panel vs plain topic-relevance panel (final window) ===")
    topic = TRACKED_TOPICS[0]
    query = dataset.make_query(k=PANEL_SIZE, topic=topic)
    candidates = list(processor.window.active_elements())
    window_elements = [processor.window.get(eid) for eid in processor.window.window_ids()]

    ksir_result = processor.query(query, algorithm="mttd")
    ksir_elements = list(processor.result_elements(ksir_result))

    rel_ids = TopicRelevanceSearch().search(
        SearchRequest(
            elements=candidates, keywords=query.keywords,
            query_vector=query.vector, k=PANEL_SIZE,
        )
    )
    by_id = {element.element_id: element for element in candidates}
    rel_elements = [by_id[eid] for eid in rel_ids]

    for label, selected, ids in (
        ("k-SIR (MTTD)", ksir_elements, ksir_result.element_ids),
        ("top-k relevance (REL)", rel_elements, rel_ids),
    ):
        coverage = coverage_score(selected, candidates, query.vector)
        influence = influence_score(ids, window_elements, k=PANEL_SIZE)
        print(f"\n  {label}: coverage={coverage:.3f} influence={influence:.3f}")
        for element in selected:
            print(f"      e{element.element_id}: " + " ".join(element.tokens[:7]))

    print(
        "\nThe k-SIR panel covers more distinct aspects of the topic and picks "
        "posts that were actually referenced inside the window, which is exactly "
        "the effect the paper's Table 6 quantifies."
    )


if __name__ == "__main__":
    main()
