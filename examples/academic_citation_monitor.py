#!/usr/bin/env python3
"""Academic citation monitor: k-SIR over a citation stream with a trained LDA.

The paper's AMiner experiment treats academic papers as social elements whose
references are citations.  This example reproduces that setting end to end —
including the part the other examples skip: it *trains* the topic model from
the corpus with the library's own collapsed-Gibbs LDA instead of using the
generator's ground-truth oracle, then infers topic vectors for every paper at
ingestion time, exactly like a deployment that starts from raw text would.

Pipeline:

1. generate an AMiner-like stream (long documents, dense citations);
2. train LDA on a prefix of the corpus (the paper retrains periodically and
   otherwise treats the model as stable);
3. replay the stream with topic inference enabled;
4. answer "literature survey" queries: for a research-area keyword set,
   retrieve the k papers that best cover the area and are highly cited within
   the recent window — and show who cites them.

Run with:  python examples/academic_citation_monitor.py
"""

from __future__ import annotations

from repro import (
    EngineConfig,
    KSIREngine,
    ProcessorConfig,
    ScoringConfig,
    SyntheticStreamGenerator,
    TopicInferencer,
)
from repro.core.element import SocialElement
from repro.core.stream import SocialStream


def strip_ground_truth(elements) -> SocialStream:
    """Drop the generator's ground-truth topic vectors (we infer our own)."""
    stripped = [
        SocialElement(
            element_id=element.element_id,
            timestamp=element.timestamp,
            tokens=element.tokens,
            references=element.references,
            author=element.author,
        )
        for element in elements
    ]
    return SocialStream(stripped)


def main() -> None:
    print("=== 1. Generating an AMiner-like citation stream ===")
    dataset = SyntheticStreamGenerator.from_profile("aminer-small", seed=11).generate()
    stats = dataset.statistics()
    print(
        f"    {int(stats['num_elements'])} papers, avg {stats['average_length']:.1f} words, "
        f"avg {stats['average_references']:.2f} citations per paper"
    )

    print("\n=== 2. Training LDA on a corpus prefix (collapsed Gibbs) ===")
    num_topics = 12
    # Train on a prefix of the corpus — the paper likewise trains the topic
    # model offline and treats it as stable while the stream flows.
    from repro.topics.lda import LatentDirichletAllocation
    from repro.topics.vocabulary import Vocabulary

    prefix = [list(element.tokens) for element in dataset.stream.elements[:1200]]
    vocabulary = Vocabulary.from_documents(prefix).pruned(min_document_frequency=2)
    model = LatentDirichletAllocation(
        vocabulary, num_topics, iterations=25, burn_in=8, seed=11
    )
    model.fit(prefix)
    print(f"    trained {num_topics} topics on {len(prefix)} papers; a few of them:")
    for topic in range(3):
        print(f"      topic {topic}: " + ", ".join(model.top_words(topic, 6)))

    print("\n=== 3. Replaying the citation stream with topic inference ===")
    config = ProcessorConfig(
        window_length=36 * 3600,
        bucket_length=3600,
        scoring=ScoringConfig(lambda_weight=0.5, eta=4.0),
    )
    inferencer = TopicInferencer(model, alpha=0.05, sparsity_threshold=0.05)
    engine = KSIREngine(model, EngineConfig(processor=config), inferencer=inferencer)
    engine.process_stream(strip_ground_truth(dataset.stream))
    processor = engine.processor  # window internals, for display
    assert processor is not None
    print(
        f"    {processor.active_count} active papers in the last "
        f"{config.window_length // 3600}h window"
    )

    print("\n=== 4. Literature-survey queries ===")
    # Build one survey query per discovered research area: the keywords are
    # the area's top LDA words (what a user would type for that area).
    surveys = {
        f"area #{topic} ({', '.join(model.top_words(topic, 2))})": model.top_words(topic, 4)
        for topic in (0, 1)
    }
    for survey_name, keywords in surveys.items():
        result = engine.query_keywords(keywords, k=5, algorithm="mttd", epsilon=0.1)
        print(
            f"\n  Survey '{survey_name}' (keywords: {', '.join(keywords)}) — "
            f"score {result.score:.3f}, {result.elapsed_ms:.1f} ms"
        )
        for element in processor.result_elements(result):
            citers = processor.window.followers_of(element.element_id)
            title = " ".join(element.tokens[:9])
            print(f"      paper e{element.element_id}: {title}…")
            if citers:
                cited_by = ", ".join(f"e{citer}" for citer in citers[:5])
                suffix = "…" if len(citers) > 5 else ""
                print(f"          cited in-window by: {cited_by}{suffix}")

    print(
        "\nEach survey answer balances covering the area's vocabulary (semantic "
        "score) with picking papers that recent work actually cites (influence "
        "score), which is the k-SIR objective of Eq. 1–2 in the paper."
    )


if __name__ == "__main__":
    main()
