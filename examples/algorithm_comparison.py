#!/usr/bin/env python3
"""Algorithm comparison: quality / latency / pruning trade-offs on one window.

The paper's Section 5.3 compares CELF, SieveStreaming, Top-k Representative,
MTTS and MTTD.  This example runs all five on the same snapshot and the same
query workload and prints a compact comparison table — a miniature version of
Figures 9–11 that finishes in a few seconds, handy for sanity-checking the
implementation or for demonstrating the trade-offs in a talk.

Run with:  python examples/algorithm_comparison.py
"""

from __future__ import annotations

import numpy as np

from repro import ProcessorConfig, ScoringConfig
from repro.evaluation.workload import WorkloadGenerator
from repro.experiments.reporting import render_table
from repro.experiments.runner import EfficiencyExperiment, prepare_processor

ALGORITHMS = ("celf", "sieve", "topk", "mtts", "mttd")
NUM_QUERIES = 8
K = 10
EPSILON = 0.1


def main() -> None:
    print("=== Preparing the twitter-small window (cached across runs) ===")
    dataset, processor = prepare_processor(
        "twitter-small",
        seed=2019,
        window_length=24 * 3600,
        bucket_length=15 * 60,
        lambda_weight=0.5,
        eta=1.5,
        replay_fraction=0.75,
    )
    print(f"    {processor.active_count} active elements at query time")

    experiment = EfficiencyExperiment(dataset, processor, seed=2019)
    workload = experiment.make_workload(NUM_QUERIES, k=K)
    print(f"    workload: {NUM_QUERIES} keyword queries, k = {K}, ε = {EPSILON}")

    print("\n=== Running all five algorithms on the same workload ===")
    runs = experiment.run(ALGORITHMS, workload, epsilon=EPSILON, k=K)

    celf_score = runs["celf"].mean_score
    rows = []
    for name in ALGORITHMS:
        run = runs[name]
        rows.append(
            [
                name,
                run.median_time_ms,
                run.mean_score,
                (run.mean_score / celf_score) if celf_score > 0 else 0.0,
                run.mean_evaluation_ratio,
            ]
        )
    print()
    print(
        render_table(
            ["algorithm", "time (ms)", "score", "quality vs CELF", "evaluated fraction"],
            rows,
            title="Algorithm comparison (median time, mean score and ratio over the workload)",
            precision=4,
        )
    )

    speedup_celf = runs["celf"].median_time_ms / max(runs["mttd"].median_time_ms, 1e-9)
    speedup_sieve = runs["sieve"].median_time_ms / max(runs["mttd"].median_time_ms, 1e-9)
    print(
        f"\nMTTD is {speedup_celf:.1f}x faster than CELF and {speedup_sieve:.1f}x faster "
        f"than SieveStreaming on this window while keeping "
        f"{100 * runs['mttd'].mean_score / celf_score:.1f}% of CELF's quality."
    )
    print(
        "Top-k Representative is the fastest but its quality degrades because it "
        "ignores word and influence overlaps — the effect grows with k (Figure 11)."
    )

    # A tiny ε sweep to show the MTTS/MTTD sensitivity difference (Figure 7/8).
    print("\n=== ε sensitivity (median time in ms / quality vs CELF) ===")
    sweep_rows = []
    for epsilon in (0.1, 0.3, 0.5):
        sweep = experiment.run(("mtts", "mttd"), workload, epsilon=epsilon, k=K)
        sweep_rows.append(
            [
                epsilon,
                sweep["mtts"].median_time_ms,
                sweep["mtts"].mean_score / celf_score,
                sweep["mttd"].median_time_ms,
                sweep["mttd"].mean_score / celf_score,
            ]
        )
    print(
        render_table(
            ["epsilon", "MTTS ms", "MTTS quality", "MTTD ms", "MTTD quality"],
            sweep_rows,
            precision=4,
        )
    )
    best = max(ALGORITHMS, key=lambda name: runs[name].mean_score)
    assert best in ("celf", "mttd", "mtts"), "unexpected quality ordering"
    print("\nDone.")


if __name__ == "__main__":
    np.set_printoptions(precision=3, suppress=True)
    main()
