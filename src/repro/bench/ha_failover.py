"""The HA failover benchmark: recovery time and zero-loss replay.

One measured run drives a supervised process-sharded cluster through a
synthetic stream, SIGKILLs one shard worker mid-stream and lets the
supervisor heal it — restart, restore from the newest delta-checkpoint
chain state and replay exactly the WAL gap.  The run records how long the
recovery took, how many buckets the restored shard replayed and how much
smaller the delta segments are than full snapshots; the check asserts the
recovery actually happened, that no element was lost (the recovered
cluster answers a query workload identically to an uninterrupted
single-node run) and that delta checkpoints save space.

The spec (``ha_failover`` in :mod:`repro.bench.suites`) is the perf-gate
guard of :mod:`repro.ha`: a regression in recovery latency or in the
delta encoder's compactness fails the comparison against the committed
baseline.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.api import EngineConfig, KSIREngine
from repro.bench.spec import Outcome
from repro.core.processor import ProcessorConfig
from repro.core.scoring import ScoringConfig
from repro.core.stream import replay_stream
from repro.datasets.synthetic import SyntheticStreamGenerator
from repro.evaluation.workload import WorkloadGenerator

#: Score tolerance of the zero-loss equivalence check (matches the
#: cluster equivalence suite).
_TOLERANCE = 1e-9


def ha_failover_setup(
    params: Mapping[str, Any], seed: int
) -> Callable[[], Outcome]:
    """Build the measured callable of one ``ha_failover`` scenario."""
    from repro.cluster import ClusterConfig

    dataset = SyntheticStreamGenerator.from_profile(
        str(params["profile"]), seed=seed
    ).generate()
    processor = ProcessorConfig(
        window_length=6 * 3600,
        bucket_length=900,
        scoring=ScoringConfig(lambda_weight=0.5, eta=1.0),
    )
    num_shards = int(params["shards"])
    kill_after = int(params["kill_after"])
    kill_shard = num_shards - 1
    num_queries = int(params["queries"])
    sharded_config = EngineConfig(
        backend="sharded",
        processor=processor,
        cluster=ClusterConfig(num_shards=num_shards, transport="pipe"),
    )
    local_config = EngineConfig(processor=processor)
    total_elements = sum(1 for _ in dataset.stream)

    def measured() -> Outcome:
        from repro.ha import ClusterSupervisor, HAConfig
        from repro.ha.chaos import kill_worker

        generator = WorkloadGenerator(dataset, k=5, seed=seed + 17)
        queries = tuple(generator.generate_query() for _ in range(num_queries))

        with KSIREngine(dataset.topic_model, local_config) as reference:
            reference.process_stream(dataset.stream)
            expected = tuple(
                reference.query(query, algorithm="mttd", epsilon=0.1).score
                for query in queries
            )

        with tempfile.TemporaryDirectory() as tmp:
            engine = KSIREngine(dataset.topic_model, sharded_config)
            supervisor = ClusterSupervisor(
                engine,
                ha=HAConfig(checkpoint_every=int(params["checkpoint_every"])),
                checkpoint_dir=Path(tmp) / "chain",
            )
            with supervisor:
                buckets_seen = 0

                def ingest(elements: Any, end_time: int) -> None:
                    nonlocal buckets_seen
                    if buckets_seen == kill_after:
                        kill_worker(supervisor.coordinator, kill_shard)
                    supervisor.ingest_bucket(elements, end_time)
                    buckets_seen += 1

                replay_stream(dataset.stream, processor.bucket_length, ingest)
                worst = max(
                    abs(
                        supervisor.query(
                            query, algorithm="mttd", epsilon=0.1
                        ).score
                        - score
                    )
                    for query, score in zip(queries, expected)
                )
                status = supervisor.status()
                chain_stats = status["chain"] or {}
                stats = {
                    "buckets": buckets_seen,
                    "elements_processed": supervisor.engine.elements_processed,
                    "elements_expected": total_elements,
                    "recoveries": status["recoveries"],
                    "recovery_ms": 1_000.0
                    * float(status["last_recovery_seconds"] or 0.0),
                    "replayed_buckets": status["last_replayed_buckets"],
                    "delta_savings": float(chain_stats.get("delta_savings", 0.0)),
                    "delta_segments": int(chain_stats.get("delta_segments", 0)),
                    "max_score_delta": worst,
                }
        return Outcome(
            units=stats["buckets"],
            metrics={
                "recovery_ms": stats["recovery_ms"],
                "replayed_buckets": float(stats["replayed_buckets"]),
                "delta_savings": stats["delta_savings"],
                "max_score_delta": stats["max_score_delta"],
                "elements_processed": float(stats["elements_processed"]),
            },
            value=stats,
        )

    return measured


def ha_failover_check(values: Mapping[str, Any], report: Any) -> None:
    """Recovery happened, nothing was lost, deltas actually save space."""
    stats = values["failover"]
    assert stats["recoveries"] >= 1, "the killed shard was never recovered"
    assert stats["replayed_buckets"] >= 1, "recovery replayed no WAL bucket"
    assert stats["elements_processed"] == stats["elements_expected"], (
        f"lost elements: processed {stats['elements_processed']} of "
        f"{stats['elements_expected']}"
    )
    assert stats["max_score_delta"] <= _TOLERANCE, (
        f"recovered cluster diverged from the uninterrupted run by "
        f"{stats['max_score_delta']:.3g}"
    )
    assert stats["delta_segments"] >= 1, "the chain never wrote a delta segment"
    assert stats["delta_savings"] > 0.0, (
        f"delta segments are not smaller than fulls "
        f"(savings {stats['delta_savings']:.1%})"
    )
