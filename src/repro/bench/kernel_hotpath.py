"""The ``kernel_hotpath`` benchmark: compiled vs reference hot kernels.

One scenario replays the aminer bucket stream through the batched ingest
path with the kernel layer forced to the pure-NumPy reference
(``kernels="numpy"``); the other runs the same stream under
``kernels="auto"``, which compiles the four hot kernels with Numba when
the ``[kernels]`` extra is installed and silently falls back otherwise.
Per-kernel cumulative milliseconds and call counts from
:func:`repro.kernels.kernel_stats` are recorded as scenario metrics, so
the committed report carries the per-kernel timing table the perf
trajectory tracks.

The check asserts the two paths leave **identical ranked lists** (scores
within 1e-9 — the same contract the columnar-store migration was held
to) and, when the compiled path actually ran on
Numba, that it is not slower than the reference beyond noise.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Dict, Mapping

from repro.api import EngineConfig, KernelConfig, KSIREngine, LocalBackend
from repro.bench.spec import Outcome
from repro.core.processor import ProcessorConfig
from repro.core.scoring import ScoringConfig
from repro.experiments.runner import load_dataset
from repro.kernels import active_kernel_backend, kernel_stats, reset_kernel_stats


@lru_cache(maxsize=4)
def _hotpath_buckets(dataset_name: str, seed: int, max_buckets: int) -> Any:
    """Dataset + bucketised stream prefix (mirrors the ingest micro-bench)."""
    dataset = load_dataset(dataset_name, seed=seed)
    config = ProcessorConfig(
        window_length=24 * 3600,
        bucket_length=15 * 60,
        scoring=ScoringConfig(lambda_weight=0.5, eta=1.0),
    )
    buckets = tuple(dataset.stream.buckets(config.bucket_length))
    if max_buckets:
        buckets = buckets[:max_buckets]
    return dataset, config, buckets


def kernel_hotpath_setup(
    params: Mapping[str, Any], seed: int
) -> Callable[[], Outcome]:
    """Build the measured callable for one kernel-mode scenario."""
    dataset, config, buckets = _hotpath_buckets(
        params["dataset"], seed, params.get("max_buckets", 0)
    )
    engine_config = EngineConfig(
        processor=config,
        kernels=KernelConfig(mode=params["kernels"]),
    )
    elements = sum(len(bucket) for bucket in buckets)

    def measured() -> Outcome:
        reset_kernel_stats()
        engine = KSIREngine(dataset.topic_model, engine_config)
        for bucket in buckets:
            engine.ingest_bucket(bucket.elements, bucket.end_time)
        stats = kernel_stats()
        metrics: Dict[str, float] = {
            "kernel_backend_numba": 1.0 if stats["backend"] == "numba" else 0.0,
        }
        for name, counters in stats["per_kernel"].items():
            metrics[f"kernel_{name}_ms"] = counters["total_ns"] / 1e6
            metrics[f"kernel_{name}_calls"] = float(counters["calls"])
        return Outcome(units=elements, value=engine, metrics=metrics)

    return measured


def _ranked_lists(engine: KSIREngine) -> Any:
    backend = engine.backend
    assert isinstance(backend, LocalBackend)
    return backend.processor.ranked_lists


def kernel_hotpath_check(values: Mapping[str, Any], report: Any) -> None:
    """Reference == compiled ranked lists at 1e-9; compiled not slower."""
    index_a = _ranked_lists(values["numpy"])
    index_b = _ranked_lists(values["compiled"])
    assert index_a.num_topics == index_b.num_topics
    for topic in range(index_a.num_topics):
        items_a = dict(index_a.items(topic))
        items_b = dict(index_b.items(topic))
        assert items_a.keys() == items_b.keys(), f"topic {topic} members differ"
        for element_id, score in items_a.items():
            assert abs(score - items_b[element_id]) <= 1e-9, (
                f"topic {topic} element {element_id} score drift between "
                "kernel backends"
            )
    compiled = report.scenario("compiled")
    if compiled.metrics.get("kernel_backend_numba"):
        speedup = compiled.speedup_vs_baseline or 0.0
        assert speedup >= 0.8, (
            f"compiled kernels {speedup:.2f}x vs the NumPy reference — the "
            "Numba path must not be materially slower"
        )
    # When Numba is absent both scenarios run the reference; equality above
    # is the fallback-parity proof and no speedup is asserted.
    assert active_kernel_backend() in ("numba", "numpy")
