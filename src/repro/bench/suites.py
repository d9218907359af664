"""The built-in benchmark suite: every ``benchmarks/bench_*.py`` as a spec.

Importing this module registers one :class:`~repro.bench.spec.BenchSpec`
per benchmark.  The former per-script logic (scenario sizes, shape
assertions) lives here declaratively; the scripts under ``benchmarks/``
are thin wrappers resolving their spec by name, and the CLI
(``repro-ksir bench``) runs any subset uniformly.

Tier conventions:

* ``tiny`` — CI-sized: single dataset, few queries, seconds per benchmark.
  Statistical shape checks are relaxed (they were tuned for the full
  sweeps); structural invariants still apply.
* ``full`` — the historical benchmark sizes, including the original shape
  assertions from the per-script era.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Any, Callable, Mapping, Tuple

import numpy as np

from repro.api import EngineConfig, KSIREngine, LocalBackend, ServiceConfig
from repro.bench.spec import BenchSpec, Outcome, Scenario, TierPolicy, register
from repro.core.processor import ProcessorConfig
from repro.core.scoring import ScoringConfig
from repro.datasets.profiles import get_profile
from repro.datasets.synthetic import SyntheticStreamGenerator
from repro.experiments import ablations, figures, tables
from repro.experiments.config import EffectivenessConfig, EfficiencyConfig
from repro.experiments.runner import EfficiencyExperiment, load_dataset, prepare_processor

#: Tag selecting the fast CI perf-smoke subset.
MICRO = "micro"

FULL_DATASETS: Tuple[str, ...] = ("aminer-small", "reddit-small", "twitter-small")
TINY_DATASETS: Tuple[str, ...] = ("twitter-small",)


# ---------------------------------------------------------------------------
# Micro benchmarks (the CI perf-smoke subset)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _ingest_buckets(dataset_name: str, seed: int, max_buckets: int):
    """Dataset + bucketised stream prefix for the ingest micro-benchmark."""
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


def _stream_update_setup(params: Mapping[str, Any], seed: int) -> Callable[[], Outcome]:
    dataset, config, buckets = _ingest_buckets(
        params["dataset"], seed, params.get("max_buckets", 0)
    )
    engine_config = EngineConfig(processor=config)
    elements = sum(len(bucket) for bucket in buckets)

    def measured() -> Outcome:
        engine = KSIREngine(dataset.topic_model, engine_config)
        for bucket in buckets:
            engine.ingest_bucket(bucket.elements, bucket.end_time)
        return Outcome(units=elements, value=engine)

    return measured


register(
    BenchSpec(
        name="micro_stream_update",
        description=(
            "bucket-ingest throughput of the batched ingest path "
            "(profiles, window, ranked lists)"
        ),
        setup=_stream_update_setup,
        tiers={
            "tiny": TierPolicy(
                scenarios=(
                    Scenario("batched", {"dataset": "aminer-small",
                                         "max_buckets": 48}),
                ),
                warmup=1,
                repeat=3,
            ),
            "full": TierPolicy(
                scenarios=(
                    Scenario("batched", {"dataset": "aminer-small",
                                         "max_buckets": 0}),
                ),
                warmup=1,
                repeat=5,
            ),
        },
        tags=(MICRO, "core"),
    )
)


_QUERY_ALGORITHMS = ("topk", "mttd", "mtts", "celf", "sieve")


def _query_latency_setup(params: Mapping[str, Any], seed: int) -> Callable[[], Outcome]:
    dataset_name = params["dataset"]
    config = EfficiencyConfig(datasets=(dataset_name,), num_queries=1, seed=seed)
    scoring = config.scoring_for(dataset_name)
    dataset, processor = prepare_processor(
        dataset_name,
        seed=seed,
        window_length=config.window_length,
        bucket_length=config.bucket_length,
        lambda_weight=scoring.lambda_weight,
        eta=scoring.eta,
        replay_fraction=config.replay_fraction,
    )
    experiment = EfficiencyExperiment(dataset, processor, seed=seed)
    query = experiment.make_workload(1, k=config.k)[0]
    algorithm = params["algorithm"]

    def measured() -> Outcome:
        result = processor.query(query, algorithm=algorithm, epsilon=0.1)
        assert len(result) <= query.k
        return Outcome(units=1, value=result)

    return measured


def _query_latency_scenarios(dataset: str) -> Tuple[Scenario, ...]:
    return tuple(
        Scenario(algorithm, {"dataset": dataset, "algorithm": algorithm})
        for algorithm in _QUERY_ALGORITHMS
    )


register(
    BenchSpec(
        name="micro_query_latency",
        description="single k-SIR query latency of every registered algorithm",
        setup=_query_latency_setup,
        tiers={
            "tiny": TierPolicy(
                scenarios=_query_latency_scenarios("tiny"), warmup=2, repeat=9
            ),
            "full": TierPolicy(
                scenarios=_query_latency_scenarios("twitter-small"), warmup=2, repeat=25
            ),
        },
        tags=(MICRO, "core"),
    )
)


# ---------------------------------------------------------------------------
# Service / cluster benchmarks
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def _service_dataset(num_elements: int, num_topics: int, seed: int):
    profile = replace(
        get_profile("tiny"),
        name="service-bench",
        num_elements=num_elements,
        vocabulary_size=1_700,
        num_topics=num_topics,
        duration=24 * 3600,
        reference_horizon=3 * 3600,
    )
    return SyntheticStreamGenerator(profile, seed=seed).generate()


def _service_setup(params: Mapping[str, Any], seed: int) -> Callable[[], Outcome]:
    dataset = _service_dataset(params["elements"], params["topics"], seed)
    engine_config = EngineConfig(
        backend="service",
        processor=ProcessorConfig(
            window_length=6 * 3600,
            bucket_length=450,
            scoring=ScoringConfig(lambda_weight=0.5, eta=1.0),
        ),
        service=ServiceConfig(max_workers=1, incremental=params["incremental"]),
    )
    num_queries = params["queries"]

    def measured() -> Outcome:
        with KSIREngine(dataset.topic_model, engine_config) as engine:
            for index in range(num_queries):
                engine.register(
                    dataset.make_query(k=5, topic=index % params["topics"]),
                    algorithm="mttd",
                    epsilon=0.1,
                )
            engine.process_stream(dataset.stream)
            service = engine.service_engine
            assert service is not None
            metrics = service.metrics
        return Outcome(
            units=metrics.opportunities,
            value=metrics,
            metrics={
                "evaluations": float(metrics.evaluations),
                "reeval_ratio": float(metrics.reeval_ratio),
                "queries_per_sec": float(metrics.queries_per_sec),
                "latency_p50_ms": float(metrics.latency_p50_ms),
            },
        )

    return measured


def _service_check(values: Mapping[str, Any], report: Any) -> None:
    incremental = values["incremental"]
    naive = values["naive"]
    assert incremental.evaluations < naive.evaluations, (
        "incremental scheduler did not save evaluations"
    )
    assert incremental.opportunities == naive.opportunities
    if report.tier == "full":
        speedup = incremental.queries_per_sec / max(1e-9, naive.queries_per_sec)
        assert speedup >= 3.0, f"maintenance throughput speedup {speedup:.2f}x below 3x"


register(
    BenchSpec(
        name="service_throughput",
        description="standing-query maintenance: incremental scheduler vs naive re-run",
        setup=_service_setup,
        tiers={
            "tiny": TierPolicy(
                scenarios=(
                    Scenario("naive", {"elements": 500, "topics": 60,
                                       "queries": 40, "incremental": False}),
                    Scenario("incremental", {"elements": 500, "topics": 60,
                                             "queries": 40, "incremental": True}),
                ),
                warmup=0,
                repeat=1,
            ),
            "full": TierPolicy(
                scenarios=(
                    Scenario("naive", {"elements": 1_200, "topics": 120,
                                       "queries": 100, "incremental": False}),
                    Scenario("incremental", {"elements": 1_200, "topics": 120,
                                             "queries": 100, "incremental": True}),
                ),
                warmup=0,
                repeat=1,
            ),
        },
        baseline="naive",
        check=_service_check,
        tags=("service",),
    )
)


@lru_cache(maxsize=4)
def _cluster_dataset(tiny: bool, seed: int):
    profile = replace(
        get_profile("tiny"),
        name="cluster-bench",
        num_elements=600 if tiny else 6_000,
        vocabulary_size=1_200 if tiny else 2_400,
        num_topics=24,
        duration=24 * 3600,
        reference_horizon=3 * 3600,
    )
    dataset = SyntheticStreamGenerator(profile, seed=seed).generate()
    queries = tuple(
        dataset.make_query(k=5, topic=index % profile.num_topics)
        for index in range(4 if tiny else 8)
    )
    return dataset, queries


def _cluster_setup(params: Mapping[str, Any], seed: int) -> Callable[[], Outcome]:
    from repro.cluster import ClusterConfig

    dataset, queries = _cluster_dataset(params["tiny"], seed)
    config = ProcessorConfig(
        window_length=6 * 3600,
        bucket_length=900,
        scoring=ScoringConfig(lambda_weight=0.5, eta=1.0),
    )
    num_shards = params["shards"]
    elements = sum(1 for _ in dataset.stream)

    def measured() -> Outcome:
        if num_shards <= 1:
            engine = KSIREngine(dataset.topic_model, EngineConfig(processor=config))
            engine.process_stream(dataset.stream)
            backend = engine.backend
            assert isinstance(backend, LocalBackend)
            busy = backend.processor.ingest_timer.total_ms / 1000.0
            aggregate = engine.elements_processed / max(1e-9, busy)
            routed = engine.elements_processed
            first = tuple(
                sorted(engine.query(queries[0], algorithm="mttd", epsilon=0.1).element_ids)
            )
            for query in queries[1:]:
                engine.query(query, algorithm="mttd", epsilon=0.1)
        else:
            cluster_config = EngineConfig(
                backend="sharded",
                processor=config,
                cluster=ClusterConfig(num_shards=num_shards, transport="serial"),
            )
            with KSIREngine(dataset.topic_model, cluster_config) as coordinator:
                coordinator.process_stream(dataset.stream)
                stats = coordinator.backend.coordinator.shard_stats()
                busy = sum(stat.ingest_seconds for stat in stats)
                aggregate = sum(
                    stat.home_elements / max(1e-9, stat.ingest_seconds) for stat in stats
                )
                routed = sum(stat.home_elements + stat.foreign_elements for stat in stats)
                first = tuple(
                    sorted(
                        coordinator.query(
                            queries[0], algorithm="mttd", epsilon=0.1
                        ).element_ids
                    )
                )
                for query in queries[1:]:
                    coordinator.query(query, algorithm="mttd", epsilon=0.1)
        return Outcome(
            units=elements,
            value={"aggregate_rate": aggregate, "top_result": first},
            metrics={
                "aggregate_rate": aggregate,
                "busy_seconds": busy,
                "routed_elements": float(routed),
            },
        )

    return measured


def _cluster_check(values: Mapping[str, Any], report: Any) -> None:
    single = values["single"]
    for name, value in values.items():
        if name.startswith("shard-"):
            assert value["top_result"] == single["top_result"], (
                f"{name} answer diverged from single node"
            )
    if report.tier == "full":
        speedup = values["shard-4"]["aggregate_rate"] / max(
            1e-9, single["aggregate_rate"]
        )
        assert speedup >= 2.0, f"4-shard aggregate ingest {speedup:.2f}x below 2x"


def _cluster_scenarios(tiny: bool, shard_counts: Tuple[int, ...]) -> Tuple[Scenario, ...]:
    scenarios = [Scenario("single", {"tiny": tiny, "shards": 1})]
    scenarios.extend(
        Scenario(f"shard-{count}", {"tiny": tiny, "shards": count})
        for count in shard_counts
    )
    return tuple(scenarios)


register(
    BenchSpec(
        name="cluster_scaling",
        description="sharded aggregate ingest capacity and query parity vs single node",
        setup=_cluster_setup,
        tiers={
            "tiny": TierPolicy(
                scenarios=_cluster_scenarios(True, (2, 4)),
                warmup=0,
                repeat=1,
            ),
            "full": TierPolicy(
                scenarios=_cluster_scenarios(False, (2, 4, 8)),
                warmup=0,
                repeat=1,
            ),
        },
        baseline="single",
        check=_cluster_check,
        tags=("cluster",),
    )
)


# ---------------------------------------------------------------------------
# Paper tables and figures
# ---------------------------------------------------------------------------


def _figure_spec(
    name: str,
    description: str,
    build: Callable[..., Any],
    precision: int,
    full_queries: int,
    full_check: Callable[[Any], None],
    extra_kwargs: Mapping[str, Any] = (),
) -> BenchSpec:
    """A spec regenerating one of the paper's figures as a single scenario."""

    def setup(params: Mapping[str, Any], seed: int) -> Callable[[], Outcome]:
        config = EfficiencyConfig(
            datasets=tuple(params["datasets"]),
            num_queries=params["queries"],
            seed=seed,
        )
        kwargs = dict(extra_kwargs)

        def measured() -> Outcome:
            figure = build(config=config, **kwargs)
            return Outcome(
                units=len(config.datasets) * params["queries"],
                artefact=figure.render(precision=precision),
                value=figure,
            )

        return measured

    def check(values: Mapping[str, Any], report: Any) -> None:
        figure = values["sweep"]
        assert figure.panels, "figure has no panels"
        if report.tier == "full":
            full_check(figure)

    return BenchSpec(
        name=name,
        description=description,
        setup=setup,
        tiers={
            "tiny": TierPolicy(
                scenarios=(
                    Scenario("sweep", {"datasets": TINY_DATASETS, "queries": 2}),
                ),
                warmup=0,
                repeat=1,
            ),
            "full": TierPolicy(
                scenarios=(
                    Scenario("sweep", {"datasets": FULL_DATASETS,
                                       "queries": full_queries}),
                ),
                warmup=0,
                repeat=1,
            ),
        },
        check=check,
        tags=("figure",),
    )


def _check_fig7(figure: Any) -> None:
    for dataset, panel in figure.panels.items():
        mtts = panel["mtts"]
        assert mtts[-1] <= mtts[0] * 1.1, f"MTTS time did not drop with ε on {dataset}"


def _check_fig8(figure: Any) -> None:
    for dataset, panel in figure.panels.items():
        celf = panel["celf"][0]
        for method in ("mtts", "mttd"):
            assert panel[method][0] >= 0.95 * celf, (
                f"{method} lost too much quality at the default epsilon on {dataset}"
            )
            for value in panel[method]:
                assert value >= 0.75 * celf, f"{method} collapsed on {dataset}"


def _check_fig9(figure: Any) -> None:
    for dataset, panel in figure.panels.items():
        mttd = float(np.mean(panel["mttd"]))
        assert mttd < float(np.mean(panel["celf"])), f"MTTD slower than CELF on {dataset}"
        assert mttd < float(np.mean(panel["sieve"])), (
            f"MTTD slower than SieveStreaming on {dataset}"
        )
        assert float(np.mean(panel["topk"])) <= mttd * 1.5, (
            f"Top-k unexpectedly slow on {dataset}"
        )


def _check_fig10(figure: Any) -> None:
    for dataset, panel in figure.panels.items():
        mtts, mttd = panel["mtts"], panel["mttd"]
        assert max(mtts + mttd) < 0.5, f"pruning ineffective on {dataset}"
        assert mtts[-1] >= mtts[0], f"MTTS ratio not growing with k on {dataset}"
        assert sum(mttd) >= sum(mtts) * 0.9, f"MTTD ratio unexpectedly low on {dataset}"


def _check_fig11(figure: Any) -> None:
    for dataset, panel in figure.panels.items():
        celf = np.asarray(panel["celf"])
        assert np.all(np.asarray(panel["mttd"]) >= 0.97 * celf), (
            f"MTTD quality too low on {dataset}"
        )
        assert np.all(np.asarray(panel["mtts"]) >= 0.90 * celf), (
            f"MTTS quality too low on {dataset}"
        )
        assert np.mean(np.asarray(panel["topk"])) <= np.mean(celf), (
            f"Top-k should not beat CELF on {dataset}"
        )


def _check_fig12(figure: Any) -> None:
    for dataset, panel in figure.panels.items():
        for method in figures.INDEXED_METHODS:
            series = panel[method]
            assert min(series[1:]) <= series[0] * 1.5, (
                f"{method} query time exploded with z on {dataset}"
            )


def _check_fig13(figure: Any) -> None:
    for dataset, panel in figure.panels.items():
        for method, series in panel.items():
            assert series[-1] >= series[0] * 0.5, f"{method} trend broken on {dataset}"
        assert np.mean(panel["mttd"]) < np.mean(panel["sieve"]), dataset


register(_figure_spec(
    "fig7_epsilon_time", "Figure 7: MTTS/MTTD query time vs ε",
    figures.figure7_time_vs_epsilon, 3, 5, _check_fig7,
))
register(_figure_spec(
    "fig8_epsilon_score", "Figure 8: result quality vs ε (CELF reference)",
    figures.figure8_score_vs_epsilon, 4, 5, _check_fig8,
))
register(_figure_spec(
    "fig9_k_time", "Figure 9: query time of all five methods vs k",
    figures.figure9_time_vs_k, 3, 5, _check_fig9,
))
register(_figure_spec(
    "fig10_eval_ratio", "Figure 10: fraction of active elements evaluated vs k",
    figures.figure10_evaluation_ratio, 4, 5, _check_fig10,
))
register(_figure_spec(
    "fig11_k_score", "Figure 11: result quality of all five methods vs k",
    figures.figure11_score_vs_k, 4, 5, _check_fig11,
))
register(_figure_spec(
    "fig12_topics_time", "Figure 12: query time vs number of topics z",
    figures.figure12_time_vs_topics, 3, 4, _check_fig12,
    extra_kwargs={"methods": tuple(figures.INDEXED_METHODS) + ("celf",)},
))
register(_figure_spec(
    "fig13_window_time", "Figure 13: query time vs window length T",
    figures.figure13_time_vs_window, 3, 4, _check_fig13,
))


def _fig14_setup(params: Mapping[str, Any], seed: int) -> Callable[[], Outcome]:
    config = EfficiencyConfig(
        datasets=tuple(params["datasets"]), num_queries=params["queries"], seed=seed
    )

    def measured() -> Outcome:
        figure = figures.figure14_update_time(config=config)
        return Outcome(
            units=len(config.datasets),
            artefact=figure.render(precision=4),
            value=figure,
        )

    return measured


def _fig14_check(values: Mapping[str, Any], report: Any) -> None:
    figure = values["sweep"]
    for panel_name, panel in figure.panels.items():
        for value in panel["update"]:
            assert value < 5.0, f"update time too high in {panel_name}"


register(
    BenchSpec(
        name="fig14_update_time",
        description="Figure 14: per-element ranked-list update time vs z and T",
        setup=_fig14_setup,
        tiers={
            "tiny": TierPolicy(
                scenarios=(
                    Scenario("sweep", {"datasets": TINY_DATASETS, "queries": 2}),
                ),
                warmup=0,
                repeat=1,
            ),
            "full": TierPolicy(
                scenarios=(
                    Scenario("sweep", {"datasets": FULL_DATASETS, "queries": 5}),
                ),
                warmup=0,
                repeat=1,
            ),
        },
        check=_fig14_check,
        tags=("figure",),
    )
)


def _table3_setup(params: Mapping[str, Any], seed: int) -> Callable[[], Outcome]:
    datasets = tuple(params["datasets"])

    def measured() -> Outcome:
        table = tables.dataset_statistics_table(datasets=datasets, seed=seed)
        return Outcome(units=len(datasets), artefact=table.render(), value=table)

    return measured


def _table3_check(values: Mapping[str, Any], report: Any) -> None:
    table = values["render"]
    assert table.rows, "table 3 has no rows"
    if report.tier == "full":
        assert len(table.rows) == len(FULL_DATASETS)


register(
    BenchSpec(
        name="table3_datasets",
        description="Table 3: dataset statistics of the synthetic streams",
        setup=_table3_setup,
        tiers={
            "tiny": TierPolicy(
                scenarios=(Scenario("render", {"datasets": TINY_DATASETS}),),
                warmup=0, repeat=1,
            ),
            "full": TierPolicy(
                scenarios=(Scenario("render", {"datasets": FULL_DATASETS}),),
                warmup=0, repeat=1,
            ),
        },
        check=_table3_check,
        tags=("table",),
    )
)


def _effectiveness_setup(
    build: Callable[..., Any], precision: int
) -> Callable[[Mapping[str, Any], int], Callable[[], Outcome]]:
    def setup(params: Mapping[str, Any], seed: int) -> Callable[[], Outcome]:
        config = EffectivenessConfig(datasets=tuple(params["datasets"]), seed=seed)

        def measured() -> Outcome:
            table = build(config, num_queries=params["queries"])
            return Outcome(
                units=len(config.datasets) * params["queries"],
                artefact=table.render(precision),
                value=table,
            )

        return measured

    return setup


def _table5_check(values: Mapping[str, Any], report: Any) -> None:
    table = values["render"]
    assert table.rows, "table 5 has no rows"
    if report.tier == "full":
        ksir_column = table.headers.index("ksir")
        for row in table.rows:
            row_values = row[2:]
            if row[1] == "Impact":
                assert row[ksir_column] >= max(row_values) - 0.5
            else:
                assert row[ksir_column] > min(row_values)


def _table6_check(values: Mapping[str, Any], report: Any) -> None:
    table = values["render"]
    assert table.rows, "table 6 has no rows"
    if report.tier == "full":
        ksir_column = table.headers.index("ksir")
        for row in table.rows:
            row_values = row[2:]
            assert row[ksir_column] == max(row_values), (
                f"k-SIR not best for {row[0]} {row[1]}"
            )


def _effectiveness_tiers(full_queries: int) -> Mapping[str, TierPolicy]:
    return {
        "tiny": TierPolicy(
            scenarios=(
                Scenario("render", {"datasets": TINY_DATASETS, "queries": 4}),
            ),
            warmup=0, repeat=1,
        ),
        "full": TierPolicy(
            scenarios=(
                Scenario("render", {"datasets": FULL_DATASETS,
                                    "queries": full_queries}),
            ),
            warmup=0, repeat=1,
        ),
    }


register(
    BenchSpec(
        name="table5_user_study",
        description="Table 5: simulated user-study ratings per dataset and method",
        setup=_effectiveness_setup(tables.user_study_table, 2),
        tiers=_effectiveness_tiers(10),
        check=_table5_check,
        tags=("table",),
    )
)
register(
    BenchSpec(
        name="table6_quantitative",
        description="Table 6: quantitative coverage and influence per method",
        setup=_effectiveness_setup(tables.quantitative_table, 4),
        tiers=_effectiveness_tiers(12),
        check=_table6_check,
        tags=("table",),
    )
)


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


def _ablation_ranked_list_setup(
    params: Mapping[str, Any], seed: int
) -> Callable[[], Outcome]:
    def measured() -> Outcome:
        result = ablations.ranked_list_ablation(
            dataset_name=params["dataset"],
            seed=seed,
            max_operations=params["operations"],
        )
        return Outcome(
            units=params["operations"], artefact=result.render(), value=result
        )

    return measured


def _ablation_ranked_list_check(values: Mapping[str, Any], report: Any) -> None:
    result = values["ablation"]
    assert result.variant_value <= result.baseline_value * (
        1.0 if report.tier == "full" else 1.5
    ), "sorted-list maintenance slower than re-sorting"


register(
    BenchSpec(
        name="ablation_ranked_list",
        description="ablation: bisect-backed ranked lists vs naive re-sorting",
        setup=_ablation_ranked_list_setup,
        tiers={
            "tiny": TierPolicy(
                scenarios=(
                    Scenario("ablation", {"dataset": "twitter-small",
                                          "operations": 3_000}),
                ),
                warmup=0, repeat=1,
            ),
            "full": TierPolicy(
                scenarios=(
                    Scenario("ablation", {"dataset": "twitter-small",
                                          "operations": 15_000}),
                ),
                warmup=0, repeat=1,
            ),
        },
        check=_ablation_ranked_list_check,
        tags=("ablation",),
    )
)


def _ablation_lazy_buffer_setup(
    params: Mapping[str, Any], seed: int
) -> Callable[[], Outcome]:
    config = EfficiencyConfig(seed=seed, num_queries=params["queries"])

    def measured() -> Outcome:
        result = ablations.lazy_buffer_ablation(
            dataset_name=params["dataset"],
            config=config,
            num_queries=params["queries"],
        )
        return Outcome(units=params["queries"], artefact=result.render(), value=result)

    return measured


def _ablation_lazy_buffer_check(values: Mapping[str, Any], report: Any) -> None:
    result = values["ablation"]
    if report.tier == "full":
        assert result.variant_value <= result.baseline_value * 1.5, (
            "lazy heap dramatically slower than linear scan"
        )


register(
    BenchSpec(
        name="ablation_lazy_buffer",
        description="ablation: MTTD lazy-heap candidate buffer vs linear scan",
        setup=_ablation_lazy_buffer_setup,
        tiers={
            "tiny": TierPolicy(
                scenarios=(
                    Scenario("ablation", {"dataset": "twitter-small", "queries": 3}),
                ),
                warmup=0, repeat=1,
            ),
            "full": TierPolicy(
                scenarios=(
                    Scenario("ablation", {"dataset": "twitter-small", "queries": 8}),
                ),
                warmup=0, repeat=1,
            ),
        },
        check=_ablation_lazy_buffer_check,
        tags=("ablation",),
    )
)


# ---------------------------------------------------------------------------
# Serving tier (repro.server): concurrent REST + WebSocket load
# ---------------------------------------------------------------------------


def _server_load_setup(params: Mapping[str, Any], seed: int) -> Callable[[], Outcome]:
    # Deferred so importing the suite registry never touches the serving
    # tier; the driver itself is stdlib-only (see repro.bench.server_load).
    from repro.bench.server_load import server_load_setup

    return server_load_setup(params, seed)


def _server_load_check(values: Mapping[str, Any], report: Any) -> None:
    from repro.bench.server_load import server_load_check

    server_load_check(values, report)


# ---------------------------------------------------------------------------
# Event-time ingestion (repro.streams): disorder absorption
# ---------------------------------------------------------------------------


def _stream_disorder_setup(
    params: Mapping[str, Any], seed: int
) -> Callable[[], Outcome]:
    # Deferred so importing the suite registry never touches the streams
    # subsystem's benchmark driver.
    from repro.bench.stream_disorder import stream_disorder_setup

    return stream_disorder_setup(params, seed)


def _stream_disorder_check(values: Mapping[str, Any], report: Any) -> None:
    from repro.bench.stream_disorder import stream_disorder_check

    stream_disorder_check(values, report)


def _stream_disorder_scenarios(profile: str) -> Tuple[Scenario, ...]:
    return tuple(
        Scenario(name, {"profile": profile, "disorder": disorder})
        for name, disorder in (
            ("in-order", 0.0),
            ("disorder-5", 0.05),
            ("disorder-20", 0.20),
        )
    )


register(
    BenchSpec(
        name="stream_disorder",
        description=(
            "event-time ingest: raw-event throughput and watermark-lag "
            "p50/p95 under 0/5/20% bounded disorder, with in-order "
            "equivalence and zero-drop checks"
        ),
        setup=_stream_disorder_setup,
        tiers={
            # Runs are ~15 ms on tiny, so single-shot timings gate too
            # noisily; a short warmup + median of 3 keeps CI stable.
            "tiny": TierPolicy(
                scenarios=_stream_disorder_scenarios("tiny"),
                warmup=1,
                repeat=3,
            ),
            "full": TierPolicy(
                scenarios=_stream_disorder_scenarios("twitter-small"),
                warmup=1,
                repeat=3,
            ),
        },
        baseline="in-order",
        check=_stream_disorder_check,
        tags=("streams",),
    )
)


# ---------------------------------------------------------------------------
# Supervised cluster runtime (repro.ha): failover recovery
# ---------------------------------------------------------------------------


def _ha_failover_setup(params: Mapping[str, Any], seed: int) -> Callable[[], Outcome]:
    # Deferred so importing the suite registry never touches the HA stack.
    from repro.bench.ha_failover import ha_failover_setup

    return ha_failover_setup(params, seed)


def _ha_failover_check(values: Mapping[str, Any], report: Any) -> None:
    from repro.bench.ha_failover import ha_failover_check

    ha_failover_check(values, report)


register(
    BenchSpec(
        name="ha_failover",
        description=(
            "supervised cluster: kill a shard mid-stream, measure restart + "
            "WAL-replay recovery, verify zero-loss equivalence and delta-"
            "checkpoint savings"
        ),
        setup=_ha_failover_setup,
        tiers={
            "tiny": TierPolicy(
                scenarios=(
                    Scenario("failover", {"profile": "tiny", "shards": 2,
                                          "kill_after": 5, "checkpoint_every": 4,
                                          "queries": 4}),
                ),
                warmup=0, repeat=1,
            ),
            "full": TierPolicy(
                scenarios=(
                    Scenario("failover", {"profile": "twitter-small", "shards": 4,
                                          "kill_after": 24, "checkpoint_every": 8,
                                          "queries": 8}),
                ),
                warmup=0, repeat=1,
            ),
        },
        check=_ha_failover_check,
        tags=("cluster", "ha"),
    )
)


register(
    BenchSpec(
        name="server_load",
        description="serving tier: concurrent REST + WebSocket push load over HTTP",
        setup=_server_load_setup,
        tiers={
            "tiny": TierPolicy(
                scenarios=(
                    Scenario("load", {"subscribers": 64, "queries": 16,
                                      "buckets": 6, "rest_clients": 8}),
                ),
                warmup=0, repeat=1,
            ),
            "full": TierPolicy(
                scenarios=(
                    Scenario("load", {"subscribers": 1_000, "queries": 50,
                                      "buckets": 8, "rest_clients": 32}),
                ),
                warmup=0, repeat=1,
            ),
        },
        check=_server_load_check,
        # Deliberately NOT tagged "service": the committed baseline records
        # the full tier (the 1000-subscriber acceptance run) and must not be
        # latency-compared against CI's tiny-tier runs; CI exercises the
        # tiny tier in the server smoke job instead.
        tags=("server",),
    )
)


# ---------------------------------------------------------------------------
# Hot-path kernels (repro.kernels): compiled vs NumPy reference
# ---------------------------------------------------------------------------


def _kernel_hotpath_setup(params: Mapping[str, Any], seed: int) -> Callable[[], Outcome]:
    # Deferred so importing the suite registry never touches the kernel
    # benchmark driver (see repro.bench.kernel_hotpath).
    from repro.bench.kernel_hotpath import kernel_hotpath_setup

    return kernel_hotpath_setup(params, seed)


def _kernel_hotpath_check(values: Mapping[str, Any], report: Any) -> None:
    from repro.bench.kernel_hotpath import kernel_hotpath_check

    kernel_hotpath_check(values, report)


def _kernel_hotpath_scenarios(max_buckets: int) -> Tuple[Scenario, ...]:
    return tuple(
        Scenario(name, {"dataset": "aminer-small", "max_buckets": max_buckets,
                        "kernels": mode})
        for name, mode in (("numpy", "numpy"), ("compiled", "auto"))
    )


register(
    BenchSpec(
        name="kernel_hotpath",
        description=(
            "hot-path kernel layer: batched ingest with compiled (Numba) "
            "kernels vs the NumPy reference, with per-kernel timings"
        ),
        setup=_kernel_hotpath_setup,
        tiers={
            "tiny": TierPolicy(
                scenarios=_kernel_hotpath_scenarios(max_buckets=48),
                warmup=1,
                repeat=3,
            ),
            "full": TierPolicy(
                scenarios=_kernel_hotpath_scenarios(max_buckets=0),
                warmup=1,
                repeat=5,
            ),
        },
        baseline="numpy",
        check=_kernel_hotpath_check,
        # Selected by CI perf-smoke via --tag kernels (alongside the micro
        # subset); deliberately not tagged "micro" so the historical micro
        # selection stays exactly the two ingest/query micro-benchmarks.
        tags=("kernels",),
    )
)
