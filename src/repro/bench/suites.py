"""The built-in suite: the paper's figures, tables and ablations as specs.

Importing this module registers one :class:`~repro.bench.spec.BenchSpec`
per artefact of the paper's evaluation (§6: Figures 7–14, Tables 3/5/6)
plus the two ablations.  The scripts under ``benchmarks/`` are thin
wrappers resolving their spec by name, and the CLI (``repro-ksir bench``)
runs any subset uniformly.

Tier conventions:

* ``tiny`` — CI-sized: one dataset, few queries, seconds per artefact.
  The untimed shape checks (scores, evaluation ratios, table rankings)
  bind here too; shapes read off wall-clock times do not, since a
  two-query sweep times noise.
* ``full`` — the paper-sized sweeps over all three datasets, with every
  shape assertion.
"""

from __future__ import annotations

from typing import Any, Callable, List, Mapping

import numpy as np

from repro.bench.spec import BenchSpec, Outcome, register
from repro.experiments import ablations, figures, tables
from repro.experiments.config import EffectivenessConfig, EfficiencyConfig

FULL_DATASETS: List[str] = ["aminer-small", "reddit-small", "twitter-small"]
TINY_DATASETS: List[str] = ["twitter-small"]


def _sweep_tiers(tiny_queries: int, full_queries: int) -> Mapping[str, Mapping[str, Any]]:
    """The tier parameters shared by every figure and effectiveness table."""
    return {
        "tiny": {"datasets": TINY_DATASETS, "queries": tiny_queries},
        "full": {"datasets": FULL_DATASETS, "queries": full_queries},
    }


# ---------------------------------------------------------------------------
# Figures 7–14
# ---------------------------------------------------------------------------


def _figure_spec(
    name: str,
    description: str,
    build: Callable[..., Any],
    precision: int,
    full_queries: int,
    shape: Callable[[Any], None],
    binds_at_tiny: bool,
    **build_kwargs: Any,
) -> BenchSpec:
    """Register the spec regenerating one of the paper's figures."""

    def run(params: Mapping[str, Any], seed: int) -> Outcome:
        config = EfficiencyConfig(
            datasets=tuple(params["datasets"]),
            num_queries=params["queries"],
            seed=seed,
        )
        figure = build(config=config, **build_kwargs)
        return Outcome(figure.render(precision=precision), figure)

    def check(figure: Any, tier: str) -> None:
        assert figure.panels, "figure has no panels"
        if binds_at_tiny or tier == "full":
            shape(figure)

    return register(
        BenchSpec(name, description, run, _sweep_tiers(2, full_queries), check)
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


def _check_fig14(figure: Any) -> None:
    # An order-of-magnitude ceiling (ms per element), not a speed gate, so it
    # binds at both tiers.
    for panel_name, panel in figure.panels.items():
        for value in panel["update"]:
            assert value < 5.0, f"update time too high in {panel_name}"


_figure_spec(
    "fig7_epsilon_time", "Figure 7: MTTS/MTTD query time vs ε",
    figures.figure7_time_vs_epsilon, 3, 5, _check_fig7, binds_at_tiny=False,
)
_figure_spec(
    "fig8_epsilon_score", "Figure 8: result quality vs ε (CELF reference)",
    figures.figure8_score_vs_epsilon, 4, 5, _check_fig8, binds_at_tiny=True,
)
_figure_spec(
    "fig9_k_time", "Figure 9: query time of all five methods vs k",
    figures.figure9_time_vs_k, 3, 5, _check_fig9, binds_at_tiny=False,
)
_figure_spec(
    "fig10_eval_ratio", "Figure 10: fraction of active elements evaluated vs k",
    figures.figure10_evaluation_ratio, 4, 5, _check_fig10, binds_at_tiny=True,
)
_figure_spec(
    "fig11_k_score", "Figure 11: result quality of all five methods vs k",
    figures.figure11_score_vs_k, 4, 5, _check_fig11, binds_at_tiny=True,
)
_figure_spec(
    "fig12_topics_time", "Figure 12: query time vs number of topics z",
    figures.figure12_time_vs_topics, 3, 4, _check_fig12, binds_at_tiny=False,
    methods=tuple(figures.INDEXED_METHODS) + ("celf",),
)
_figure_spec(
    "fig13_window_time", "Figure 13: query time vs window length T",
    figures.figure13_time_vs_window, 3, 4, _check_fig13, binds_at_tiny=False,
)
_figure_spec(
    "fig14_update_time", "Figure 14: per-element ranked-list update time vs z and T",
    figures.figure14_update_time, 4, 5, _check_fig14, binds_at_tiny=True,
)


# ---------------------------------------------------------------------------
# Tables 3, 5 and 6
# ---------------------------------------------------------------------------


def _table3_run(params: Mapping[str, Any], seed: int) -> Outcome:
    table = tables.dataset_statistics_table(datasets=tuple(params["datasets"]), seed=seed)
    return Outcome(table.render(), table)


def _table3_check(table: Any, tier: str) -> None:
    datasets = FULL_DATASETS if tier == "full" else TINY_DATASETS
    assert len(table.rows) == len(datasets), "table 3 needs one row per dataset"


register(
    BenchSpec(
        "table3_datasets",
        "Table 3: dataset statistics of the synthetic streams",
        _table3_run,
        {"tiny": {"datasets": TINY_DATASETS}, "full": {"datasets": FULL_DATASETS}},
        _table3_check,
    )
)


def _effectiveness_spec(
    name: str,
    description: str,
    build: Callable[..., Any],
    precision: int,
    full_queries: int,
    shape: Callable[[Any], None],
) -> BenchSpec:
    """Register the spec regenerating one of the effectiveness tables."""

    def run(params: Mapping[str, Any], seed: int) -> Outcome:
        config = EffectivenessConfig(datasets=tuple(params["datasets"]), seed=seed)
        table = build(config, num_queries=params["queries"])
        return Outcome(table.render(precision), table)

    def check(table: Any, tier: str) -> None:
        assert table.rows, f"{name} has no rows"
        shape(table)

    return register(
        BenchSpec(name, description, run, _sweep_tiers(4, full_queries), check)
    )


def _check_table5(table: Any) -> None:
    ksir_column = table.headers.index("ksir")
    for row in table.rows:
        row_values = row[2:]
        if row[1] == "Impact":
            assert row[ksir_column] >= max(row_values) - 0.5
        else:
            assert row[ksir_column] > min(row_values)


def _check_table6(table: Any) -> None:
    ksir_column = table.headers.index("ksir")
    for row in table.rows:
        row_values = row[2:]
        assert row[ksir_column] == max(row_values), (
            f"k-SIR not best for {row[0]} {row[1]}"
        )


_effectiveness_spec(
    "table5_user_study", "Table 5: simulated user-study ratings per dataset and method",
    tables.user_study_table, 2, 10, _check_table5,
)
_effectiveness_spec(
    "table6_quantitative", "Table 6: quantitative coverage and influence per method",
    tables.quantitative_table, 4, 12, _check_table6,
)


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


def _ablation_ranked_list_run(params: Mapping[str, Any], seed: int) -> Outcome:
    result = ablations.ranked_list_ablation(
        dataset_name=params["dataset"],
        seed=seed,
        max_operations=params["operations"],
    )
    return Outcome(result.render(), result)


def _ablation_ranked_list_check(result: Any, tier: str) -> None:
    assert result.variant_value <= result.baseline_value * (
        1.0 if tier == "full" else 1.5
    ), "sorted-list maintenance slower than re-sorting"


register(
    BenchSpec(
        "ablation_ranked_list",
        "ablation: sort-on-read ranked lists vs re-sorting on every change",
        _ablation_ranked_list_run,
        {
            "tiny": {"dataset": "twitter-small", "operations": 3_000},
            "full": {"dataset": "twitter-small", "operations": 15_000},
        },
        _ablation_ranked_list_check,
    )
)


def _ablation_lazy_buffer_run(params: Mapping[str, Any], seed: int) -> Outcome:
    result = ablations.lazy_buffer_ablation(
        dataset_name=params["dataset"],
        config=EfficiencyConfig(seed=seed, num_queries=params["queries"]),
        num_queries=params["queries"],
    )
    return Outcome(result.render(), result)


def _ablation_lazy_buffer_check(result: Any, tier: str) -> None:
    if tier == "full":
        assert result.variant_value <= result.baseline_value * 1.5, (
            "lazy heap dramatically slower than linear scan"
        )


register(
    BenchSpec(
        "ablation_lazy_buffer",
        "ablation: MTTD lazy-heap candidate buffer vs linear scan",
        _ablation_lazy_buffer_run,
        {
            "tiny": {"dataset": "twitter-small", "queries": 3},
            "full": {"dataset": "twitter-small", "queries": 8},
        },
        _ablation_lazy_buffer_check,
    )
)
