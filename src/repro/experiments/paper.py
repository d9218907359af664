"""The paper's evaluation as one table: Figures 7–14, Tables 3/5/6, two ablations.

:data:`ARTEFACTS` maps each artefact's name to ``(description, run, check,
tiers)``:

* ``run(params, seed)`` regenerates the artefact from one tier's parameters
  and returns ``(rendered text, result)``;
* ``check(result, tier)`` asserts the artefact's shape and raises
  ``AssertionError`` when it does not hold;
* ``tiers`` holds the parameters of each of :data:`TIERS`, recorded verbatim
  in the report.

Tier conventions:

* ``tiny`` — CI-sized: one dataset, few queries, seconds per artefact.
  The untimed shape checks (scores, evaluation ratios, table rankings,
  the buffer ablation's selections) bind here too, and so do two timed
  ones: Fig. 14's 5 ms ceiling on the per-element update time and the
  ranked-list ablation's sort-on-read ≤ 1.5× the naive re-sort.  The
  other shapes read off wall-clock times (Fig. 7/9/12/13, the buffer
  ablation's timing) do not, since a two-query sweep times noise.
* ``full`` — the paper-sized sweeps over all three datasets, with every
  shape assertion (the ranked-list ablation's bound tightens to 1×).

:func:`run_artefact` regenerates one tier of an entry, runs its check and
writes ``BENCH_<name>.json`` plus the rendered ``<name>.txt``; a failing
check flips ``checks_passed`` rather than aborting, so both files are
always written.  ``repro-ksir bench list|run`` is the entry point.

Nothing here measures speed: the wall-clock figures carry the times the
experiments took inside their panels, ``elapsed_s`` is how long the
regeneration took, and a speed claim is made on the end-to-end benchmark
(``benchmarks/e2e/README.md``), never on these reports.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Tuple

import numpy as np

from repro.experiments import ablations, figures, tables
from repro.experiments.config import EffectivenessConfig, EfficiencyConfig

#: The two size tiers every artefact provides.
TIERS = ("tiny", "full")

FULL_DATASETS: List[str] = ["aminer-small", "reddit-small", "twitter-small"]
TINY_DATASETS: List[str] = ["twitter-small"]

#: ``run(params, seed) -> (rendered text, result)``.
RunFn = Callable[[Mapping[str, Any], int], Tuple[str, Any]]
#: ``check(result, tier)``; raises ``AssertionError`` on failure.
CheckFn = Callable[[Any, str], None]
#: ``(description, run, check, {"tiny": params, "full": params})``.
Artefact = Tuple[str, RunFn, CheckFn, Mapping[str, Mapping[str, Any]]]


def _sweep_tiers(tiny_queries: int, full_queries: int) -> Mapping[str, Mapping[str, Any]]:
    """The tier parameters shared by every figure and effectiveness table."""
    return {
        "tiny": {"datasets": TINY_DATASETS, "queries": tiny_queries},
        "full": {"datasets": FULL_DATASETS, "queries": full_queries},
    }


# ---------------------------------------------------------------------------
# Figures 7–14
# ---------------------------------------------------------------------------


def _figure(
    description: str,
    build: Callable[..., Any],
    precision: int,
    full_queries: int,
    shape: Callable[[Any], None],
    binds_at_tiny: bool,
    **build_kwargs: Any,
) -> Artefact:
    """The entry regenerating one of the paper's figures."""

    def run(params: Mapping[str, Any], seed: int) -> Tuple[str, Any]:
        config = EfficiencyConfig(
            datasets=tuple(params["datasets"]),
            num_queries=params["queries"],
            seed=seed,
        )
        figure = build(config=config, **build_kwargs)
        return figure.render(precision=precision), figure

    def check(figure: Any, tier: str) -> None:
        assert figure.panels, "figure has no panels"
        if binds_at_tiny or tier == "full":
            shape(figure)

    return description, run, check, _sweep_tiers(2, full_queries)


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


# ---------------------------------------------------------------------------
# Tables 3, 5 and 6
# ---------------------------------------------------------------------------


def _table3_run(params: Mapping[str, Any], seed: int) -> Tuple[str, Any]:
    table = tables.dataset_statistics_table(datasets=tuple(params["datasets"]), seed=seed)
    return table.render(), table


def _table3_check(table: Any, tier: str) -> None:
    datasets = FULL_DATASETS if tier == "full" else TINY_DATASETS
    assert len(table.rows) == len(datasets), "table 3 needs one row per dataset"


def _effectiveness(
    name: str,
    description: str,
    build: Callable[..., Any],
    precision: int,
    full_queries: int,
    shape: Callable[[Any], None],
) -> Artefact:
    """The entry regenerating one of the effectiveness tables."""

    def run(params: Mapping[str, Any], seed: int) -> Tuple[str, Any]:
        config = EffectivenessConfig(datasets=tuple(params["datasets"]), seed=seed)
        table = build(config, num_queries=params["queries"])
        return table.render(precision), table

    def check(table: Any, tier: str) -> None:
        assert table.rows, f"{name} has no rows"
        shape(table)

    return description, run, check, _sweep_tiers(4, full_queries)


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


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


def _ablation_ranked_list_run(params: Mapping[str, Any], seed: int) -> Tuple[str, Any]:
    result = ablations.ranked_list_ablation(
        dataset_name=params["dataset"],
        seed=seed,
        max_operations=params["operations"],
    )
    return result.render(), result


def _ablation_ranked_list_check(result: Any, tier: str) -> None:
    assert result.variant_value <= result.baseline_value * (
        1.0 if tier == "full" else 1.5
    ), "sorted-list maintenance slower than re-sorting"


def _ablation_buffer_run(params: Mapping[str, Any], seed: int) -> Tuple[str, Any]:
    result = ablations.lazy_buffer_ablation(
        dataset_name=params["dataset"],
        config=EfficiencyConfig(seed=seed, num_queries=params["queries"]),
        num_queries=params["queries"],
    )
    return result.render(), result


def _ablation_buffer_check(result: Any, tier: str) -> None:
    # Untimed, so it binds at both tiers: the two buffers differ in data
    # structure only, never in what they select.
    scan = result.selections[result.baseline_label]
    heap = result.selections[result.variant_label]
    differing = sum(left != right for left, right in zip(scan, heap))
    assert len(scan) == len(heap) and differing == 0, (
        f"heap and linear-scan buffers selected different ids on "
        f"{differing} of {len(scan)} queries"
    )
    if tier == "full":
        assert result.variant_value <= result.baseline_value * 1.5, (
            "heap buffer dramatically slower than linear scan"
        )


#: Every artefact of the paper's evaluation, by name.
ARTEFACTS: Dict[str, Artefact] = {
    "fig7_epsilon_time": _figure(
        "Figure 7: MTTS/MTTD query time vs ε",
        figures.figure7_time_vs_epsilon, 3, 5, _check_fig7, binds_at_tiny=False,
    ),
    "fig8_epsilon_score": _figure(
        "Figure 8: result quality vs ε (CELF reference)",
        figures.figure8_score_vs_epsilon, 4, 5, _check_fig8, binds_at_tiny=True,
    ),
    "fig9_k_time": _figure(
        "Figure 9: query time of all five methods vs k",
        figures.figure9_time_vs_k, 3, 50, _check_fig9, binds_at_tiny=False,
    ),
    "fig10_eval_ratio": _figure(
        "Figure 10: fraction of active elements evaluated vs k",
        figures.figure10_evaluation_ratio, 4, 5, _check_fig10, binds_at_tiny=True,
    ),
    "fig11_k_score": _figure(
        "Figure 11: result quality of all five methods vs k",
        figures.figure11_score_vs_k, 4, 5, _check_fig11, binds_at_tiny=True,
    ),
    "fig12_topics_time": _figure(
        "Figure 12: query time vs number of topics z",
        figures.figure12_time_vs_topics, 3, 4, _check_fig12, binds_at_tiny=False,
        methods=tuple(figures.INDEXED_METHODS) + ("celf",),
    ),
    "fig13_window_time": _figure(
        "Figure 13: query time vs window length T",
        figures.figure13_time_vs_window, 3, 50, _check_fig13, binds_at_tiny=False,
    ),
    "fig14_update_time": _figure(
        "Figure 14: per-element ranked-list update time vs z and T",
        figures.figure14_update_time, 4, 5, _check_fig14, binds_at_tiny=True,
    ),
    "table3_datasets": (
        "Table 3: dataset statistics of the synthetic streams",
        _table3_run,
        _table3_check,
        {"tiny": {"datasets": TINY_DATASETS}, "full": {"datasets": FULL_DATASETS}},
    ),
    "table5_user_study": _effectiveness(
        "table5_user_study", "Table 5: simulated user-study ratings per dataset and method",
        tables.user_study_table, 2, 10, _check_table5,
    ),
    "table6_quantitative": _effectiveness(
        "table6_quantitative", "Table 6: quantitative coverage and influence per method",
        tables.quantitative_table, 4, 12, _check_table6,
    ),
    "ablation_ranked_list": (
        "ablation: sort-on-read ranked lists vs re-sorting on every change",
        _ablation_ranked_list_run,
        _ablation_ranked_list_check,
        {
            "tiny": {"dataset": "twitter-small", "operations": 3_000},
            "full": {"dataset": "twitter-small", "operations": 15_000},
        },
    ),
    "ablation_lazy_buffer": (
        "ablation: MTTD heap candidate buffer vs linear scan",
        _ablation_buffer_run,
        _ablation_buffer_check,
        {
            "tiny": {"dataset": "twitter-small", "queries": 3},
            "full": {"dataset": "twitter-small", "queries": 8},
        },
    ),
}


def _environment() -> Dict[str, Any]:
    """Machine/interpreter metadata recorded in every report."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "numpy": np.__version__,
    }


def run_artefact(
    name: str, entry: Artefact, tier: str, seed: int, output_dir: Path
) -> Tuple[Dict[str, Any], str]:
    """Regenerate one tier of ``entry``, check it and write its two files.

    Returns the report written to ``output_dir / BENCH_<name>.json`` and the
    rendered artefact written to ``output_dir / <name>.txt``.
    """
    _, run, check, tiers = entry
    params = tiers[tier]
    start = time.perf_counter()
    rendered, result = run(params, seed)
    elapsed = time.perf_counter() - start
    report: Dict[str, Any] = {
        "benchmark": name,
        "tier": tier,
        "seed": seed,
        "params": dict(params),
        "environment": _environment(),
        "created_unix": time.time(),
        "elapsed_s": elapsed,
        "checks_passed": True,
        "check_error": None,
    }
    try:
        check(result, tier)
    except AssertionError as failure:
        report["checks_passed"] = False
        report["check_error"] = str(failure) or failure.__class__.__name__
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    (output_dir / f"BENCH_{name}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    (output_dir / f"{name}.txt").write_text(rendered + "\n", encoding="utf-8")
    return report, rendered
