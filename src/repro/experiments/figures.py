"""Regenerating the paper's figures (efficiency and scalability sweeps).

Each ``figureN_*`` function reproduces one figure of Section 5.3: it sweeps
the figure's x-axis parameter over every dataset, runs the relevant
algorithms on a shared query workload, and returns a :class:`FigureResult`
whose panels hold one series per algorithm — exactly the series the paper
plots.  A time point is the median of its queries' times, a score or ratio
point their mean.  Absolute milliseconds differ from the paper's Java/Xeon
testbed; the reported *shape* (orderings, speed-up factors, monotone
trends) is what the checks in :mod:`repro.experiments.paper` assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import DEFAULT_EFFICIENCY_CONFIG, EfficiencyConfig
from repro.experiments.reporting import render_figure
from repro.experiments.runner import EfficiencyExperiment, prepare_processor

#: The five methods of Figures 9, 11, 12 and 13, in the paper's legend order.
EFFICIENCY_METHODS: Sequence[str] = ("celf", "mttd", "mtts", "topk", "sieve")

#: The two index-based methods of Figures 7, 8 and 10.
INDEXED_METHODS: Sequence[str] = ("mttd", "mtts")


@dataclass
class FigureResult:
    """One reproduced figure: per-dataset panels of per-method series."""

    name: str
    x_label: str
    x_values: List[float]
    panels: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    notes: Dict[str, str] = field(default_factory=dict)
    #: Panel name → its own ``(x_label, x_values)``, for a panel that sweeps
    #: another parameter than the figure's axis.
    panel_axes: Dict[str, Tuple[str, List[float]]] = field(default_factory=dict)

    def render(self, precision: int = 4) -> str:
        """Aligned text rendering of every panel."""
        text = render_figure(
            self.name, self.x_label, self.x_values, self.panels, precision, self.panel_axes
        )
        if self.notes:
            note_lines = [f"  {key}: {value}" for key, value in sorted(self.notes.items())]
            text = text + "\n" + "\n".join(note_lines)
        return text

    def series(self, dataset: str, method: str) -> List[float]:
        """One method's series in one dataset panel."""
        return self.panels[dataset][method]


def _experiment_for(
    dataset_name: str,
    config: EfficiencyConfig,
    num_topics: Optional[int] = None,
    window_length: Optional[int] = None,
) -> EfficiencyExperiment:
    scoring = config.scoring_for(dataset_name)
    dataset, processor = prepare_processor(
        dataset_name,
        seed=config.seed,
        num_topics=num_topics,
        window_length=window_length or config.window_length,
        bucket_length=config.bucket_length,
        lambda_weight=scoring.lambda_weight,
        eta=scoring.eta,
        replay_fraction=config.replay_fraction,
    )
    return EfficiencyExperiment(dataset, processor, seed=config.seed)


# ---------------------------------------------------------------------------
# Figures 7 and 8 — effect of epsilon
# ---------------------------------------------------------------------------


def figure7_time_vs_epsilon(
    config: Optional[EfficiencyConfig] = None,
    num_queries: Optional[int] = None,
) -> FigureResult:
    """Figure 7: MTTS/MTTD query time (ms) as ε varies."""
    config = config or DEFAULT_EFFICIENCY_CONFIG
    queries_per_point = num_queries or config.num_queries
    epsilons = list(config.sweeps.epsilon)
    figure = FigureResult(
        name="Figure 7 — query time (ms) vs epsilon",
        x_label="epsilon",
        x_values=[float(e) for e in epsilons],
    )
    for dataset_name in config.datasets:
        experiment = _experiment_for(dataset_name, config)
        workload = experiment.make_workload(queries_per_point, config.k)
        panel: Dict[str, List[float]] = {method: [] for method in INDEXED_METHODS}
        for epsilon in epsilons:
            runs = experiment.run(INDEXED_METHODS, workload, epsilon=epsilon, k=config.k)
            for method in INDEXED_METHODS:
                panel[method].append(runs[method].median_time_ms)
        figure.panels[dataset_name] = panel
    return figure


def figure8_score_vs_epsilon(
    config: Optional[EfficiencyConfig] = None,
    num_queries: Optional[int] = None,
) -> FigureResult:
    """Figure 8: MTTS/MTTD result score as ε varies (CELF shown for reference)."""
    config = config or DEFAULT_EFFICIENCY_CONFIG
    queries_per_point = num_queries or config.num_queries
    epsilons = list(config.sweeps.epsilon)
    figure = FigureResult(
        name="Figure 8 — representativeness score vs epsilon",
        x_label="epsilon",
        x_values=[float(e) for e in epsilons],
    )
    for dataset_name in config.datasets:
        experiment = _experiment_for(dataset_name, config)
        workload = experiment.make_workload(queries_per_point, config.k)
        celf_runs = experiment.run(["celf"], workload, k=config.k)
        celf_score = celf_runs["celf"].mean_score
        panel: Dict[str, List[float]] = {method: [] for method in INDEXED_METHODS}
        panel["celf"] = [celf_score for _ in epsilons]
        for epsilon in epsilons:
            runs = experiment.run(INDEXED_METHODS, workload, epsilon=epsilon, k=config.k)
            for method in INDEXED_METHODS:
                panel[method].append(runs[method].mean_score)
        figure.panels[dataset_name] = panel
    return figure


# ---------------------------------------------------------------------------
# Figures 9, 10, 11 — effect of k
# ---------------------------------------------------------------------------


def _k_sweep(
    config: EfficiencyConfig,
    num_queries: Optional[int],
    methods: Sequence[str],
    statistic: str,
    name: str,
) -> FigureResult:
    queries_per_point = num_queries or config.num_queries
    k_values = list(config.sweeps.k)
    figure = FigureResult(
        name=name,
        x_label="k",
        x_values=[float(k) for k in k_values],
    )
    for dataset_name in config.datasets:
        experiment = _experiment_for(dataset_name, config)
        workload = experiment.make_workload(queries_per_point, config.k)
        panel: Dict[str, List[float]] = {method: [] for method in methods}
        for k in k_values:
            runs = experiment.run(methods, workload, epsilon=config.epsilon, k=k)
            for method in methods:
                run = runs[method]
                panel[method].append(getattr(run, statistic))
        figure.panels[dataset_name] = panel
    return figure


def figure9_time_vs_k(
    config: Optional[EfficiencyConfig] = None, num_queries: Optional[int] = None
) -> FigureResult:
    """Figure 9: query time (ms) of all five methods as k varies."""
    config = config or DEFAULT_EFFICIENCY_CONFIG
    return _k_sweep(
        config,
        num_queries,
        EFFICIENCY_METHODS,
        "median_time_ms",
        "Figure 9 — query time (ms) vs k",
    )


def figure10_evaluation_ratio(
    config: Optional[EfficiencyConfig] = None, num_queries: Optional[int] = None
) -> FigureResult:
    """Figure 10: fraction of active elements evaluated by MTTS/MTTD vs k."""
    config = config or DEFAULT_EFFICIENCY_CONFIG
    return _k_sweep(
        config,
        num_queries,
        INDEXED_METHODS,
        "mean_evaluation_ratio",
        "Figure 10 — ratio of evaluated elements vs k",
    )


def figure11_score_vs_k(
    config: Optional[EfficiencyConfig] = None, num_queries: Optional[int] = None
) -> FigureResult:
    """Figure 11: result score of all five methods as k varies."""
    config = config or DEFAULT_EFFICIENCY_CONFIG
    return _k_sweep(
        config,
        num_queries,
        EFFICIENCY_METHODS,
        "mean_score",
        "Figure 11 — representativeness score vs k",
    )


# ---------------------------------------------------------------------------
# Figures 12 and 13 — scalability in z and T
# ---------------------------------------------------------------------------


def figure12_time_vs_topics(
    config: Optional[EfficiencyConfig] = None,
    num_queries: Optional[int] = None,
    methods: Sequence[str] = EFFICIENCY_METHODS,
) -> FigureResult:
    """Figure 12: query time (ms) as the number of topics z varies."""
    config = config or DEFAULT_EFFICIENCY_CONFIG
    queries_per_point = num_queries or config.num_queries
    z_values = list(config.sweeps.num_topics)
    figure = FigureResult(
        name="Figure 12 — query time (ms) vs number of topics",
        x_label="z",
        x_values=[float(z) for z in z_values],
    )
    for dataset_name in config.datasets:
        panel: Dict[str, List[float]] = {method: [] for method in methods}
        for z in z_values:
            experiment = _experiment_for(dataset_name, config, num_topics=z)
            workload = experiment.make_workload(queries_per_point, config.k)
            runs = experiment.run(methods, workload, epsilon=config.epsilon, k=config.k)
            for method in methods:
                panel[method].append(runs[method].median_time_ms)
        figure.panels[dataset_name] = panel
    return figure


def figure13_time_vs_window(
    config: Optional[EfficiencyConfig] = None,
    num_queries: Optional[int] = None,
    methods: Sequence[str] = EFFICIENCY_METHODS,
) -> FigureResult:
    """Figure 13: query time (ms) as the window length T varies."""
    config = config or DEFAULT_EFFICIENCY_CONFIG
    queries_per_point = num_queries or config.num_queries
    window_hours = list(config.sweeps.window_hours)
    figure = FigureResult(
        name="Figure 13 — query time (ms) vs window length (hours)",
        x_label="T (hours)",
        x_values=[float(hours) for hours in window_hours],
    )
    for dataset_name in config.datasets:
        panel: Dict[str, List[float]] = {method: [] for method in methods}
        for hours in window_hours:
            experiment = _experiment_for(
                dataset_name, config, window_length=hours * 3600
            )
            workload = experiment.make_workload(queries_per_point, config.k)
            runs = experiment.run(methods, workload, epsilon=config.epsilon, k=config.k)
            for method in methods:
                panel[method].append(runs[method].median_time_ms)
        figure.panels[dataset_name] = panel
    return figure


# ---------------------------------------------------------------------------
# Figure 14 — ranked-list update time
# ---------------------------------------------------------------------------


def figure14_update_time(
    config: Optional[EfficiencyConfig] = None,
) -> FigureResult:
    """Figure 14: per-element ranked-list update time vs z and vs T.

    The "vs z" panels sweep the figure's axis, z; the "vs T" panels carry
    their own, T in hours.
    """
    config = config or DEFAULT_EFFICIENCY_CONFIG
    z_values = list(config.sweeps.num_topics)
    window_hours = list(config.sweeps.window_hours)
    figure = FigureResult(
        name="Figure 14 — ranked-list update time (ms per element)",
        x_label="z",
        x_values=[float(z) for z in z_values],
    )
    figure.notes["update"] = (
        "the update timer measures score writes only: a list is sorted at its "
        "first traversal after a change, which counts in query time"
    )
    for dataset_name in config.datasets:
        z_series: List[float] = []
        for z in z_values:
            experiment = _experiment_for(dataset_name, config, num_topics=z)
            z_series.append(experiment.processor.update_timer.mean_ms)
        t_series: List[float] = []
        for hours in window_hours:
            experiment = _experiment_for(dataset_name, config, window_length=hours * 3600)
            t_series.append(experiment.processor.update_timer.mean_ms)
        figure.panels[f"{dataset_name} vs z"] = {"update": z_series}
        figure.panels[f"{dataset_name} vs T"] = {"update": t_series}
        figure.panel_axes[f"{dataset_name} vs T"] = (
            "T (hours)", [float(hours) for hours in window_hours]
        )
    return figure
