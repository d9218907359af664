"""Tests for the experiment harness (configs, runners, tables, figures)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.ablations import lazy_buffer_ablation, ranked_list_ablation
from repro.experiments.config import (
    DATASET_ETA,
    DEFAULT_EFFECTIVENESS_CONFIG,
    DEFAULT_EFFICIENCY_CONFIG,
    EffectivenessConfig,
    EfficiencyConfig,
    SweepValues,
    quick_effectiveness_config,
    quick_efficiency_config,
)
from repro.experiments.figures import (
    figure7_time_vs_epsilon,
    figure9_time_vs_k,
    figure10_evaluation_ratio,
    figure14_update_time,
)
from repro.experiments.reporting import render_figure, render_series, render_table
from repro.experiments.runner import (
    EffectivenessExperiment,
    EfficiencyExperiment,
    clear_caches,
    load_dataset,
    prepare_processor,
)
from repro.experiments.tables import dataset_statistics_table, quantitative_table, user_study_table

TINY_EFFICIENCY = EfficiencyConfig(
    datasets=("tiny",),
    num_queries=3,
    window_hours=3,
    seed=5,
    sweeps=SweepValues(
        epsilon=(0.1, 0.3),
        k=(2, 4),
        num_topics=(4, 6),
        window_hours=(2, 3),
    ),
)

TINY_EFFECTIVENESS = EffectivenessConfig(
    datasets=("tiny",),
    num_user_study_queries=3,
    num_quantitative_queries=3,
    window_hours=3,
    seed=5,
)


class TestConfigs:
    def test_default_configs_reference_known_datasets(self):
        for name in DEFAULT_EFFICIENCY_CONFIG.datasets:
            assert name in DATASET_ETA
        for name in DEFAULT_EFFECTIVENESS_CONFIG.datasets:
            assert name in DATASET_ETA

    def test_window_and_bucket_lengths(self):
        config = EfficiencyConfig(window_hours=6, bucket_minutes=30)
        assert config.window_length == 6 * 3600
        assert config.bucket_length == 30 * 60

    def test_scoring_for_uses_dataset_eta(self):
        config = EfficiencyConfig()
        assert config.scoring_for("aminer-small").eta == DATASET_ETA["aminer-small"]
        assert config.scoring_for("unknown-dataset").eta == 20.0

    def test_with_overrides(self):
        config = DEFAULT_EFFICIENCY_CONFIG.with_overrides(k=25)
        assert config.k == 25
        assert DEFAULT_EFFICIENCY_CONFIG.k == 10

    def test_quick_configs(self):
        assert quick_efficiency_config().num_queries <= 10
        assert quick_effectiveness_config().num_user_study_queries <= 10

    def test_sweep_defaults_match_paper(self):
        sweeps = SweepValues()
        assert sweeps.epsilon == (0.1, 0.2, 0.3, 0.4, 0.5)
        assert sweeps.k == (5, 10, 15, 20, 25)
        assert sweeps.window_hours == (6, 12, 18, 24, 30)


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["name", "value"], [["alpha", 1.2345], ["b", 10]], title="T")
        assert "T" in text
        assert "alpha" in text
        assert text.count("+") >= 6

    def test_render_series(self):
        text = render_series("k", [1, 2], {"mtts": [0.1, 0.2], "mttd": [0.3, 0.4]})
        assert "mtts" in text and "mttd" in text

    def test_render_figure_multiple_panels(self):
        text = render_figure(
            "Fig", "x", [1], {"panel-a": {"s": [1.0]}, "panel-b": {"s": [2.0]}}
        )
        assert "[panel-a]" in text and "[panel-b]" in text

    def test_cell_formatting_extremes(self):
        text = render_table(["v"], [[0.0000001], [123456.0], [0], [True], ["txt"]])
        assert "txt" in text


class TestRunnersOnTinyDataset:
    def test_load_dataset_is_cached(self):
        clear_caches()
        first = load_dataset("tiny", seed=5)
        second = load_dataset("tiny", seed=5)
        assert first is second
        different = load_dataset("tiny", seed=6)
        assert different is not first

    def test_load_dataset_with_topic_override(self):
        dataset = load_dataset("tiny", seed=5, num_topics=4)
        assert dataset.topic_model.num_topics == 4

    def test_prepare_processor_replays_fraction(self):
        dataset, processor = prepare_processor(
            "tiny", seed=5, window_length=3 * 3600, bucket_length=900,
            lambda_weight=0.5, eta=1.0, replay_fraction=0.5,
        )
        assert processor.current_time is not None
        assert processor.current_time <= dataset.stream.end_time
        assert processor.active_count > 0

    def test_efficiency_experiment_runs_all_algorithms(self):
        dataset, processor = prepare_processor(
            "tiny", seed=5, window_length=3 * 3600, bucket_length=900,
            lambda_weight=0.5, eta=1.0,
        )
        experiment = EfficiencyExperiment(dataset, processor, seed=5)
        workload = experiment.make_workload(3, k=5)
        runs = experiment.run(["celf", "mtts", "mttd", "topk"], workload, epsilon=0.2, k=5)
        assert set(runs) == {"celf", "mtts", "mttd", "topk"}
        for run in runs.values():
            assert len(run.results) == 3
            assert run.median_time_ms >= 0.0
            assert 0.0 <= run.mean_evaluation_ratio <= 1.0
        assert runs["mttd"].mean_score >= 0.95 * runs["celf"].mean_score

    def test_efficiency_run_with_k_override(self):
        dataset, processor = prepare_processor(
            "tiny", seed=5, window_length=3 * 3600, bucket_length=900,
            lambda_weight=0.5, eta=1.0,
        )
        experiment = EfficiencyExperiment(dataset, processor, seed=5)
        workload = experiment.make_workload(2, k=5)
        runs = experiment.run(["mttd"], workload, k=3)
        assert all(len(result.element_ids) <= 3 for result in runs["mttd"].results)

    def test_effectiveness_experiment_methods_and_metrics(self):
        dataset, processor = prepare_processor(
            "tiny", seed=5, window_length=3 * 3600, bucket_length=900,
            lambda_weight=0.5, eta=1.0,
        )
        experiment = EffectivenessExperiment(dataset, processor, seed=5)
        queries = experiment.topical_queries(2, k=4)
        record = experiment.evaluate_query(queries[0])
        assert set(record.results) == set(EffectivenessExperiment.METHOD_ORDER)
        for method in EffectivenessExperiment.METHOD_ORDER:
            assert 0.0 <= record.coverage[method] <= 1.0
            assert 0.0 <= record.influence[method] <= 1.0
        summary = experiment.quantitative(queries)
        assert set(summary) == set(EffectivenessExperiment.METHOD_ORDER)

    def test_effectiveness_user_study(self):
        dataset, processor = prepare_processor(
            "tiny", seed=5, window_length=3 * 3600, bucket_length=900,
            lambda_weight=0.5, eta=1.0,
        )
        experiment = EffectivenessExperiment(dataset, processor, seed=5)
        queries = experiment.topical_queries(2, k=3)
        outcome = experiment.user_study(queries, evaluators_per_query=2, noise=0.05)
        assert outcome.num_queries == 2
        assert set(outcome.representativeness) == set(EffectivenessExperiment.METHOD_ORDER)


class TestTables:
    def test_dataset_statistics_table(self):
        table = dataset_statistics_table(datasets=("tiny",), seed=5)
        assert len(table.rows) == 1
        assert table.rows[0][0] == "tiny"
        assert "Table 3" in table.render()

    def test_quantitative_table_shape(self):
        table = quantitative_table(TINY_EFFECTIVENESS)
        assert len(table.rows) == 2  # Coverage + Influence for one dataset
        assert table.headers[2:] == list(EffectivenessExperiment.METHOD_ORDER)
        rendered = table.render()
        assert "Coverage" in rendered and "Influence" in rendered

    def test_user_study_table_shape(self):
        table = user_study_table(TINY_EFFECTIVENESS, num_queries=2)
        assert len(table.rows) == 2
        assert any("kappa" in key for key in table.notes)
        assert "Table 5" in table.render()


class TestFigures:
    def test_figure7_shape(self):
        figure = figure7_time_vs_epsilon(TINY_EFFICIENCY, num_queries=2)
        assert figure.x_values == [0.1, 0.3]
        panel = figure.panels["tiny"]
        assert set(panel) == {"mtts", "mttd"}
        assert all(len(series) == 2 for series in panel.values())
        assert "Figure 7" in figure.render()

    def test_figure9_and_series_lookup(self):
        figure = figure9_time_vs_k(TINY_EFFICIENCY, num_queries=2)
        assert set(figure.panels["tiny"]) == {"celf", "mttd", "mtts", "topk", "sieve"}
        assert len(figure.series("tiny", "celf")) == 2

    def test_figure10_ratios_within_bounds(self):
        figure = figure10_evaluation_ratio(TINY_EFFICIENCY, num_queries=2)
        for series in figure.panels["tiny"].values():
            assert all(0.0 <= value <= 1.0 for value in series)

    def test_figure14_panels(self):
        figure = figure14_update_time(TINY_EFFICIENCY)
        assert "tiny vs z" in figure.panels
        assert "tiny vs T" in figure.panels
        assert all(value >= 0.0 for value in figure.panels["tiny vs z"]["update"])

    def test_figure14_axes_are_the_swept_z_and_t(self):
        """Each panel is printed against what it swept, also when the two
        sweeps differ in length."""
        config = replace(
            TINY_EFFICIENCY,
            sweeps=replace(TINY_EFFICIENCY.sweeps, num_topics=(4, 6, 8), window_hours=(2, 3)),
        )
        figure = figure14_update_time(config)
        assert figure.x_label == "z" and figure.x_values == [4.0, 6.0, 8.0]
        assert figure.panel_axes == {"tiny vs T": ("T (hours)", [2.0, 3.0])}
        assert len(figure.panels["tiny vs z"]["update"]) == 3
        assert len(figure.panels["tiny vs T"]["update"]) == 2
        headers = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in figure.render().splitlines()
            if line.startswith("| ") and not line.startswith("| update")
        ]
        assert headers == [["T (hours)", "2.0000", "3.0000"], ["z", "4.0000", "6.0000", "8.0000"]]
        assert "score writes" in figure.notes["update"]


class TestAblations:
    def test_ranked_list_ablation(self):
        result = ranked_list_ablation(dataset_name="tiny", seed=5, max_operations=2000)
        assert result.baseline_value > 0.0
        assert result.variant_value > 0.0
        assert "ranked-list" in result.render()

    def test_lazy_buffer_ablation(self):
        config = TINY_EFFICIENCY
        result = lazy_buffer_ablation(dataset_name="tiny", config=config, num_queries=2)
        assert result.variant_value >= 0.0
        assert result.speedup > 0.0
        heap = result.selections["heap-buffer"]
        assert len(heap) == 2 and all(heap)
        assert heap == result.selections["linear-scan-buffer"]
