"""Tests of the paper's artefact table, :mod:`repro.experiments.paper`.

Covers the table's contents, :func:`run_artefact` on a synthetic
(dataset-free) entry, the ``BENCH_<name>.json`` + rendered-artefact files of
a real paper artefact, and which shape checks bind at which tier.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.ablations import AblationResult
from repro.experiments.paper import ARTEFACTS, TIERS, run_artefact

#: The keys of every ``BENCH_<name>.json``, in the order they are written.
REPORT_KEYS = [
    "benchmark", "tier", "seed", "params", "environment", "created_unix",
    "elapsed_s", "checks_passed", "check_error",
]


def _trivial_entry(check=lambda value, tier: None):
    """A dataset-free entry: ``run`` echoes its tier parameters."""

    def run(params, seed):
        return f"artefact of {params['label']}", (params["label"], seed)

    return (
        "synthetic test entry",
        run,
        check,
        {"tiny": {"label": "small"}, "full": {"label": "large"}},
    )


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


class TestArtefactTable:
    def test_table_holds_the_thirteen_artefacts(self):
        # Exactly the paper's evaluation: Figures 7-14, Tables 3/5/6 and the
        # two ablations.  Speed is the end-to-end benchmark's business.
        assert set(ARTEFACTS) == {
            "fig7_epsilon_time", "fig8_epsilon_score", "fig9_k_time",
            "fig10_eval_ratio", "fig11_k_score", "fig12_topics_time",
            "fig13_window_time", "fig14_update_time",
            "table3_datasets", "table5_user_study", "table6_quantitative",
            "ablation_ranked_list", "ablation_lazy_buffer",
        }
        for name, (description, run, check, tiers) in ARTEFACTS.items():
            assert description and callable(run) and callable(check), name
            assert set(tiers) == set(TIERS), name


# ---------------------------------------------------------------------------
# Runner behaviour
# ---------------------------------------------------------------------------


class TestRunner:
    def test_run_spec_produces_valid_report(self, tmp_path):
        seen = []
        entry = _trivial_entry(check=lambda value, tier: seen.append((value, tier)))
        report, rendered = run_artefact("synthetic_run", entry, "full", 7, tmp_path)
        assert report["benchmark"] == "synthetic_run"
        assert report["tier"] == "full"
        assert report["seed"] == 7
        assert report["params"] == {"label": "large"}
        assert report["checks_passed"] and report["check_error"] is None
        assert report["elapsed_s"] >= 0.0
        assert "kernels" not in report["environment"]
        # the check saw the unserialised value and the tier it ran at.
        assert seen == [(("large", 7), "full")]
        # the rendered artefact is persisted next to the JSON report.
        assert rendered == "artefact of large"
        assert json.loads((tmp_path / "BENCH_synthetic_run.json").read_text()) == report
        assert (tmp_path / "synthetic_run.txt").read_text() == "artefact of large\n"

    def test_failing_check_marks_report(self, tmp_path):
        def check(value, tier):
            raise AssertionError("synthetic failure")

        report, _ = run_artefact("synthetic_fail", _trivial_entry(check), "tiny", 2019, tmp_path)
        assert not report["checks_passed"]
        assert "synthetic failure" in (report["check_error"] or "")
        # the failure is persisted in the JSON form, and the artefact is
        # still written.
        data = json.loads((tmp_path / "BENCH_synthetic_fail.json").read_text())
        assert data["checks_passed"] is False
        assert data["check_error"] == "synthetic failure"
        assert (tmp_path / "synthetic_fail.txt").read_text() == "artefact of small\n"


# ---------------------------------------------------------------------------
# Report files of a real artefact
# ---------------------------------------------------------------------------


class TestReportSchema:
    def test_json_round_trip_preserves_everything(self, tmp_path):
        name = "fig10_eval_ratio"
        report, rendered = run_artefact(name, ARTEFACTS[name], "tiny", 7, tmp_path)
        assert report["checks_passed"], report["check_error"]
        assert report["params"] == {"datasets": ["twitter-small"], "queries": 2}
        data = json.loads((tmp_path / f"BENCH_{name}.json").read_text())
        assert list(data) == REPORT_KEYS
        assert data == report
        text = (tmp_path / f"{name}.txt").read_text()
        assert text == rendered + "\n"
        assert text.startswith("Figure 10") and "twitter-small" in text


# ---------------------------------------------------------------------------
# Which shape checks bind at which tier
# ---------------------------------------------------------------------------


def _check(name):
    return ARTEFACTS[name][2]


class TestShapeCheckTiers:
    def test_untimed_checks_bind_at_both_tiers_and_wall_clock_ones_at_full(self):
        class NoPruning:
            panels = {"d": {"mtts": [0.9, 0.9], "mttd": [0.9, 0.9]}}

        class SlowerWithEpsilon:
            panels = {"d": {"mtts": [1.0, 2.0]}}

        for tier in TIERS:
            with pytest.raises(AssertionError, match="pruning ineffective"):
                _check("fig10_eval_ratio")(NoPruning, tier)
        # A two-query sweep times noise: Figure 7's shape is a full-tier claim.
        _check("fig7_epsilon_time")(SlowerWithEpsilon, "tiny")
        with pytest.raises(AssertionError, match="did not drop"):
            _check("fig7_epsilon_time")(SlowerWithEpsilon, "full")

    def test_buffer_ablation_selections_bind_at_both_tiers_and_its_time_at_full(self):
        def ablation(heap_ids, heap_ms):
            return AblationResult(
                name="buffer", baseline_label="linear-scan-buffer",
                variant_label="heap-buffer", baseline_value=1.0,
                variant_value=heap_ms, unit="ms/query",
                selections={"linear-scan-buffer": [(1, 2), (3,)],
                            "heap-buffer": heap_ids},
            )

        check = _check("ablation_lazy_buffer")
        for tier in TIERS:
            check(ablation([(1, 2), (3,)], 1.0), tier)
            with pytest.raises(AssertionError, match="1 of 2 queries"):
                check(ablation([(2, 1), (3,)], 1.0), tier)
            with pytest.raises(AssertionError, match="different ids"):
                check(ablation([(1, 2)], 1.0), tier)
        check(ablation([(1, 2), (3,)], 9.0), "tiny")
        with pytest.raises(AssertionError, match="dramatically slower"):
            check(ablation([(1, 2), (3,)], 9.0), "full")
