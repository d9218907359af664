"""Tests of the ``repro.bench`` subsystem.

Covers :class:`BenchSpec` registration and validation, runner execution
with a synthetic (dataset-free) spec, and the ``BENCH_<name>.json`` +
rendered-artefact round trip of a real paper spec.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    BenchReport,
    BenchSpec,
    Outcome,
    get_spec,
    iter_specs,
    run_spec,
    spec_names,
)
from repro.bench.spec import register, unregister


def _trivial_spec(name: str, check=lambda value, tier: None) -> BenchSpec:
    """A dataset-free spec: ``run`` echoes its tier parameters."""

    def run(params, seed):
        return Outcome(
            artefact=f"artefact of {params['label']}", value=(params["label"], seed)
        )

    return BenchSpec(
        name=name,
        description="synthetic test spec",
        run=run,
        tiers={"tiny": {"label": "small"}, "full": {"label": "large"}},
        check=check,
    )


# ---------------------------------------------------------------------------
# Spec registration and validation
# ---------------------------------------------------------------------------


class TestSpecRegistry:
    def test_register_and_lookup(self):
        spec = _trivial_spec("synthetic_lookup")
        register(spec)
        try:
            assert get_spec("synthetic_lookup") is spec
            assert "synthetic_lookup" in spec_names()
            assert spec in iter_specs()
            assert iter_specs(["synthetic_lookup"]) == (spec,)
        finally:
            unregister("synthetic_lookup")

    def test_duplicate_registration_rejected(self):
        spec = _trivial_spec("synthetic_dup")
        register(spec)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register(_trivial_spec("synthetic_dup"))
        finally:
            unregister("synthetic_dup")

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="no_such_benchmark"):
            get_spec("no_such_benchmark")

    def test_missing_tier_rejected(self):
        with pytest.raises(ValueError, match="missing tier"):
            BenchSpec(name="bad", description="", run=lambda p, s: Outcome("", None),
                      tiers={"tiny": {}}, check=lambda value, tier: None)

    def test_builtin_suite_is_registered(self):
        # Exactly the paper's evaluation: Figures 7-14, Tables 3/5/6 and the
        # two ablations.  Speed is the end-to-end benchmark's business.
        assert set(spec_names()) == {
            "fig7_epsilon_time", "fig8_epsilon_score", "fig9_k_time",
            "fig10_eval_ratio", "fig11_k_score", "fig12_topics_time",
            "fig13_window_time", "fig14_update_time",
            "table3_datasets", "table5_user_study", "table6_quantitative",
            "ablation_ranked_list", "ablation_lazy_buffer",
        }


# ---------------------------------------------------------------------------
# Runner behaviour
# ---------------------------------------------------------------------------


class TestRunner:
    def test_run_spec_produces_valid_report(self, tmp_path):
        seen = []
        spec = _trivial_spec(
            "synthetic_run", check=lambda value, tier: seen.append((value, tier))
        )
        report = run_spec(spec, tier="full", seed=7)
        assert report.benchmark == "synthetic_run"
        assert report.tier == "full"
        assert report.seed == 7
        assert report.params == {"label": "large"}
        assert report.checks_passed and report.check_error is None
        assert report.elapsed_s >= 0.0
        assert "kernels" not in report.environment
        # the check saw the unserialised value and the tier it ran at.
        assert seen == [(("large", 7), "full")]
        # the rendered artefact is persisted next to the JSON report.
        assert report.artefact == "artefact of large"
        path = report.save(tmp_path)
        assert path.name == "BENCH_synthetic_run.json"
        assert (tmp_path / "synthetic_run.txt").read_text() == "artefact of large\n"

    def test_failing_check_marks_report(self):
        def check(value, tier):
            raise AssertionError("synthetic failure")

        report = run_spec(_trivial_spec("synthetic_fail", check=check), tier="tiny")
        assert not report.checks_passed
        assert "synthetic failure" in (report.check_error or "")
        # the failure is persisted in the JSON form too.
        data = report.to_dict()
        assert data["checks_passed"] is False
        assert data["check_error"] == "synthetic failure"


# ---------------------------------------------------------------------------
# Report round trip
# ---------------------------------------------------------------------------


class TestReportSchema:
    def test_json_round_trip_preserves_everything(self, tmp_path):
        report = run_spec(get_spec("fig10_eval_ratio"), tier="tiny", seed=7)
        assert report.checks_passed, report.check_error
        assert report.params == {"datasets": ["twitter-small"], "queries": 2}
        path = report.save(tmp_path)
        loaded = BenchReport.load(path)
        assert loaded == report
        assert loaded.to_dict() == report.to_dict()
        assert "artefact" not in loaded.to_dict()
        rendered = (tmp_path / "fig10_eval_ratio.txt").read_text()
        assert rendered.startswith("Figure 10") and "twitter-small" in rendered


# ---------------------------------------------------------------------------
# Which shape checks bind at which tier
# ---------------------------------------------------------------------------


class TestShapeCheckTiers:
    def test_untimed_checks_bind_at_both_tiers_and_wall_clock_ones_at_full(self):
        class NoPruning:
            panels = {"d": {"mtts": [0.9, 0.9], "mttd": [0.9, 0.9]}}

        class SlowerWithEpsilon:
            panels = {"d": {"mtts": [1.0, 2.0]}}

        for tier in ("tiny", "full"):
            with pytest.raises(AssertionError, match="pruning ineffective"):
                get_spec("fig10_eval_ratio").check(NoPruning, tier)
        # A two-query sweep times noise: Figure 7's shape is a full-tier claim.
        get_spec("fig7_epsilon_time").check(SlowerWithEpsilon, "tiny")
        with pytest.raises(AssertionError, match="did not drop"):
            get_spec("fig7_epsilon_time").check(SlowerWithEpsilon, "full")
