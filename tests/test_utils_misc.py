"""Tests for timing, RNG and validation utilities."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.utils.rng import derive_seed, make_rng, spawn_rng
from repro.utils.timing import RECENT_SAMPLES, StopWatch, TimingStats
from repro.utils.validation import (
    require_in_range,
    require_non_negative,
    require_positive,
    require_probability,
)


class TestStopWatch:
    def test_measures_elapsed_time(self):
        watch = StopWatch()
        watch.start()
        time.sleep(0.01)
        elapsed = watch.stop()
        assert elapsed >= 0.009
        assert watch.seconds == elapsed
        assert watch.milliseconds == pytest.approx(elapsed * 1000.0)

    def test_context_manager(self):
        with StopWatch() as watch:
            time.sleep(0.005)
        assert watch.seconds >= 0.004

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            StopWatch().stop()


class TestTimingStats:
    def test_empty_stats(self):
        stats = TimingStats(name="empty")
        assert stats.count == 0
        assert stats.mean_ms == 0.0
        assert stats.median_ms == 0.0
        assert stats.max_ms == 0.0
        assert stats.stdev_ms == 0.0

    def test_add_and_aggregate(self):
        stats = TimingStats()
        stats.add(0.001)
        stats.add(0.003)
        assert stats.count == 2
        assert stats.mean_ms == pytest.approx(2.0)
        assert stats.median_ms == pytest.approx(2.0)
        assert stats.max_ms == pytest.approx(3.0)
        assert stats.min_ms == pytest.approx(1.0)
        assert stats.total_ms == pytest.approx(4.0)

    def test_add_ms_and_median_odd(self):
        stats = TimingStats()
        for value in (5.0, 1.0, 3.0):
            stats.add_ms(value)
        assert stats.median_ms == 3.0

    def test_measure_context(self):
        stats = TimingStats()
        with stats.measure():
            time.sleep(0.002)
        assert stats.count == 1
        assert stats.mean_ms >= 1.0

    def test_extend_and_iter(self):
        left = TimingStats()
        left.add_ms(1.0)
        right = TimingStats()
        right.add_ms(2.0)
        left.extend(right)
        assert list(left) == [1.0, 2.0]
        assert len(left) == 2

    def test_samples_are_bounded_and_totals_exact(self):
        stats = TimingStats()
        calls = 10 * RECENT_SAMPLES
        for value in range(1, calls + 1):
            stats.add_ms(float(value))
        assert len(stats.samples_ms) == RECENT_SAMPLES
        assert list(stats.samples_ms)[-1] == float(calls)
        assert stats.count == calls
        assert stats.total_ms == calls * (calls + 1) / 2
        assert stats.mean_ms == (calls + 1) / 2
        assert stats.max_ms == float(calls) and stats.min_ms == 1.0
        # The median describes the recent tail, not the whole history.
        assert stats.median_ms == calls - (RECENT_SAMPLES - 1) / 2

    def test_add_many_keeps_the_per_operation_mean(self):
        stats = TimingStats()
        stats.add_many(0.006, 3)
        stats.add_many(0.001, 0)  # an empty bucket records nothing
        assert stats.count == 3
        assert stats.total_ms == pytest.approx(6.0)
        assert stats.mean_ms == pytest.approx(2.0)
        assert list(stats.samples_ms) == [pytest.approx(2.0)]

    def test_summary_is_readable(self):
        stats = TimingStats(name="queries")
        stats.add_ms(1.5)
        text = stats.summary()
        assert "queries" in text and "n=1" in text


class TestRng:
    def test_make_rng_from_seed_is_deterministic(self):
        assert make_rng(42).random() == make_rng(42).random()

    def test_make_rng_passthrough(self):
        generator = np.random.default_rng(1)
        assert make_rng(generator) is generator

    def test_derive_seed_depends_on_labels(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_derive_seed_handles_none(self):
        assert derive_seed(None, "x") == derive_seed(None, "x")

    def test_spawn_rng_deterministic(self):
        assert spawn_rng(3, "dataset").random() == spawn_rng(3, "dataset").random()


class TestValidation:
    def test_require_positive(self):
        require_positive(1, "x")
        with pytest.raises(ValueError):
            require_positive(0, "x")
        with pytest.raises(ValueError):
            require_positive(-1, "x")

    def test_require_non_negative(self):
        require_non_negative(0, "x")
        with pytest.raises(ValueError):
            require_non_negative(-0.1, "x")
        require_non_negative(float("inf"), "x")
        with pytest.raises(ValueError):
            require_non_negative(float("nan"), "x")

    def test_require_probability(self):
        require_probability(0.0, "p")
        require_probability(1.0, "p")
        with pytest.raises(ValueError):
            require_probability(1.1, "p")
        with pytest.raises(ValueError):
            require_probability(-0.1, "p")

    def test_require_in_range_inclusive(self):
        require_in_range(5, "x", 0, 10)
        with pytest.raises(ValueError):
            require_in_range(11, "x", 0, 10)
        with pytest.raises(ValueError):
            require_in_range(-1, "x", 0, 10)

    def test_require_in_range_exclusive(self):
        with pytest.raises(ValueError):
            require_in_range(0, "x", 0, 10, low_inclusive=False)
        with pytest.raises(ValueError):
            require_in_range(10, "x", 0, 10, high_inclusive=False)
        require_in_range(5, "x", 0, 10, low_inclusive=False, high_inclusive=False)

    @pytest.mark.parametrize(
        "bounds",
        [
            {"low": 0.0},
            {"high": 1.0},
            {"low": 0.0, "high": 1.0},
            {"low": 0.0, "high": 1.0, "low_inclusive": False, "high_inclusive": False},
        ],
    )
    def test_require_in_range_rejects_nan(self, bounds):
        with pytest.raises(ValueError):
            require_in_range(float("nan"), "x", **bounds)
