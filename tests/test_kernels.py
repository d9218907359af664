"""Unit and property tests for the kernel registry and built-in kernels.

Covers the registry contract (register/lookup/replace-in-place), the
``segment_sums`` helper's empty-segment edge cases, backend selection
(``configure_kernels``/``use_kernels``), the per-kernel timing counters,
and — when the ``[kernels]`` extra is installed — per-kernel equivalence
of the Numba-compiled implementations against the NumPy references.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    KERNEL_CHOICES,
    active_kernel_backend,
    configure_kernels,
    get_kernel,
    kernel_mode,
    kernel_names,
    kernel_stats,
    numba_available,
    numpy_impl,
    register_kernel,
    reset_kernel_stats,
    segment_sums,
    use_kernels,
)
from repro.kernels.registry import _REGISTRY

BUILTIN_KERNELS = (
    "delta_topic_sums",
    "positive_counts",
    "ranked_merge",
    "window_scan",
)


@pytest.fixture(autouse=True)
def restore_kernel_mode():
    """Kernel selection is process-wide; leave it as we found it."""
    previous = kernel_mode()
    yield
    configure_kernels(previous)


def naive_segment_sums(data: np.ndarray, counts: np.ndarray) -> np.ndarray:
    out = np.zeros((len(counts),) + data.shape[1:], dtype=data.dtype)
    start = 0
    for j, count in enumerate(counts):
        out[j] = data[start : start + int(count)].sum(axis=0)
        start += int(count)
    return out


class TestRegistry:
    def test_builtin_kernels_registered(self):
        assert set(kernel_names()) >= set(BUILTIN_KERNELS)

    def test_get_kernel_normalises_name(self):
        assert get_kernel(" Ranked_Merge ") is get_kernel("ranked_merge")

    def test_unknown_kernel_lists_registered(self):
        with pytest.raises(KeyError, match="ranked_merge"):
            get_kernel("nope")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            register_kernel("  ", lambda: None)

    def test_reregistration_swaps_impl_in_place(self):
        """Cached handles must observe re-registration (stable identity)."""
        handle = register_kernel("swap-test", lambda x: x + 1)
        try:
            assert handle(1) == 2
            assert register_kernel("swap-test", lambda x: x + 10) is handle
            assert handle(1) == 11
        finally:
            _REGISTRY.pop("swap-test", None)

    def test_attach_numba_to_unknown_kernel_raises(self):
        from repro.kernels.registry import attach_numba

        with pytest.raises(KeyError):
            attach_numba("nope", lambda: None)


class TestSegmentSums:
    def test_empty_counts(self):
        out = segment_sums(np.empty((0, 3)), np.empty(0, dtype=np.intp))
        assert out.shape == (0, 3)

    def test_all_empty_segments(self):
        counts = np.zeros(4, dtype=np.intp)
        out = segment_sums(np.empty((0, 2)), counts)
        assert out.shape == (4, 2)
        assert not out.any()

    def test_single_row_single_segment(self):
        data = np.array([[1.5, -2.0]])
        out = segment_sums(data, np.array([1], dtype=np.intp))
        np.testing.assert_array_equal(out, data)

    def test_interior_empty_segments_are_zero(self):
        """The raw-reduceat failure mode: empty segments must not leak."""
        data = np.array([[1.0], [2.0], [4.0]])
        counts = np.array([0, 2, 0, 1, 0], dtype=np.intp)
        out = segment_sums(data, counts)
        np.testing.assert_array_equal(out[:, 0], [0.0, 3.0, 0.0, 4.0, 0.0])

    def test_one_dimensional_data(self):
        data = np.array([1, 2, 3, 4], dtype=np.intp)
        counts = np.array([3, 0, 1], dtype=np.intp)
        out = segment_sums(data, counts)
        assert out.dtype == np.intp
        np.testing.assert_array_equal(out, [6, 0, 4])

    def test_dtype_preserved(self):
        data = np.ones((2, 2), dtype=np.float32)
        out = segment_sums(data, np.array([2], dtype=np.intp))
        assert out.dtype == np.float32

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=5), max_size=12),
        width=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_loop(self, counts, width, seed):
        counts = np.asarray(counts, dtype=np.intp)
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(int(counts.sum()), width))
        np.testing.assert_allclose(
            segment_sums(data, counts), naive_segment_sums(data, counts), atol=0
        )


class TestBackendSelection:
    def test_choices(self):
        assert KERNEL_CHOICES == ("auto", "numba", "numpy")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel mode"):
            configure_kernels("fortran")

    def test_numpy_mode_forces_reference(self):
        assert configure_kernels("numpy") == "numpy"
        assert active_kernel_backend() == "numpy"
        assert get_kernel("ranked_merge").backend == "numpy"

    def test_auto_mode_resolves(self):
        resolved = configure_kernels("auto")
        assert resolved == ("numba" if numba_available() else "numpy")

    @pytest.mark.skipif(numba_available(), reason="numba installed")
    def test_numba_mode_requires_numba(self):
        with pytest.raises(ValueError, match="repro-ksir\\[kernels\\]"):
            configure_kernels("numba")

    @pytest.mark.skipif(not numba_available(), reason="numba not installed")
    def test_numba_mode_activates_compiled(self):
        assert configure_kernels("numba") == "numba"
        assert get_kernel("ranked_merge").backend == "numba"

    def test_use_kernels_restores_mode(self):
        configure_kernels("auto")
        with use_kernels("numpy") as resolved:
            assert resolved == "numpy"
            assert kernel_mode() == "numpy"
        assert kernel_mode() == "auto"

    def test_use_kernels_restores_on_error(self):
        configure_kernels("auto")
        with pytest.raises(RuntimeError):
            with use_kernels("numpy"):
                raise RuntimeError("boom")
        assert kernel_mode() == "auto"

    def test_engine_config_applies_mode(self):
        """create_backend() is the chokepoint that applies KernelConfig."""
        from repro.api import EngineConfig, KernelConfig, KSIREngine
        from tests.conftest import build_reference_stream

        model, _ = build_reference_stream(0, 4, 2, 6)
        engine = KSIREngine(model, EngineConfig(kernels=KernelConfig(mode="numpy")))
        assert kernel_mode() == "numpy"
        assert engine.stats()["kernels"]["backend"] == "numpy"


class TestProfiling:
    def test_counters_accumulate_and_reset(self):
        handle = get_kernel("ranked_merge")
        reset_kernel_stats()
        assert handle.calls == 0 and handle.total_ns == 0
        handle(np.array([2.0, 1.0]), np.array([1, 0], dtype=np.int64))
        handle(np.array([1.0, 1.0]), np.array([1, 0], dtype=np.int64))
        assert handle.calls == 2
        assert handle.total_ns > 0
        reset_kernel_stats()
        assert handle.calls == 0 and handle.total_ns == 0

    def test_counters_accumulate_on_impl_error(self):
        handle = register_kernel("raises-test", lambda: 1 / 0)
        try:
            with pytest.raises(ZeroDivisionError):
                handle()
            assert handle.calls == 1
        finally:
            _REGISTRY.pop("raises-test", None)

    def test_kernel_stats_shape(self):
        stats = kernel_stats()
        assert stats["backend"] in ("numba", "numpy")
        for name in BUILTIN_KERNELS:
            counters = stats["per_kernel"][name]
            assert set(counters) == {"calls", "total_ns"}


ranked_entries = st.lists(
    st.tuples(
        # Few distinct scores → ties are the common case, and ±0.0 is in
        # the pool so signed-zero tie handling is exercised.
        st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 2.0]),
        st.integers(min_value=-50, max_value=50),
    ),
    max_size=60,
)


class TestNumpyReferenceImpls:
    @given(entries=ranked_entries)
    @settings(max_examples=80, deadline=None)
    def test_ranked_merge_matches_tuple_sort(self, entries):
        """lexsort == the Python (-score, key) tuple order, ties included."""
        scores = np.array([score for score, _ in entries], dtype=np.float64)
        keys = np.array([key for _, key in entries], dtype=np.int64)
        order = numpy_impl.ranked_merge(scores, keys)
        merged = [(scores[i], keys[i]) for i in order.tolist()]
        expected = sorted(
            ((score, key) for score, key in entries),
            key=lambda item: (-item[0], item[1]),
        )
        assert merged == expected

    def test_window_scan_masks(self):
        element_ids = np.array([0, -1, 2, 3], dtype=np.int64)
        in_window = np.array([True, False, True, False])
        timestamps = np.array([5, 0, 20, 7], dtype=np.int64)
        last_activity = np.array([5, 0, 20, 9], dtype=np.int64)
        expired, inactive = numpy_impl.window_scan(
            element_ids, in_window, timestamps, last_activity, 10
        )
        # Row 0 is in-window and stale → expired; rows 0 and 3 are live
        # rows whose last activity predates the window → recyclable.
        np.testing.assert_array_equal(expired, [0])
        np.testing.assert_array_equal(inactive, [0, 3])

    def test_window_scan_empty(self):
        empty_ids = np.empty(0, dtype=np.int64)
        expired, inactive = numpy_impl.window_scan(
            empty_ids,
            np.empty(0, dtype=bool),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            10,
        )
        assert expired.size == 0 and inactive.size == 0

    def test_positive_counts(self):
        weights = np.array([0.5, 0.0, -1.0, 2.0, 3.0])
        counts = np.array([3, 0, 2], dtype=np.intp)
        np.testing.assert_array_equal(
            numpy_impl.positive_counts(weights, counts), [1, 0, 2]
        )

    def test_delta_topic_sums_gather_and_reduce(self):
        profile_matrix = np.arange(12.0).reshape(4, 3)
        indices = np.array([3, 1, 2], dtype=np.intp)
        counts = np.array([2, 0, 1], dtype=np.intp)
        out = numpy_impl.delta_topic_sums(profile_matrix, indices, counts)
        np.testing.assert_array_equal(out[0], profile_matrix[3] + profile_matrix[1])
        np.testing.assert_array_equal(out[1], 0.0)
        np.testing.assert_array_equal(out[2], profile_matrix[2])


@pytest.mark.skipif(not numba_available(), reason="numba not installed")
class TestCompiledEquivalence:
    """Per-kernel: the @njit variant must match the NumPy reference."""

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=4), max_size=10),
        topics=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_delta_topic_sums(self, counts, topics, seed):
        from repro.kernels import numba_impl

        counts = np.asarray(counts, dtype=np.intp)
        rng = np.random.default_rng(seed)
        rows = max(int(counts.sum()), 1)
        matrix = rng.random((rows + 2, topics))
        indices = rng.integers(0, rows + 2, size=int(counts.sum())).astype(np.intp)
        np.testing.assert_allclose(
            numba_impl._delta_topic_sums(matrix, indices, counts),
            numpy_impl.delta_topic_sums(matrix, indices, counts),
            atol=1e-12,
        )

    @given(entries=ranked_entries)
    @settings(max_examples=30, deadline=None)
    def test_ranked_merge(self, entries):
        from repro.kernels import numba_impl

        scores = np.array([score for score, _ in entries], dtype=np.float64)
        keys = np.array([key for _, key in entries], dtype=np.int64)
        np.testing.assert_array_equal(
            numba_impl._ranked_merge(scores, keys),
            numpy_impl.ranked_merge(scores, keys),
        )

    @given(
        rows=st.integers(min_value=0, max_value=30),
        window_start=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_window_scan(self, rows, window_start, seed):
        from repro.kernels import numba_impl

        rng = np.random.default_rng(seed)
        element_ids = rng.integers(-1, 10, size=rows).astype(np.int64)
        in_window = rng.random(rows) < 0.5
        timestamps = rng.integers(0, 40, size=rows).astype(np.int64)
        last_activity = rng.integers(0, 40, size=rows).astype(np.int64)
        got = numba_impl._window_scan(
            element_ids, in_window, timestamps, last_activity, window_start
        )
        want = numpy_impl.window_scan(
            element_ids, in_window, timestamps, last_activity, window_start
        )
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=4), max_size=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_positive_counts(self, counts, seed):
        from repro.kernels import numba_impl

        counts = np.asarray(counts, dtype=np.intp)
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=int(counts.sum()))
        weights[rng.random(weights.shape) < 0.3] = 0.0
        np.testing.assert_array_equal(
            numba_impl._positive_counts(weights, counts),
            numpy_impl.positive_counts(weights, counts),
        )
