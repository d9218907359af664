"""Unit and property tests for the four hot-path kernels.

Covers the ``segment_sums`` helper's empty-segment edge cases, the NumPy
bodies against plain-Python references, and the per-kernel call timers
behind :func:`~repro.kernels.kernel_stats`.  The timers are process-wide
and only grow, so every count is the difference of two reads.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.kernels import kernel_stats, numpy_impl, segment_sums

BUILTIN_KERNELS = (
    "delta_topic_sums",
    "positive_counts",
    "ranked_merge",
    "window_scan",
)


def calls_since(before):
    """Calls per kernel between ``before`` and now."""
    after = kernel_stats()["per_kernel"]
    return {
        name: after[name]["calls"] - before["per_kernel"][name]["calls"]
        for name in BUILTIN_KERNELS
    }


def naive_segment_sums(data: np.ndarray, counts: np.ndarray) -> np.ndarray:
    out = np.zeros((len(counts),) + data.shape[1:], dtype=data.dtype)
    start = 0
    for j, count in enumerate(counts):
        out[j] = data[start : start + int(count)].sum(axis=0)
        start += int(count)
    return out


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


class TestProfiling:
    def test_counters_accumulate(self):
        before = kernel_stats()
        kernels.ranked_merge(np.array([2.0, 1.0]), np.array([1, 0], dtype=np.int64))
        kernels.ranked_merge(np.array([1.0, 1.0]), np.array([1, 0], dtype=np.int64))
        assert calls_since(before) == {
            "delta_topic_sums": 0, "positive_counts": 0, "ranked_merge": 2, "window_scan": 0,
        }
        spent = kernel_stats()["per_kernel"]["ranked_merge"]["total_ns"]
        assert spent > before["per_kernel"]["ranked_merge"]["total_ns"]

    def test_counters_accumulate_on_impl_error(self):
        before = kernel_stats()
        with pytest.raises(ValueError):  # lexsort keys of different lengths
            kernels.ranked_merge(np.array([1.0, 2.0]), np.array([1], dtype=np.int64))
        assert calls_since(before)["ranked_merge"] == 1

    def test_kernel_stats_shape(self):
        stats = kernel_stats()
        assert stats["backend"] == "numpy"
        assert tuple(stats["per_kernel"]) == BUILTIN_KERNELS
        for counters in stats["per_kernel"].values():
            assert set(counters) == {"calls", "total_ns"}

    def test_the_wrappers_run_the_numpy_bodies(self):
        for name in BUILTIN_KERNELS:
            wrapped = getattr(kernels, name)
            assert wrapped.__wrapped__ is getattr(numpy_impl, name)

    def test_ingest_calls_every_kernel(self):
        """The four call sites go through the timers (the end-to-end
        benchmark reads them on ``ingest_vec``)."""
        from repro.api import EngineConfig, KSIREngine
        from repro.core.processor import ProcessorConfig
        from repro.topics.model import MatrixTopicModel
        from tests.conftest import build_reference_stream

        dense, stream = build_reference_stream(3, 120, 4, 12)
        # A word a topic never emits has weight 0, which is what sends the
        # profile builder through ``positive_counts``.
        matrix = dense.topic_word_matrix.copy()
        matrix[:, 0] = 0.0
        model = MatrixTopicModel(dense.vocabulary, matrix)
        before = kernel_stats()
        config = EngineConfig(processor=ProcessorConfig(window_length=20, bucket_length=5))
        with KSIREngine(model, config) as engine:
            engine.process_stream(stream)
        assert all(calls_since(before).values()), calls_since(before)


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
