"""The watermark tracker and the bounded reordering buffer.

These tests drive :class:`repro.streams.StreamIngestor` with a recording
sink, so every assertion is about the exact committed-bucket sequence —
grid, membership, in-bucket order — that an execution backend would see.
The reference behaviour throughout is
:meth:`repro.core.stream.SocialStream.buckets` over the same elements.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import pytest

from repro.core.element import SocialElement
from repro.core.stream import SocialStream
from repro.streams import StreamIngestor, WatermarkTracker
from repro.utils.timing import RECENT_SAMPLES


def make_element(element_id: int, timestamp: int) -> SocialElement:
    return SocialElement(
        element_id=element_id,
        timestamp=timestamp,
        tokens=("w",),
        references=(),
    )


class RecordingSink:
    """Collects ``(end_time, element_ids)`` for every sealed bucket."""

    def __init__(self) -> None:
        self.buckets: List[Tuple[int, Tuple[int, ...]]] = []

    def __call__(self, elements: Sequence[SocialElement], end_time: int) -> None:
        self.buckets.append(
            (end_time, tuple(element.element_id for element in elements))
        )


def reference_buckets(
    elements: Sequence[SocialElement], bucket_length: int
) -> List[Tuple[int, Tuple[int, ...]]]:
    """What the in-order replay would commit for the same elements."""
    stream = SocialStream(elements)
    return [
        (bucket.end_time, tuple(element.element_id for element in bucket))
        for bucket in stream.buckets(bucket_length)
    ]


class TestWatermarkTracker:
    def test_empty_tracker_has_no_watermark(self):
        tracker = WatermarkTracker(lateness_horizon=5)
        assert tracker.watermark is None
        assert tracker.max_event_time is None
        assert tracker.min_event_time is None
        assert tracker.late_events == 0

    def test_watermark_trails_high_water_mark_by_horizon(self):
        tracker = WatermarkTracker(lateness_horizon=3)
        tracker.observe(10)
        assert tracker.watermark == 7
        tracker.observe(20)
        assert tracker.watermark == 17
        assert tracker.max_event_time == 20
        assert tracker.min_event_time == 10

    def test_late_elements_are_counted_not_advancing(self):
        tracker = WatermarkTracker(lateness_horizon=0)
        assert tracker.observe(10) is False
        assert tracker.observe(5) is True
        assert tracker.observe(10) is False  # a tie is not late
        assert tracker.late_events == 1
        assert tracker.watermark == 10
        assert tracker.min_event_time == 5

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError, match="lateness_horizon"):
            WatermarkTracker(lateness_horizon=-1)


class TestStreamIngestor:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="bucket_length"):
            StreamIngestor(lambda e, t: None, bucket_length=0)
        with pytest.raises(ValueError, match="allowed_lateness"):
            StreamIngestor(lambda e, t: None, bucket_length=5, allowed_lateness=-1)

    def test_in_order_input_matches_in_order_replay(self):
        elements = [make_element(i, 1 + 2 * i) for i in range(10)]
        sink = RecordingSink()
        ingestor = StreamIngestor(sink, bucket_length=5, allowed_lateness=0)
        ingestor.push_many(elements)
        ingestor.flush()
        assert sink.buckets == reference_buckets(elements, 5)
        metrics = ingestor.metrics()
        assert metrics.dropped_late == 0
        assert metrics.late_events == 0
        assert metrics.pending_events == 0

    def test_empty_buckets_are_committed_through_silence(self):
        # Elements at t=1 and t=42 with L=10: the in-order replay emits
        # the silent buckets in between, and so must the ingestor.
        elements = [make_element(0, 1), make_element(1, 42)]
        sink = RecordingSink()
        ingestor = StreamIngestor(sink, bucket_length=10, allowed_lateness=0)
        ingestor.push_many(elements)
        ingestor.flush()
        assert sink.buckets == reference_buckets(elements, 10)
        assert [end for end, _ in sink.buckets] == [10, 20, 30, 40, 50]

    def test_late_element_is_resorted_into_true_bucket(self):
        sink = RecordingSink()
        ingestor = StreamIngestor(sink, bucket_length=10, allowed_lateness=1)
        # Grid anchors at min_ts + L - 1 = 12.
        ingestor.push(make_element(0, 3))
        ingestor.push(make_element(1, 14))  # watermark = 4: nothing seals yet
        assert sink.buckets == []
        ingestor.push(make_element(2, 7))  # late, lands back in bucket 12
        ingestor.push(make_element(3, 25))  # watermark = 15 > 12: bucket 12 seals
        assert sink.buckets == [(12, (0, 2))]
        ingestor.flush()
        assert sink.buckets == [(12, (0, 2)), (22, (1,)), (32, (3,))]
        assert ingestor.metrics().dropped_late == 0

    def test_in_bucket_order_is_timestamp_then_id(self):
        sink = RecordingSink()
        ingestor = StreamIngestor(sink, bucket_length=10, allowed_lateness=1)
        # Arrivals scrambled inside one bucket, including a timestamp tie.
        for element in [
            make_element(5, 8),
            make_element(1, 3),
            make_element(2, 8),
            make_element(4, 1),
        ]:
            ingestor.push(element)
        ingestor.flush()
        assert sink.buckets == [(10, (4, 1, 2, 5))]

    def test_too_late_element_is_dropped_and_counted(self):
        sink = RecordingSink()
        ingestor = StreamIngestor(sink, bucket_length=10, allowed_lateness=0)
        ingestor.push(make_element(0, 5))
        ingestor.push(make_element(1, 21))  # seals bucket 14 (min_ts + L - 1)
        assert sink.buckets == [(14, (0,))]
        sealed = ingestor.push(make_element(2, 9))  # bucket 14 already gone
        assert sealed == 0
        ingestor.flush()
        metrics = ingestor.metrics()
        assert metrics.dropped_late == 1
        # The drop never misfiles: element 2 appears in no bucket.
        committed = [eid for _, ids in sink.buckets for eid in ids]
        assert committed == [0, 1]

    def test_deferred_anchoring_uses_true_minimum(self):
        # The first *arrival* is not the first *event*: the grid must
        # anchor on the delayed true-first element, exactly like the
        # in-order replay of the completed stream.
        elements = [make_element(0, 12), make_element(1, 4), make_element(2, 30)]
        sink = RecordingSink()
        ingestor = StreamIngestor(sink, bucket_length=10, allowed_lateness=1)
        ingestor.push_many(elements)
        ingestor.flush()
        assert sink.buckets == reference_buckets(elements, 10)
        assert sink.buckets[0][0] == 13  # anchored at min_ts + L - 1

    def test_explicit_start_time_anchors_the_grid(self):
        sink = RecordingSink()
        ingestor = StreamIngestor(
            sink, bucket_length=10, allowed_lateness=0, start_time=1
        )
        ingestor.push(make_element(0, 5))
        ingestor.flush()
        assert sink.buckets == [(10, (0,))]

    def test_flush_on_empty_ingestor_is_a_noop(self):
        sink = RecordingSink()
        ingestor = StreamIngestor(sink, bucket_length=10)
        assert ingestor.flush() == 0
        assert sink.buckets == []
        assert ingestor.metrics().buckets_sealed == 0

    def test_flush_is_idempotent(self):
        sink = RecordingSink()
        ingestor = StreamIngestor(sink, bucket_length=10, allowed_lateness=2)
        ingestor.push(make_element(0, 5))
        assert ingestor.flush() == 1
        assert ingestor.flush() == 0
        assert sink.buckets == [(14, (0,))]

    def test_push_reports_sealed_bucket_count(self):
        sink = RecordingSink()
        ingestor = StreamIngestor(sink, bucket_length=10, allowed_lateness=0)
        assert ingestor.push(make_element(0, 5)) == 0
        # t=35 advances the watermark past buckets 10, 20 and 30.
        assert ingestor.push(make_element(1, 35)) == 3

    def test_metrics_snapshot_accounting(self):
        sink = RecordingSink()
        ingestor = StreamIngestor(sink, bucket_length=10, allowed_lateness=1)
        ingestor.push_many(
            [make_element(0, 5), make_element(1, 25), make_element(2, 18)]
        )
        metrics = ingestor.metrics()
        assert metrics.events_total == 3
        assert metrics.late_events == 1
        assert metrics.allowed_lateness == 1
        assert metrics.max_event_time == 25
        assert metrics.watermark == 15
        assert metrics.buckets_sealed == 1
        assert metrics.pending_events == 2
        payload = metrics.to_dict()
        assert payload["events_total"] == 3
        assert payload["watermark"] == 15
        assert "watermark_lag_p50" in payload
        assert "watermark_lag_p95" in payload

    def test_metrics_omit_none_extremes_before_any_element(self):
        ingestor = StreamIngestor(RecordingSink(), bucket_length=10)
        payload = ingestor.metrics().to_dict()
        assert "watermark" not in payload
        assert "max_event_time" not in payload

    def test_lag_percentiles_are_nonnegative_and_ordered(self):
        sink = RecordingSink()
        ingestor = StreamIngestor(sink, bucket_length=5, allowed_lateness=2)
        ingestor.push_many([make_element(i, 1 + 3 * i) for i in range(20)])
        ingestor.flush()
        metrics = ingestor.metrics()
        assert metrics.watermark_lag_p50 >= 0.0
        assert metrics.watermark_lag_p95 >= metrics.watermark_lag_p50

    def test_lag_percentiles_cover_the_recent_seals(self):
        """One lag sample per sealed bucket for the life of a server: only
        the ``RECENT_SAMPLES`` newest are kept, and described."""
        ingestor = StreamIngestor(RecordingSink(), bucket_length=10, start_time=0)
        # Element i lands ``offset`` into bucket i and seals bucket i − 1,
        # whose end it is ``offset + 1`` past: 2 500 seals at lag 9, then 548
        # at lag 6 and 1 500 at lag 3 — the newest 2 048.
        offsets = [8] * 2500 + [5] * 548 + [2] * 1500
        for index, offset in enumerate(offsets, start=1):
            assert ingestor.push(make_element(index, 10 * index + offset)) == 1
        assert len(offsets) > RECENT_SAMPLES == 548 + 1500
        assert len(ingestor._lag_samples) == RECENT_SAMPLES
        metrics = ingestor.metrics()
        assert metrics.buckets_sealed == len(offsets)
        # Over every seal ever made both would be 9.
        assert (metrics.watermark_lag_p50, metrics.watermark_lag_p95) == (3.0, 6.0)

