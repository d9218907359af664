"""Watermarks and the bounded reordering buffer in front of the engine.

Every execution path of the repository consumes the stream as committed
buckets ``B_t`` (``(t − L, t]``) in strictly increasing end-time order —
that is what Algorithm 1's expiry assumes.  Real feeds deliver events out
of event-time order, so this module owns the boundary between the two
worlds:

* :class:`WatermarkTracker` maintains the event-time high-water mark and
  derives the **watermark** — the claim that no element older than it
  will still arrive — by trailing the high-water mark by the configured
  *allowed lateness* horizon.
* :class:`StreamIngestor` buffers raw (possibly unordered) elements,
  re-sorts them into their true bucket on the bucket grid the in-order
  replay would have used, and releases a bucket to the engine sink only
  once the watermark passes its end time.  Elements arriving after their
  bucket was sealed are *dropped and counted* — never silently misfiled.

With ``allowed_lateness = 0`` and in-order input, the committed buckets
are identical (grid, membership, in-bucket order) to
:meth:`repro.core.stream.SocialStream.buckets`, which is what the
equivalence tests pin down to 1e-9 on every backend.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.element import SocialElement
from repro.utils.timing import RECENT_SAMPLES

#: The sink a sealed bucket is committed to: ``sink(elements, end_time)``.
BucketSink = Callable[[Sequence[SocialElement], int], None]


def _quantile(ordered: Sequence[int], q: float) -> float:
    """Linear-interpolated quantile of a sorted sample list (0.0 when empty)."""
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


class WatermarkTracker:
    """Tracks event-time extremes and derives the lateness watermark.

    The watermark is ``max_event_time − lateness_horizon``: under the
    bounded-disorder contract (no element arrives more than the horizon
    of stream time after a later-stamped element), no element with a
    timestamp at or below the watermark can still arrive.
    """

    def __init__(self, lateness_horizon: int = 0) -> None:
        if lateness_horizon < 0:
            raise ValueError("lateness_horizon must be >= 0")
        self._horizon = int(lateness_horizon)
        self._max_event_time: Optional[int] = None
        self._min_event_time: Optional[int] = None
        self._late_events = 0

    @property
    def lateness_horizon(self) -> int:
        """The allowed-lateness horizon in stream time units."""
        return self._horizon

    @property
    def max_event_time(self) -> Optional[int]:
        """The event-time high-water mark (None before any element)."""
        return self._max_event_time

    @property
    def min_event_time(self) -> Optional[int]:
        """The earliest timestamp observed (None before any element)."""
        return self._min_event_time

    @property
    def watermark(self) -> Optional[int]:
        """``max_event_time − horizon`` (None before any element)."""
        if self._max_event_time is None:
            return None
        return self._max_event_time - self._horizon

    @property
    def late_events(self) -> int:
        """Elements that arrived behind the high-water mark so far."""
        return self._late_events

    def observe(self, timestamp: int) -> bool:
        """Advance the extremes; returns whether the element was late."""
        late = self._max_event_time is not None and timestamp < self._max_event_time
        if late:
            self._late_events += 1
        if self._max_event_time is None or timestamp > self._max_event_time:
            self._max_event_time = timestamp
        if self._min_event_time is None or timestamp < self._min_event_time:
            self._min_event_time = timestamp
        return late


@dataclass(frozen=True)
class StreamMetrics:
    """One consistent snapshot of the ingestor's lateness accounting."""

    events_total: int
    late_events: int
    dropped_late: int
    buckets_sealed: int
    pending_events: int
    allowed_lateness: int
    watermark: Optional[int]
    max_event_time: Optional[int]
    watermark_lag_p50: float
    watermark_lag_p95: float

    def to_dict(self) -> Dict[str, object]:
        """A flat JSON/gauge-friendly view (None values are omitted)."""
        payload: Dict[str, object] = {
            "events_total": self.events_total,
            "late_events": self.late_events,
            "dropped_late": self.dropped_late,
            "buckets_sealed": self.buckets_sealed,
            "pending_events": self.pending_events,
            "allowed_lateness": self.allowed_lateness,
            "watermark_lag_p50": self.watermark_lag_p50,
            "watermark_lag_p95": self.watermark_lag_p95,
        }
        if self.watermark is not None:
            payload["watermark"] = self.watermark
        if self.max_event_time is not None:
            payload["max_event_time"] = self.max_event_time
        return payload


class StreamIngestor:
    """The bounded reordering buffer: raw events in, committed buckets out.

    Parameters
    ----------
    sink:
        Receives each sealed bucket as ``sink(elements, end_time)`` in
        strictly increasing end-time order (empty buckets included, so
        window expiry advances through silent periods exactly as the
        in-order replay does).
    bucket_length:
        The bucket grid pitch ``L``.
    allowed_lateness:
        Disorder tolerance in bucket units; the lateness horizon is
        ``allowed_lateness × bucket_length``.
    start_time:
        Optional explicit grid anchor (first bucket covers
        ``[start_time, start_time + L − 1]``).  By default the grid
        anchors on the earliest timestamp observed before the first
        seal — the same grid the in-order replay of the completed stream
        would use.
    """

    def __init__(
        self,
        sink: BucketSink,
        bucket_length: int,
        allowed_lateness: int = 0,
        start_time: Optional[int] = None,
    ) -> None:
        if bucket_length <= 0:
            raise ValueError("bucket_length must be positive")
        if allowed_lateness < 0:
            raise ValueError("allowed_lateness must be >= 0")
        self._sink = sink
        self._bucket_length = int(bucket_length)
        self._allowed_lateness = int(allowed_lateness)
        self._tracker = WatermarkTracker(allowed_lateness * bucket_length)
        self._origin_end: Optional[int] = (
            None if start_time is None else int(start_time) + self._bucket_length - 1
        )
        # Arrivals staged before the grid anchor is fixed (anchoring waits
        # for the first seal so a delayed true-first element still defines
        # the grid, keeping it identical to the in-order replay's).
        self._staging: List[SocialElement] = []
        self._pending: Dict[int, List[SocialElement]] = {}
        self._sealed_through: Optional[int] = None
        self._events = 0
        self._dropped = 0
        self._sealed = 0
        # One per sealed bucket; the percentiles describe the recent seals.
        self._lag_samples: Deque[int] = deque(maxlen=RECENT_SAMPLES)

    # -- accessors ---------------------------------------------------------------------

    @property
    def bucket_length(self) -> int:
        """The bucket grid pitch ``L``."""
        return self._bucket_length

    @property
    def allowed_lateness(self) -> int:
        """The disorder tolerance in bucket units."""
        return self._allowed_lateness

    @property
    def watermark(self) -> Optional[int]:
        """The current watermark (None before any element)."""
        return self._tracker.watermark

    @property
    def sealed_through(self) -> Optional[int]:
        """End time of the last bucket committed to the sink."""
        return self._sealed_through

    @property
    def pending_events(self) -> int:
        """Buffered elements not yet committed to the engine."""
        return len(self._staging) + sum(
            len(members) for members in self._pending.values()
        )

    # -- ingest ------------------------------------------------------------------------

    def push(self, element: SocialElement) -> int:
        """Accept one raw element; returns how many buckets were sealed.

        A too-late element (its bucket already sealed) is dropped and
        counted in :attr:`StreamMetrics.dropped_late` — under the bounded
        disorder contract (disorder ≤ ``allowed_lateness`` buckets) this
        never happens.
        """
        timestamp = element.timestamp
        self._events += 1
        self._tracker.observe(timestamp)
        if self._sealed_through is not None and timestamp <= self._sealed_through:
            self._dropped += 1
            return 0
        if self._origin_end is None:
            self._staging.append(element)
        else:
            self._pending.setdefault(self._bucket_end(timestamp), []).append(element)
        return self._release()

    def push_many(self, elements: Iterable[SocialElement]) -> int:
        """Accept many raw elements; returns how many buckets were sealed."""
        sealed = 0
        for element in elements:
            sealed += self.push(element)
        return sealed

    def flush(self) -> int:
        """Seal every remaining bucket up to the high-water mark.

        Called at end of stream: the in-order replay commits its final
        bucket (the one containing the last element) without needing a
        later arrival, and :meth:`flush` is how this path does the same.
        Returns the number of buckets sealed.
        """
        max_event_time = self._tracker.max_event_time
        if max_event_time is None:
            return 0
        if self._origin_end is None:
            min_event_time = self._tracker.min_event_time
            assert min_event_time is not None
            self._anchor(min_event_time + self._bucket_length - 1)
        last_end = self._bucket_end(max_event_time)
        sealed = 0
        while self._sealed_through is None or self._sealed_through < last_end:
            self._seal(self._next_end())
            sealed += 1
        return sealed

    # -- metrics -----------------------------------------------------------------------

    def metrics(self) -> StreamMetrics:
        """The current lateness/watermark accounting snapshot."""
        lags = sorted(self._lag_samples)
        return StreamMetrics(
            events_total=self._events,
            late_events=self._tracker.late_events,
            dropped_late=self._dropped,
            buckets_sealed=self._sealed,
            pending_events=self.pending_events,
            allowed_lateness=self._allowed_lateness,
            watermark=self._tracker.watermark,
            max_event_time=self._tracker.max_event_time,
            watermark_lag_p50=_quantile(lags, 0.50),
            watermark_lag_p95=_quantile(lags, 0.95),
        )

    # -- internals ---------------------------------------------------------------------

    def _bucket_end(self, timestamp: int) -> int:
        origin = self._origin_end
        assert origin is not None
        if timestamp <= origin:
            return origin
        length = self._bucket_length
        return origin + ((timestamp - origin + length - 1) // length) * length

    def _next_end(self) -> int:
        if self._sealed_through is None:
            origin = self._origin_end
            assert origin is not None
            return origin
        return self._sealed_through + self._bucket_length

    def _anchor(self, origin_end: int) -> None:
        self._origin_end = origin_end
        for element in self._staging:
            self._pending.setdefault(
                self._bucket_end(element.timestamp), []
            ).append(element)
        self._staging.clear()

    def _release(self) -> int:
        watermark = self._tracker.watermark
        if watermark is None:
            return 0
        if self._origin_end is None:
            min_event_time = self._tracker.min_event_time
            assert min_event_time is not None
            candidate = min_event_time + self._bucket_length - 1
            if watermark <= candidate:
                return 0
            self._anchor(candidate)
        sealed = 0
        while watermark > self._next_end():
            self._seal(self._next_end())
            sealed += 1
        return sealed

    def _seal(self, end_time: int) -> None:
        members = self._pending.pop(end_time, [])
        members.sort(key=lambda element: (element.timestamp, element.element_id))
        self._sink(tuple(members), end_time)
        self._sealed_through = end_time
        self._sealed += 1
        max_event_time = self._tracker.max_event_time
        assert max_event_time is not None
        self._lag_samples.append(max(0, max_event_time - end_time))
