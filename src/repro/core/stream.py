"""The social stream: a timestamp-ordered sequence of social elements.

Section 3.1: a social stream is a sequence of elements ordered by timestamp
(ties arrive in arbitrary order).  The stream processor consumes the stream
in *buckets* of equal time length ``L`` (Section 4), so this module also
provides the bucketing iterator.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.core.element import SocialElement


def replay_stream(
    stream: Union["SocialStream", Iterable[SocialElement]],
    bucket_length: int,
    process_bucket: Callable[[Sequence[SocialElement], int], object],
    until: Optional[int] = None,
) -> None:
    """Drive ``process_bucket`` over a whole stream (or until time ``until``).

    Shared by every execution backend (single-node processor, cluster
    coordinator, serving engine) so the bucket-iteration semantics — empty
    buckets included, ``until`` compared against bucket end times — cannot
    drift between them.
    """
    if not isinstance(stream, SocialStream):
        stream = SocialStream(stream)
    if len(stream) == 0:
        return
    for bucket in stream.buckets(bucket_length):
        if until is not None and bucket.end_time > until:
            break
        process_bucket(bucket.elements, bucket.end_time)


class SocialStream:
    """An in-memory social stream with bucketed replay.

    Elements are stored sorted by ``(timestamp, element_id)``.  The class
    is append-friendly and the tolerance for out-of-order appends is a
    contract, not a best effort:

    * an append whose ``(timestamp, element_id)`` key is >= the current
      maximum is O(1);
    * an out-of-order append is re-inserted at its sorted position (O(n)
      for the key scan), so the resulting stream is *identical* to one
      built from the same elements in timestamp order;
    * timestamp **ties** order by ``element_id`` — deterministically,
      regardless of arrival order — so two streams holding the same
      elements always iterate identically;
    * duplicate element ids are rejected with :class:`ValueError` at
      append time, never silently replaced.

    This is what lets synthetic generators and the event-time ingestion
    layer (:mod:`repro.streams`) treat ``SocialStream`` as the canonical
    in-order view of any element set.  Arrival-order events enter
    through :meth:`repro.api.engine.KSIREngine.ingest`, not here.
    """

    def __init__(self, elements: Optional[Iterable[SocialElement]] = None) -> None:
        self._elements: List[SocialElement] = []
        self._by_id: Dict[int, SocialElement] = {}
        if elements is not None:
            self.extend(elements)

    # -- construction ---------------------------------------------------------

    def append(self, element: SocialElement) -> None:
        """Add one element, keeping the stream ordered by timestamp."""
        if element.element_id in self._by_id:
            raise ValueError(f"duplicate element id {element.element_id!r}")
        self._by_id[element.element_id] = element
        if not self._elements or self._sort_key(element) >= self._sort_key(self._elements[-1]):
            self._elements.append(element)
            return
        keys = [self._sort_key(existing) for existing in self._elements]
        position = bisect_right(keys, self._sort_key(element))
        self._elements.insert(position, element)

    def extend(self, elements: Iterable[SocialElement]) -> None:
        """Append many elements."""
        for element in elements:
            self.append(element)

    @staticmethod
    def _sort_key(element: SocialElement) -> tuple:
        return (element.timestamp, element.element_id)

    # -- views ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[SocialElement]:
        return iter(self._elements)

    def __getitem__(self, index: int) -> SocialElement:
        return self._elements[index]

    def __contains__(self, element_id: int) -> bool:
        return element_id in self._by_id

    def get(self, element_id: int) -> SocialElement:
        """Return the element with the given id (KeyError when absent)."""
        return self._by_id[element_id]

    @property
    def elements(self) -> Sequence[SocialElement]:
        """The ordered elements (read-only view)."""
        return tuple(self._elements)

    @property
    def start_time(self) -> int:
        """Timestamp of the earliest element (ValueError when empty)."""
        if not self._elements:
            raise ValueError("the stream is empty")
        return self._elements[0].timestamp

    @property
    def end_time(self) -> int:
        """Timestamp of the latest element (ValueError when empty)."""
        if not self._elements:
            raise ValueError("the stream is empty")
        return self._elements[-1].timestamp

    def elements_between(self, start: int, end: int) -> List[SocialElement]:
        """Elements with ``start <= ts <= end`` (inclusive on both sides)."""
        timestamps = [element.timestamp for element in self._elements]
        lo = bisect_left(timestamps, start)
        hi = bisect_right(timestamps, end)
        return self._elements[lo:hi]

    # -- bucketed replay ---------------------------------------------------------

    def buckets(
        self, bucket_length: int, start_time: Optional[int] = None
    ) -> Iterator["StreamBucket"]:
        """Yield the stream as consecutive buckets of length ``bucket_length``.

        Buckets cover ``(t - L, t]`` for ``t = start + L, start + 2L, ...``
        following the paper's discrete update times; empty buckets are still
        yielded so that window expiry happens even during silent periods.

        ``start_time`` anchors the grid explicitly (default: the first
        element's timestamp).  The first bucket ends at
        ``start_time + L - 1`` and absorbs **every** element at or before
        that end — including elements stamped before ``start_time``; an
        anchor past the last element therefore folds the whole stream
        into one bucket.  An empty stream yields no buckets regardless of
        the anchor.
        """
        if bucket_length <= 0:
            raise ValueError("bucket_length must be positive")
        if not self._elements:
            return
        first = self.start_time if start_time is None else start_time
        last = self.end_time
        bucket_end = first + bucket_length - 1
        index = 0
        total = len(self._elements)
        while True:
            members: List[SocialElement] = []
            while index < total and self._elements[index].timestamp <= bucket_end:
                members.append(self._elements[index])
                index += 1
            yield StreamBucket(end_time=bucket_end, elements=tuple(members))
            if bucket_end >= last and index >= total:
                break
            bucket_end += bucket_length


class StreamBucket:
    """One bucket ``B_t``: the elements with timestamps in ``(t − L, t]``."""

    __slots__ = ("end_time", "elements")

    def __init__(self, end_time: int, elements: Sequence[SocialElement]) -> None:
        self.end_time = int(end_time)
        self.elements = tuple(elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[SocialElement]:
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"StreamBucket(end_time={self.end_time}, size={len(self.elements)})"
