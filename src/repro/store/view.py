"""The narrow write-side protocol between the ranked lists and the store.

:class:`TopicEpochSink` is what the ranked-list index uses to stamp topic
change epochs onto the columnar store without importing it.
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable


@runtime_checkable
class TopicEpochSink(Protocol):
    """Anything that can receive per-topic change stamps."""

    def mark_topics_dirty(self, topics: Iterable[int]) -> None:
        """Record that the given topics' ranked lists changed."""
        ...
