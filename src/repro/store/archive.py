"""The window archive, trimmed in time proportional to what expires.

Both window classes keep every observed element so a late reference can
re-activate an expired precedent, and drop an entry once it is older than
the archive horizon *and* no longer active.  Instead of scanning the whole
archive on every advance, each insert also queues a ``(timestamp, id)``
record on a min-heap and an advance pops only what the cutoff has passed.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import (
    Container, Dict, ItemsView, Iterable, List, Mapping, Optional, Tuple, ValuesView,
)

from repro.core.element import SocialElement


class ElementArchive:
    """``id → element`` in insertion order, bounded to ``horizon`` time units.

    Entries change only through :meth:`put` and :meth:`trim`, so none can
    exist without its expiry record; everything else is a read.
    """

    def __init__(
        self, horizon: int, elements: Optional[Mapping[int, SocialElement]] = None
    ) -> None:
        self._horizon = horizon
        self._elements: Dict[int, SocialElement] = dict(elements or {})
        self._expiry: List[Tuple[int, int]] = [
            (element.timestamp, element_id)
            for element_id, element in self._elements.items()
        ]
        heapify(self._expiry)

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, element_id: object) -> bool:
        return element_id in self._elements

    def get(self, element_id: int) -> Optional[SocialElement]:
        """The archived element, or ``None``."""
        return self._elements.get(element_id)

    def values(self) -> ValuesView[SocialElement]:
        """The archived elements, oldest insertion first."""
        return self._elements.values()

    def items(self) -> ItemsView[int, SocialElement]:
        """``(id, element)`` pairs, oldest insertion first."""
        return self._elements.items()

    def put(self, element: SocialElement) -> None:
        """Archive ``element`` (a re-post replaces the earlier version)."""
        self._elements[element.element_id] = element
        heappush(self._expiry, (element.timestamp, element.element_id))

    def trim(self, time: int, active: Container[int], released: Iterable[int]) -> None:
        """Drop every entry posted before ``time − horizon`` that is not ``active``.

        A popped record is only a hint: the entry it named may have been
        re-posted since (its newer record is still queued) or may still be
        active.  An active entry loses its record here, so the caller also
        passes the ids each advance ``released`` from the active set — the
        one moment an entry can turn stale without a queued record.
        """
        cutoff = time - self._horizon
        if cutoff <= 0:
            return
        candidates = list(released)
        elements = self._elements
        expiry = self._expiry
        while expiry and expiry[0][0] < cutoff:
            candidates.append(heappop(expiry)[1])
        for element_id in candidates:
            element = elements.get(element_id)
            if (
                element is not None
                and element.timestamp < cutoff
                and element_id not in active
            ):
                del elements[element_id]
