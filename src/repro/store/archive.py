"""The window archive, trimmed in time proportional to what expires.

Both window classes keep every observed element in an ``id → element``
archive so a late reference can re-activate an expired precedent, and drop
an entry once it is older than the archive horizon *and* no longer active.
Scanning the whole archive for such entries on every advance costs
O(archive) per bucket; :class:`ElementArchive` also queues a
``(timestamp, id)`` record per insert on a min-heap, and an advance pops
only the records the cutoff has passed.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Container, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.element import SocialElement


class ElementArchive(Dict[int, SocialElement]):
    """``id → element`` in insertion order; insert through :meth:`put`."""

    def __init__(self, elements: Optional[Mapping[int, SocialElement]] = None) -> None:
        super().__init__(elements or {})
        self._expiry: List[Tuple[int, int]] = [
            (element.timestamp, element_id) for element_id, element in self.items()
        ]
        heapify(self._expiry)

    def put(self, element: SocialElement) -> None:
        """Archive ``element`` (a re-post replaces the earlier version)."""
        self[element.element_id] = element
        heappush(self._expiry, (element.timestamp, element.element_id))

    def trim(self, cutoff: int, active: Container[int], released: Iterable[int]) -> None:
        """Drop every entry posted before ``cutoff`` that is not ``active``.

        A popped record is only a hint: the entry it named may have been
        re-posted since (its newer record is still queued) or may still be
        active.  An active entry loses its record here, so the caller also
        passes the ids each advance ``released`` from the active set — the
        one moment an entry can turn stale without a queued record.
        """
        candidates = list(released)
        expiry = self._expiry
        while expiry and expiry[0][0] < cutoff:
            candidates.append(heappop(expiry)[1])
        for element_id in candidates:
            element = self.get(element_id)
            if (
                element is not None
                and element.timestamp < cutoff
                and element_id not in active
            ):
                del self[element_id]
