"""A score map that reads in descending score order, used by the ranked lists.

The ranked list of Algorithm 1 in the paper needs four operations:

* insert a ``(key, score)`` entry,
* change the score of an existing key (when an element gains a reference),
* delete an entry (when an element expires from the active window),
* traverse entries in descending score order (the query algorithms walk a
  frozen list through :class:`repro.core.ranked_list.RankedListTraversal`;
  here we only provide the order).

Stream maintenance writes far more often than queries read, and a query
reads only the few lists of its topics, so the order is not maintained on
write.  The only state a write changes is the ``key → score`` map, at O(1),
and it marks the list unsorted.  The first read after a write sorts the map
once — score descending, ties by ascending key — and caches that order as
two parallel lists (negated scores and keys) until the next write.  A list
that nobody reads is never sorted.

Reads may run at the same time (a server answers queries on one shared
snapshot): a rebuild builds new lists and publishes them before it clears
the unsorted mark, and never changes a published list, so a concurrent
reader sees either the old order of the same map or the new one, and two
threads rebuilding at once publish equal lists.  Writes must not overlap
reads.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.kernels import ranked_merge

#: The cached order: negated scores and keys, ascending by ``(-score, key)``.
Columns = Tuple[List[float], List[Hashable]]


class DescendingSortedList:
    """A mapping from keys to scores, iterable in descending score order."""

    def __init__(self) -> None:
        self._scores: Dict[Hashable, float] = {}
        self._columns: Columns = ([], [])
        self._sorted = True

    def __len__(self) -> int:
        return len(self._scores)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._scores

    def __iter__(self) -> Iterator[Tuple[Hashable, float]]:
        """Yield ``(key, score)`` pairs in descending score order."""
        negated, keys = self.columns()
        for neg_score, key in zip(negated, keys):
            yield key, -neg_score

    def score(self, key: Hashable) -> float:
        """Return the score stored for ``key`` (KeyError when absent)."""
        return self._scores[key]

    def get(self, key: Hashable, default: Optional[float] = None) -> Optional[float]:
        """Return the score for ``key`` or ``default`` when absent."""
        return self._scores.get(key, default)

    def insert(self, key: Hashable, score: float) -> None:
        """Insert ``key`` with ``score``; replaces any previous entry."""
        self._scores[key] = float(score)
        self._sorted = False

    update = insert

    def bulk_insert(self, items: Iterable[Tuple[Hashable, float]]) -> None:
        """Insert many ``(key, score)`` pairs at once (last score wins per key)."""
        self._scores.update((key, float(score)) for key, score in items)
        self._sorted = False

    def remove(self, key: Hashable) -> None:
        """Remove ``key``; raises ``KeyError`` when absent."""
        del self._scores[key]
        self._sorted = False

    def discard(self, key: Hashable) -> None:
        """Remove ``key`` when present, do nothing otherwise."""
        if key in self._scores:
            self.remove(key)

    def clear(self) -> None:
        """Remove every entry."""
        self._scores.clear()
        self._sorted = False

    # -- reads: the first one after a write sorts ------------------------------

    def columns(self) -> Columns:
        """The order as ``(negated scores, keys)``, ascending by
        ``(-score, key)``; read-only, valid until the list is next written."""
        if self._sorted:
            return self._columns
        columns = self._sort()
        self._columns = columns
        self._sorted = True
        return columns

    def _sort(self) -> Columns:
        scores = self._scores
        keys = list(scores)
        values = np.fromiter(scores.values(), dtype=np.float64, count=len(keys))
        ids = None
        if all(type(key) is int for key in keys):
            try:
                ids = np.array(keys, dtype=np.int64)
            except OverflowError:
                pass
        if ids is not None:
            # Element-id hot path: score descending, id ascending.
            order = ranked_merge(values, ids)
            return (-values[order]).tolist(), ids[order].tolist()
        ordered = sorted((-score, key) for key, score in scores.items())
        return [neg for neg, _key in ordered], [key for _neg, key in ordered]

    def peek(self) -> Tuple[Hashable, float]:
        """Return the ``(key, score)`` pair with the maximum score."""
        if not self._scores:
            raise IndexError("peek from an empty DescendingSortedList")
        return self.at(0)

    def at(self, rank: int) -> Tuple[Hashable, float]:
        """Return the ``(key, score)`` pair at descending rank ``rank``."""
        negated, keys = self.columns()
        return keys[rank], -negated[rank]

    def keys(self) -> List[Hashable]:
        """All keys in descending score order."""
        return list(self.columns()[1])

    def items(self) -> List[Tuple[Hashable, float]]:
        """All ``(key, score)`` pairs in descending score order."""
        return list(self)

    def validate(self) -> bool:
        """Check that the order holds exactly the map, sorted (used by tests)."""
        negated, keys = self.columns()
        if len(keys) != len(self._scores) or len(negated) != len(keys):
            return False
        entries = list(zip(negated, keys))
        scores = self._scores
        if any(key not in scores or scores[key] != -neg for neg, key in entries):
            return False
        return all(entries[i] < entries[i + 1] for i in range(len(entries) - 1))
