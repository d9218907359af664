"""A score map that reads in descending score order, used by the ranked lists.

The ranked list of Algorithm 1 in the paper needs four operations:

* insert a ``(key, score)`` entry,
* change the score of an existing key (when an element gains a reference),
* delete an entry (when an element expires from the active window),
* traverse entries in descending score order (a query merges the orders of
  its topics' lists into one plan in
  :class:`repro.core.ranked_list.RankedListTraversal`; here we only provide
  each list's order).

Stream maintenance writes far more often than queries read, and a query
reads only the few lists of its topics, so the order is not maintained on
write.  The only state a write changes is the ``key → score`` map, at O(1),
and it marks the list unsorted.  The first read after a write sorts the map
once — score descending, ties by ascending key — and caches that order as
two parallel read-only NumPy arrays (scores and keys) until the next write.
A list that nobody reads is never sorted.

Element ids are ``int``: a write records whether its key is one, so the
sort reads the keys with one ``np.fromiter`` into ``int64`` and never
checks them one by one.  Any other key — a float, a bool (both of which
``fromiter`` would silently truncate), a tuple, an ``int`` beyond int64 —
sorts with ``sorted()`` into an ``object`` key column.

Reads may run at the same time (a server answers queries on one shared
snapshot): a rebuild builds new arrays and publishes them before it clears
the unsorted mark, and never changes a published array, so a concurrent
reader sees either the old order of the same map or the new one, and two
threads rebuilding at once publish equal arrays.  Writes must not overlap
reads.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.kernels import ranked_merge

#: The cached order: scores and keys, ascending by ``(-score, key)``; the keys
#: are ``int64`` when every key written since the last clear is an ``int`` and
#: every key fits, ``object`` otherwise.
Columns = Tuple[npt.NDArray[np.float64], npt.NDArray[np.generic]]


def _frozen(columns: Columns) -> Columns:
    """``columns``, made read-only: readers share them."""
    for column in columns:
        column.flags.writeable = False
    return columns


_EMPTY = _frozen((np.empty(0), np.empty(0, dtype=np.int64)))


class DescendingSortedList:
    """A mapping from keys to scores, iterable in descending score order."""

    def __init__(self) -> None:
        self._scores: Dict[Hashable, float] = {}
        self._columns = _EMPTY
        self._sorted = True
        # Whether every key written since the last clear is an ``int``: a
        # list that held another key sorts on the object path until cleared.
        self._int_keys = True

    def __len__(self) -> int:
        return len(self._scores)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._scores

    def __iter__(self) -> Iterator[Tuple[Hashable, float]]:
        """Iterate ``(key, score)`` pairs in descending score order."""
        scores, keys = self.columns()
        return zip(keys.tolist(), scores.tolist())

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
        if type(key) is not int:
            self._int_keys = False

    update = insert

    def bulk_insert(self, items: Iterable[Tuple[Hashable, float]]) -> None:
        """Insert many ``(key, score)`` pairs at once (last score wins per key)."""
        scores = self._scores
        for key, score in items:
            scores[key] = float(score)
            if type(key) is not int:
                self._int_keys = False
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
        self._int_keys = True

    # -- reads: the first one after a write sorts ------------------------------

    def columns(self) -> Columns:
        """The order as ``(scores, keys)`` arrays, ascending by
        ``(-score, key)``; read-only, valid until the list is next written."""
        if self._sorted:
            return self._columns
        columns = _frozen(self._sort())
        self._columns = columns
        self._sorted = True
        return columns

    def _sort(self) -> Columns:
        scores = self._scores
        count = len(scores)
        values = np.fromiter(scores.values(), dtype=np.float64, count=count)
        if self._int_keys:
            # ``fromiter`` would truncate a float or a bool key silently;
            # the write-time flag, not the conversion, rules them out.
            try:
                ids = np.fromiter(scores, dtype=np.int64, count=count)
            except OverflowError:
                pass
            else:
                # Element-id hot path: score descending, id ascending.
                order = ranked_merge(values, ids)
                return values[order], ids[order]
        ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        # Filled one by one: a tuple key must stay one object, not a row.
        objects = np.empty(len(ordered), dtype=object)
        for rank, (key, _score) in enumerate(ordered):
            objects[rank] = key
        return np.array([score for _key, score in ordered], dtype=np.float64), objects

    def peek(self) -> Tuple[Hashable, float]:
        """Return the ``(key, score)`` pair with the maximum score."""
        if not self._scores:
            raise IndexError("peek from an empty DescendingSortedList")
        return self.at(0)

    def at(self, rank: int) -> Tuple[Hashable, float]:
        """Return the ``(key, score)`` pair at descending rank ``rank``."""
        scores, keys = self.columns()
        return keys.item(rank), scores.item(rank)

    def keys(self) -> List[Hashable]:
        """All keys in descending score order."""
        return self.columns()[1].tolist()

    def items(self) -> List[Tuple[Hashable, float]]:
        """All ``(key, score)`` pairs in descending score order."""
        return list(self)

    def validate(self) -> bool:
        """Check that the order holds exactly the map, sorted (used by tests)."""
        values, keys = self.columns()
        if len(keys) != len(self._scores) or len(values) != len(keys):
            return False
        entries = list(zip((-values).tolist(), keys.tolist()))
        scores = self._scores
        if any(key not in scores or scores[key] != -neg for neg, key in entries):
            return False
        return all(entries[i] < entries[i + 1] for i in range(len(entries) - 1))
