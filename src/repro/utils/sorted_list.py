"""A descending sorted list keyed by score, used by the per-topic ranked lists.

The ranked list of Algorithm 1 in the paper needs four operations:

* insert a ``(key, score)`` entry,
* change the score of an existing key (when an element gains a reference),
* delete an entry (when an element expires from the active window),
* traverse entries in descending score order while supporting concurrent
  inserts at positions *before* the cursor (the query algorithms only ever
  traverse a frozen snapshot, so the cursor lives in
  :class:`repro.core.ranked_list.RankedListCursor`; here we only provide the
  ordered container).

A bisect-backed parallel-array implementation is simple, cache friendly and —
for the window sizes a single machine handles — faster in practice than a
balanced tree written in pure Python.  Ties are broken by key so iteration
order is deterministic.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.kernels import get_kernel

#: The ranked-list merge-order kernel (score descending, key ascending);
#: see :mod:`repro.kernels`.  Engaged by :meth:`DescendingSortedList.bulk_insert`
#: when every key is a plain ``int`` (the element-id hot path).
_RANKED_MERGE = get_kernel("ranked_merge")


class DescendingSortedList:
    """A mapping from keys to scores, iterable in descending score order.

    Internally entries are stored ascending by ``(-score, key)`` so plain
    ``bisect`` keeps them ordered; iteration yields the highest scores first.
    """

    def __init__(self) -> None:
        # Sorted ascending by (-score, key).
        self._entries: List[Tuple[float, Hashable]] = []
        self._scores: Dict[Hashable, float] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._scores

    def __iter__(self) -> Iterator[Tuple[Hashable, float]]:
        """Yield ``(key, score)`` pairs in descending score order."""
        for neg_score, key in self._entries:
            yield key, -neg_score

    def score(self, key: Hashable) -> float:
        """Return the score stored for ``key`` (KeyError when absent)."""
        return self._scores[key]

    def get(self, key: Hashable, default: Optional[float] = None) -> Optional[float]:
        """Return the score for ``key`` or ``default`` when absent."""
        return self._scores.get(key, default)

    def insert(self, key: Hashable, score: float) -> None:
        """Insert ``key`` with ``score``; replaces any previous entry."""
        if key in self._scores:
            self._remove_entry(key, self._scores[key])
        insort(self._entries, (-float(score), key))
        self._scores[key] = float(score)

    def update(self, key: Hashable, score: float) -> None:
        """Change the score of an existing key (inserting when absent)."""
        self.insert(key, score)

    def bulk_insert(self, items: Iterable[Tuple[Hashable, float]]) -> None:
        """Insert many ``(key, score)`` pairs at once (last score wins per key).

        Replaces any previous entries of the given keys.  For batches that
        are large relative to the list this stages the new entries, drops the
        superseded ones in a single filtering pass and merges two sorted runs
        — ``O(n + m log m)`` instead of ``m`` bisect-insertions at ``O(n)``
        each.  Small batches fall back to plain :meth:`insert`.
        """
        staged: Dict[Hashable, float] = {key: float(score) for key, score in items}
        if not staged:
            return
        if len(staged) < 8 or len(staged) * 4 < len(self._entries):
            for key, score in staged.items():
                self.insert(key, score)
            return
        superseded = {key for key in staged if key in self._scores}
        if superseded:
            self._entries = [
                entry for entry in self._entries if entry[1] not in superseded
            ]
        entries = self._entries
        entries.extend((-score, key) for key, score in staged.items())
        order = None
        if all(type(key) is int for _neg, key in entries):
            # Element-id hot path: the merge order comes from the
            # ``ranked_merge`` kernel (lexsort reference, compiled stable
            # sorts under Numba).  The original tuples are re-indexed by
            # the returned permutation, so key objects are preserved.
            try:
                keys = np.fromiter(
                    (key for _neg, key in entries),
                    dtype=np.int64,
                    count=len(entries),
                )
            except OverflowError:
                keys = None
            if keys is not None:
                neg_scores = np.fromiter(
                    (neg for neg, _key in entries),
                    dtype=np.float64,
                    count=len(entries),
                )
                order = _RANKED_MERGE(-neg_scores, keys)
        if order is not None:
            self._entries = [entries[index] for index in order.tolist()]
        else:
            # Timsort merges the existing sorted run and the appended batch
            # at C speed, which beats a Python-level two-way merge.
            entries.sort()
        self._scores.update(staged)

    def bulk_discard(self, keys: Iterable[Hashable]) -> List[Hashable]:
        """Remove every present key of ``keys``; returns the ones removed.

        Duplicates in ``keys`` are tolerated (removed once).
        """
        present = list(dict.fromkeys(key for key in keys if key in self._scores))
        if not present:
            return present
        if len(present) < 8 or len(present) * 16 < len(self._entries):
            for key in present:
                self.remove(key)
            return present
        drop = set(present)
        self._entries = [entry for entry in self._entries if entry[1] not in drop]
        for key in present:
            del self._scores[key]
        return present

    def remove(self, key: Hashable) -> None:
        """Remove ``key``; raises ``KeyError`` when absent."""
        score = self._scores.pop(key)
        self._remove_entry_raw(key, score)

    def discard(self, key: Hashable) -> None:
        """Remove ``key`` when present, do nothing otherwise."""
        if key in self._scores:
            self.remove(key)

    def peek(self) -> Tuple[Hashable, float]:
        """Return the ``(key, score)`` pair with the maximum score."""
        if not self._entries:
            raise IndexError("peek from an empty DescendingSortedList")
        neg_score, key = self._entries[0]
        return key, -neg_score

    def at(self, rank: int) -> Tuple[Hashable, float]:
        """Return the ``(key, score)`` pair at descending rank ``rank``."""
        neg_score, key = self._entries[rank]
        return key, -neg_score

    def entries(self) -> List[Tuple[float, Hashable]]:
        """The internal ``(-score, key)`` list, ascending, for read-only
        cursors; valid until the list is next mutated."""
        return self._entries

    def keys(self) -> List[Hashable]:
        """All keys in descending score order."""
        return [key for _neg, key in self._entries]

    def items(self) -> List[Tuple[Hashable, float]]:
        """All ``(key, score)`` pairs in descending score order."""
        return [(key, -neg) for neg, key in self._entries]

    def clear(self) -> None:
        """Remove every entry."""
        self._entries.clear()
        self._scores.clear()

    # -- internal helpers -------------------------------------------------

    def _remove_entry(self, key: Hashable, score: float) -> None:
        del self._scores[key]
        self._remove_entry_raw(key, score)

    def _remove_entry_raw(self, key: Hashable, score: float) -> None:
        probe = (-float(score), key)
        idx = bisect_left(self._entries, probe)
        # The probe is unique because keys are unique within the list.
        if idx < len(self._entries) and self._entries[idx] == probe:
            del self._entries[idx]
            return
        raise KeyError(f"entry for key {key!r} with score {score!r} not found")

    def validate(self) -> bool:
        """Check internal invariants (used by tests); returns True if OK."""
        if len(self._entries) != len(self._scores):
            return False
        previous = None
        for neg_score, key in self._entries:
            if self._scores.get(key) != -neg_score:
                return False
            if previous is not None and (neg_score, key) < previous:
                return False
            previous = (neg_score, key)
        return True
