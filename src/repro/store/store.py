"""The columnar element state store.

:class:`ElementStore` re-encodes the hot per-element stream state —
timestamps, last-activity times ``t_e``, window membership, the thresholded
topic-profile matrix ``P[rows, z]`` and the in-window follower adjacency —
as contiguous NumPy arrays over interned *rows* instead of per-element
Python objects.  One store instance backs one
:class:`~repro.store.window.ColumnarWindow` (and through it one
:class:`~repro.core.processor.KSIRProcessor`), giving every layer above a
vectorised view of the active set:

* **row interning with free-row recycling** — element ids are mapped to
  dense row indices; expired rows return to a free list and are reused, so
  the arrays stay compact over unbounded streams;
* **vectorised scans** — window expiry and activity-based eviction become
  boolean masks over the columns instead of dict iterations;
* **the profile matrix** — ``P[row, i]`` holds the element's thresholded
  topic probability ``p_i(e)``, so batched influence re-scoring reduces to
  one gather + ``reduceat`` over follower rows;
* **CSR export** — the follower adjacency of any row subset serialises to
  ``(indptr, indices)`` array slices for shard candidate export and the v2
  checkpoint format;
* **the follower view** — a sparse ``parent id → ascending follower ids``
  map kept current at the adjacency mutation points, so a scoring snapshot
  costs time proportional to the rows a bucket changed, not to the window.

The store is deliberately dumb about *semantics*: the sliding-window rules
of Algorithm 1 live in :class:`~repro.store.window.ColumnarWindow`, which
drives the store; scoring lives in :mod:`repro.core.scoring`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np
import numpy.typing as npt

from repro.kernels import window_scan

_NO_ACTIVITY = np.iinfo(np.int64).min


class ElementStore:
    """Contiguous columnar storage for the active-element state.

    Columns are private heap arrays that double on demand.
    """

    def __init__(self, num_topics: int, initial_capacity: int = 1024) -> None:
        if num_topics <= 0:
            raise ValueError("num_topics must be positive")
        if initial_capacity <= 0:
            raise ValueError("initial_capacity must be positive")
        self._num_topics = int(num_topics)
        capacity = int(initial_capacity)
        self._capacity = capacity
        # row -> element id (-1 marks a free row).
        self._element_ids: npt.NDArray[np.int64] = np.full(capacity, -1, dtype=np.int64)
        self._timestamps: npt.NDArray[np.int64] = np.zeros(capacity, dtype=np.int64)
        self._last_activity: npt.NDArray[np.int64] = np.full(
            capacity, _NO_ACTIVITY, dtype=np.int64
        )
        self._in_window: npt.NDArray[np.bool_] = np.zeros(capacity, dtype=np.bool_)
        # Thresholded topic probabilities p_i(e) (zeros below the scoring
        # threshold and for rows whose profile has not been set yet).
        self._profiles: npt.NDArray[np.float64] = np.zeros(
            (capacity, self._num_topics), dtype=np.float64
        )
        self._profile_set: npt.NDArray[np.bool_] = np.zeros(capacity, dtype=np.bool_)
        # Dynamic in-window follower adjacency: row -> set of follower rows.
        # Mutation-friendly sets here; CSR array slices on export.
        self._followers: List[Set[int]] = [set() for _ in range(capacity)]
        # The same adjacency by element id, for scoring snapshots: entries
        # only for parents with ≥ 1 follower, refreshed lazily from the rows
        # whose follower set changed since the last followers_snapshot().
        self._follower_view: Dict[int, Tuple[int, ...]] = {}
        self._dirty_parent_rows: Set[int] = set()
        self._row_of: Dict[int, int] = {}
        self._free_rows: List[int] = []
        self._high_water = 0

    # -- metadata ----------------------------------------------------------------

    @property
    def num_topics(self) -> int:
        """Number of topic columns ``z`` of the profile matrix."""
        return self._num_topics

    @property
    def capacity(self) -> int:
        """Current row capacity of the arrays."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, element_id: int) -> bool:
        return element_id in self._row_of

    @property
    def free_row_count(self) -> int:
        """Rows currently parked on the free list (recycled on acquire)."""
        return len(self._free_rows)

    # -- interning ---------------------------------------------------------------

    def row_of(self, element_id: int) -> int:
        """The row interned for ``element_id`` (KeyError when absent)."""
        return self._row_of[element_id]

    def get_row(self, element_id: int) -> Optional[int]:
        """The row interned for ``element_id``, or ``None`` when absent."""
        return self._row_of.get(element_id)

    def element_id_at(self, row: int) -> int:
        """The element id stored at ``row`` (-1 for a free row)."""
        return int(self._element_ids[row])

    def rows_of(self, element_ids: Iterable[int]) -> npt.NDArray[np.intp]:
        """Interned rows of the given ids, in order (KeyError when absent)."""
        table = self._row_of
        return np.asarray([table[eid] for eid in element_ids], dtype=np.intp)

    def ids_at(self, rows: npt.NDArray[np.intp]) -> npt.NDArray[np.int64]:
        """Element ids at the given rows (vectorised gather)."""
        result: npt.NDArray[np.int64] = self._element_ids[rows]
        return result

    def acquire(self, element_id: int, timestamp: int) -> int:
        """Intern ``element_id``, allocating (or recycling) a row.

        A fresh row starts outside the window, with ``last_activity`` equal
        to the timestamp, an empty follower set and a zeroed profile row.
        Re-acquiring a live id refreshes its timestamp and returns the
        existing row without touching the rest of its state.
        """
        existing = self._row_of.get(element_id)
        if existing is not None:
            self._timestamps[existing] = int(timestamp)
            return existing
        if self._free_rows:
            row = self._free_rows.pop()
        else:
            if self._high_water >= self._capacity:
                self._grow()
            row = self._high_water
            self._high_water += 1
        self._element_ids[row] = int(element_id)
        self._timestamps[row] = int(timestamp)
        self._last_activity[row] = int(timestamp)
        self._row_of[element_id] = row
        return row

    def bulk_acquire(
        self, element_ids: List[int], timestamps: List[int]
    ) -> List[int]:
        """Intern a whole bucket of elements at once.

        When every id is new (the common streaming case) the column writes
        happen as one fancy-indexed assignment per array — recycled free
        rows first, then a fresh contiguous range — instead of one scalar
        write per element.  Buckets containing duplicates or already-live
        ids fall back to element-wise :meth:`acquire`.
        """
        row_of = self._row_of
        count = len(element_ids)
        if len(set(element_ids)) != count or any(
            eid in row_of for eid in element_ids
        ):
            return [
                self.acquire(eid, ts) for eid, ts in zip(element_ids, timestamps)
            ]
        free = self._free_rows
        take = min(len(free), count)
        rows = [free.pop() for _ in range(take)]
        remaining = count - take
        if remaining:
            while self._high_water + remaining > self._capacity:
                self._grow()
            rows.extend(range(self._high_water, self._high_water + remaining))
            self._high_water += remaining
        index = np.asarray(rows, dtype=np.intp)
        ids_arr = np.asarray(element_ids, dtype=np.int64)
        ts_arr = np.asarray(timestamps, dtype=np.int64)
        self._element_ids[index] = ids_arr
        self._timestamps[index] = ts_arr
        self._last_activity[index] = ts_arr
        # Free and never-used rows already hold the fresh-row defaults
        # (out of window, zero profile row, empty follower set).
        for eid, row in zip(element_ids, rows):
            row_of[eid] = row
        return rows

    def release(self, element_id: int) -> int:
        """Free the row of ``element_id`` and recycle it.

        The caller is responsible for having detached the row from every
        other row's follower set first (the window's expiry discipline
        guarantees it: an element is only released after it left ``W_t``,
        which removed it from its parents' follower sets).
        """
        row = self._row_of.pop(element_id)
        self._element_ids[row] = -1
        self._last_activity[row] = _NO_ACTIVITY
        self._in_window[row] = False
        self._profiles[row, :] = 0.0
        self._profile_set[row] = False
        self._followers[row].clear()
        # The row may stay in the dirty set: a refresh skips free rows and
        # reads a recycled row's adjacency under its new element id.
        self._follower_view.pop(element_id, None)
        self._free_rows.append(row)
        return row

    def clear(self) -> None:
        """Drop every row (used when restoring a checkpoint)."""
        self._element_ids[:] = -1
        self._last_activity[:] = _NO_ACTIVITY
        self._in_window[:] = False
        self._profiles[:, :] = 0.0
        self._profile_set[:] = False
        for followers in self._followers:
            followers.clear()
        self._follower_view.clear()
        self._dirty_parent_rows.clear()
        self._row_of.clear()
        self._free_rows.clear()
        self._high_water = 0

    def _grow(self) -> None:
        new_capacity = self._capacity * 2
        self._element_ids = self._extend_1d(self._element_ids, new_capacity, -1)
        self._timestamps = self._extend_1d(self._timestamps, new_capacity, 0)
        self._last_activity = self._extend_1d(
            self._last_activity, new_capacity, _NO_ACTIVITY
        )
        in_window = np.zeros(new_capacity, dtype=np.bool_)
        in_window[: self._capacity] = self._in_window
        self._in_window = in_window
        profile_set = np.zeros(new_capacity, dtype=np.bool_)
        profile_set[: self._capacity] = self._profile_set
        self._profile_set = profile_set
        profiles = np.zeros((new_capacity, self._num_topics), dtype=np.float64)
        profiles[: self._capacity, :] = self._profiles
        self._profiles = profiles
        self._followers.extend(set() for _ in range(new_capacity - self._capacity))
        self._capacity = new_capacity

    @staticmethod
    def _extend_1d(
        array: npt.NDArray[np.int64], capacity: int, fill: int
    ) -> npt.NDArray[np.int64]:
        grown: npt.NDArray[np.int64] = np.full(capacity, fill, dtype=np.int64)
        grown[: array.shape[0]] = array
        return grown

    # -- column access -----------------------------------------------------------

    def timestamp_of(self, row: int) -> int:
        """The posting time stored at ``row``."""
        return int(self._timestamps[row])

    def last_activity_of(self, row: int) -> int:
        """``t_e`` stored at ``row``."""
        return int(self._last_activity[row])

    def set_last_activity(self, row: int, time: int) -> None:
        """Overwrite ``t_e`` of ``row``."""
        self._last_activity[row] = int(time)

    def raise_last_activity(self, row: int, time: int) -> int:
        """``t_e ← max(t_e, time)``; returns the stored value."""
        current = self._last_activity[row]
        if time > current:
            self._last_activity[row] = int(time)
            return int(time)
        return int(current)

    def last_activity_slice(
        self, rows: npt.NDArray[np.intp]
    ) -> npt.NDArray[np.int64]:
        """``t_e`` of many rows as one array slice."""
        result: npt.NDArray[np.int64] = self._last_activity[rows]
        return result

    def set_in_window(self, row: int, member: bool) -> None:
        """Mark whether ``row`` is a current member of ``W_t``."""
        self._in_window[row] = bool(member)

    def set_in_window_many(self, rows: List[int], member: bool) -> None:
        """Mark many rows' ``W_t`` membership in one write."""
        self._in_window[np.asarray(rows, dtype=np.intp)] = bool(member)

    def in_window(self, row: int) -> bool:
        """Whether ``row`` is a current member of ``W_t``."""
        return bool(self._in_window[row])

    @property
    def window_count(self) -> int:
        """``|W_t|``: number of rows flagged as window members."""
        return int(self._in_window.sum())

    # -- profile matrix ----------------------------------------------------------

    @property
    def profile_matrix(self) -> npt.NDArray[np.float64]:
        """The full ``P[rows, z]`` matrix (index it with interned rows)."""
        return self._profiles

    def set_profile(self, row: int, probabilities: Dict[int, float]) -> None:
        """Store an element's thresholded topic probabilities at ``row``."""
        if self._profile_set[row]:
            # Fresh and recycled rows are already zeroed; only a re-profiled
            # row needs its previous entries wiped.
            self._profiles[row, :] = 0.0
        for topic, probability in probabilities.items():
            self._profiles[row, topic] = probability
        self._profile_set[row] = True

    def set_profiles_bulk(
        self, rows: List[int], probability_maps: List[Dict[int, float]]
    ) -> None:
        """Store a whole bucket of profiles with one fancy-indexed write.

        A bucket that re-profiles the same row twice (duplicate element
        ids) falls back to element-wise writes: fancy assignment would
        merge the two sparse profiles instead of replacing the first.
        """
        if len(set(rows)) != len(rows):
            for row, probabilities in zip(rows, probability_maps):
                self.set_profile(row, probabilities)
            return
        index = np.asarray(rows, dtype=np.intp)
        stale = index[self._profile_set[index]]
        if stale.size:
            self._profiles[stale, :] = 0.0
        flat_rows = np.asarray(
            [
                row
                for row, probabilities in zip(rows, probability_maps)
                for _ in probabilities
            ],
            dtype=np.intp,
        )
        if flat_rows.size:
            flat_topics = np.asarray(
                [
                    topic
                    for probabilities in probability_maps
                    for topic in probabilities
                ],
                dtype=np.intp,
            )
            flat_values = np.asarray(
                [
                    probability
                    for probabilities in probability_maps
                    for probability in probabilities.values()
                ],
                dtype=np.float64,
            )
            self._profiles[flat_rows, flat_topics] = flat_values
        self._profile_set[index] = True

    def has_profile(self, row: int) -> bool:
        """Whether :meth:`set_profile` was called for ``row``."""
        return bool(self._profile_set[row])

    # -- follower adjacency ------------------------------------------------------

    def add_follower(self, parent_row: int, follower_row: int) -> bool:
        """Record ``follower_row ∈ I_t(parent)``; True when newly added."""
        followers = self._followers[parent_row]
        if follower_row in followers:
            return False
        followers.add(follower_row)
        self._dirty_parent_rows.add(parent_row)
        return True

    def discard_follower(self, parent_row: int, follower_row: int) -> bool:
        """Remove a follower edge; True when it existed."""
        followers = self._followers[parent_row]
        if follower_row not in followers:
            return False
        followers.discard(follower_row)
        self._dirty_parent_rows.add(parent_row)
        return True

    def follower_count(self, row: int) -> int:
        """``|I_t(e)|`` of the element at ``row``."""
        return len(self._followers[row])

    def follower_rows(self, row: int) -> Tuple[int, ...]:
        """The follower rows of ``row`` (unordered)."""
        return tuple(self._followers[row])

    def follower_ids(self, row: int) -> Tuple[int, ...]:
        """The follower *element ids* of ``row`` (unordered)."""
        ids = self._element_ids
        return tuple(int(ids[follower]) for follower in self._followers[row])

    def followers_concat(
        self, rows: npt.NDArray[np.intp]
    ) -> Tuple[npt.NDArray[np.intp], npt.NDArray[np.intp]]:
        """Concatenated follower rows of ``rows`` plus per-row counts.

        The CSR-style primitive behind batched re-scoring and array-slice
        export: ``indices`` holds every follower row, segment ``j`` covering
        ``indices[counts[:j].sum() : counts[:j+1].sum()]``.
        """
        counts = np.empty(rows.shape[0], dtype=np.intp)
        chunks: List[List[int]] = []
        followers = self._followers
        for position, row in enumerate(rows.tolist()):
            member_rows = list(followers[row])
            counts[position] = len(member_rows)
            chunks.append(member_rows)
        if chunks:
            flat = [follower for chunk in chunks for follower in chunk]
        else:
            flat = []
        indices = np.asarray(flat, dtype=np.intp)
        return indices, counts

    def followers_csr(
        self, rows: npt.NDArray[np.intp]
    ) -> Tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        """``(indptr, follower_element_ids)`` CSR slices for ``rows``.

        Follower ids within a segment are sorted so the export is
        deterministic (set iteration order is not).
        """
        indptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
        segments: List[List[int]] = []
        ids = self._element_ids
        followers = self._followers
        for position, row in enumerate(rows.tolist()):
            segment = sorted(int(ids[follower]) for follower in followers[row])
            segments.append(segment)
            indptr[position + 1] = indptr[position] + len(segment)
        flat = [element_id for segment in segments for element_id in segment]
        return indptr, np.asarray(flat, dtype=np.int64)

    def followers_snapshot(self) -> Dict[int, Tuple[int, ...]]:
        """``I_t(e)`` by element id, for every element with ≥ 1 follower.

        Follower ids ascend; an absent id has no in-window follower.  Only
        the rows whose adjacency changed since the previous call are
        re-read; the returned dict is a copy (of immutable tuples), so it
        stays frozen while the store keeps mutating.
        """
        view = self._follower_view
        if self._dirty_parent_rows:
            rows = list(self._dirty_parent_rows)
            self._dirty_parent_rows.clear()
            ids = self._element_ids
            members = [self._followers[row] for row in rows]
            # One gather for every dirty row's follower ids, sliced per row.
            flat = ids[[follower for chunk in members for follower in chunk]].tolist()
            start = 0
            for parent, chunk in zip(ids[rows].tolist(), members):
                stop = start + len(chunk)
                if chunk:
                    view[parent] = tuple(sorted(flat[start:stop]))
                else:  # also a freed row (id -1), which never has an entry
                    view.pop(parent, None)
                start = stop
        return view.copy()

    # -- vectorised scans ---------------------------------------------------------

    def live_rows(self) -> npt.NDArray[np.intp]:
        """Rows currently interned, ascending."""
        result: npt.NDArray[np.intp] = np.nonzero(
            self._element_ids[: self._high_water] >= 0
        )[0]
        return result

    def window_member_rows(self) -> npt.NDArray[np.intp]:
        """Rows flagged as ``W_t`` members, ascending."""
        result: npt.NDArray[np.intp] = np.nonzero(self._in_window[: self._high_water])[0]
        return result

    def expired_window_rows(self, window_start: int) -> npt.NDArray[np.intp]:
        """Window-member rows whose posting time predates ``window_start``."""
        limit = self._high_water
        mask = self._in_window[:limit] & (self._timestamps[:limit] < window_start)
        result: npt.NDArray[np.intp] = np.nonzero(mask)[0]
        return result

    def inactive_rows(self, window_start: int) -> npt.NDArray[np.intp]:
        """Live rows whose last activity predates ``window_start``."""
        limit = self._high_water
        mask = (self._element_ids[:limit] >= 0) & (
            self._last_activity[:limit] < window_start
        )
        result: npt.NDArray[np.intp] = np.nonzero(mask)[0]
        return result

    def window_scan_rows(
        self, window_start: int
    ) -> Tuple[npt.NDArray[np.intp], npt.NDArray[np.intp]]:
        """Both window-advance row sets in one fused column scan.

        Returns ``(expired, inactive)`` — the same rows
        :meth:`expired_window_rows` and :meth:`inactive_rows` yield
        individually, computed by the ``window_scan`` kernel in a single
        pass over the columns (two masks).
        """
        limit = self._high_water
        result: Tuple[npt.NDArray[np.intp], npt.NDArray[np.intp]] = window_scan(
            self._element_ids[:limit],
            self._in_window[:limit],
            self._timestamps[:limit],
            self._last_activity[:limit],
            int(window_start),
        )
        return result

    # -- invariants ---------------------------------------------------------------

    def validate(self) -> bool:
        """Check interning/adjacency invariants (used by property tests)."""
        for element_id, row in self._row_of.items():
            if int(self._element_ids[row]) != element_id:
                return False
        live = set(self._row_of.values())
        if len(live) != len(self._row_of):
            return False
        for row in self._free_rows:
            if row in live or int(self._element_ids[row]) != -1:
                return False
        for row in range(self._high_water):
            followers = self._followers[row]
            if row not in live and followers:
                return False
            for follower_row in followers:
                if follower_row not in live or not self._in_window[follower_row]:
                    return False
        return True
