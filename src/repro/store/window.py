"""The time-based window and the active set ``A_t``, over an :class:`ElementStore`.

Section 3.1: given window length ``T``, the window ``W_t`` holds elements
with ``ts ∈ [t − T + 1, t]`` and the *active set* ``A_t`` additionally
keeps every element referred to by some window element.  The influence
score only counts references observed inside the window, so the window
also maintains, for each active element, its *followers in the window*
(``I_t(e') = {e ∈ W_t : e' ∈ e.ref}``).  Eviction follows Algorithm 1: an
element stays active as long as its last activity (its own post time, or
the latest time it was referenced) is within the window; a referenced
element that already expired is re-activated from a bounded archive.

:class:`ColumnarWindow` keeps the hot state (timestamps, last-activity,
window membership, follower adjacency) in the columnar store:

* the two expiry scans of :meth:`advance_to` (window members posted before
  the window start; elements whose last activity predates it) are boolean
  masks over contiguous arrays;
* follower bookkeeping is row-index adjacency in the store, which the
  processor's batched re-scorer and the shard export read per parent row,
  and which the store mirrors into a sparse by-id view for snapshots.

The :class:`~repro.core.element.SocialElement` payloads themselves (tokens,
references, text) stay in plain dicts: they are cold data touched once per
element, and the archive needs the full objects to re-activate expired
precedents and to rebuild profiles after a checkpoint restore.

``state_dict`` emits the numeric parts as arrays (the checkpoint extracts
them into its ``.npz`` member); :mod:`repro.store.codec` holds the shapes.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple, cast

import numpy as np

from repro.core.element import SocialElement
from repro.store.archive import ElementArchive
from repro.store.codec import (
    decode_followers,
    decode_id_list,
    decode_pairs,
    encode_id_array,
)
from repro.store.store import ElementStore
from repro.utils.validation import require_forward


class ColumnarWindow:
    """Maintains ``W_t``, ``A_t`` and follower sets on columnar arrays."""

    def __init__(
        self,
        window_length: int,
        archive_windows: int = 8,
        store: Optional[ElementStore] = None,
        num_topics: int = 1,
    ) -> None:
        if window_length <= 0:
            raise ValueError("window_length must be positive")
        if archive_windows < 1:
            raise ValueError("archive_windows must be at least 1")
        self._window_length = int(window_length)
        self._archive_horizon = int(archive_windows) * self._window_length
        self._current_time: Optional[int] = None
        self._store = store if store is not None else ElementStore(num_topics)
        # Cold per-element payloads: the active objects and the bounded
        # archive that re-activates expired precedents.
        self._elements: Dict[int, SocialElement] = {}
        self._archive = ElementArchive(self._archive_horizon)
        self._touched_by_expiry: Set[int] = set()

    # -- configuration ----------------------------------------------------------

    @property
    def store(self) -> ElementStore:
        """The columnar store backing this window."""
        return self._store

    @property
    def window_length(self) -> int:
        """The window length ``T``."""
        return self._window_length

    @property
    def archive_horizon(self) -> int:
        """Archive retention horizon in stream time units."""
        return self._archive_horizon

    @property
    def current_time(self) -> Optional[int]:
        """The time of the last :meth:`advance_to` call (None before any)."""
        return self._current_time

    @property
    def window_start(self) -> Optional[int]:
        """The earliest in-window timestamp, ``t − T + 1``."""
        if self._current_time is None:
            return None
        return self._current_time - self._window_length + 1

    # -- updates -----------------------------------------------------------------

    def insert(self, element: SocialElement) -> Tuple[int, ...]:
        """Insert a newly arrived element into the window.

        Returns the ids of the referenced elements that are active after the
        insertion (their influence scores changed, so the caller refreshes
        their ranked-list tuples).  A referenced element that had already
        expired is re-activated from the archive, because ``A_t`` contains
        every element referred to by a window member regardless of its own
        age; a reference to a never-observed element is ignored.
        """
        store = self._store
        element_id = element.element_id
        self._retire_replaced_edges(element_id)
        row = store.acquire(element_id, element.timestamp)
        store.raise_last_activity(row, element.timestamp)
        store.set_in_window(row, True)
        self._elements[element_id] = element
        self._archive.put(element)

        touched: List[int] = []
        for parent_id in element.references:
            parent_row = store.get_row(parent_id)
            if parent_row is None:
                parent = self._archive.get(parent_id)
                if parent is None:
                    # Never observed (or already dropped from the archive):
                    # dangling references are ignored, as a deployment would.
                    continue
                # Re-activate the expired precedent from the archive.
                parent_row = store.acquire(parent_id, parent.timestamp)
                self._elements[parent_id] = parent
            store.add_follower(parent_row, row)
            store.raise_last_activity(parent_row, element.timestamp)
            touched.append(parent_id)
        return tuple(touched)

    def _retire_replaced_edges(self, element_id: int) -> None:
        """Retire the follower edges of a re-posted window member.

        A replacement's old edges must not outlive the old version: the
        columnar store recycles rows, so a dangling edge would later point
        at an unrelated element (and ``I_t(e')`` is defined over current
        references).  Parents losing an edge are re-scored through the
        touched-by-expiry channel.
        """
        store = self._store
        row = store.get_row(element_id)
        if row is None or not store.in_window(row):
            return
        previous = self._elements[element_id]
        for parent_id in previous.references:
            parent_row = store.get_row(parent_id)
            if parent_row is not None and store.discard_follower(parent_row, row):
                self._touched_by_expiry.add(parent_id)

    def insert_bucket(
        self, elements: Iterable[SocialElement]
    ) -> Dict[int, Tuple[int, ...]]:
        """Insert a bucket; returns ``{element_id: touched_parent_ids}``."""
        return {element.element_id: self.insert(element) for element in elements}

    def insert_many(
        self, elements: List[SocialElement]
    ) -> Tuple[List[Tuple[int, ...]], List[int]]:
        """Insert a bucket through the store's bulk row allocation.

        Returns per-element touched-parent tuples (same contract as
        :meth:`insert`, in order) plus the interned rows, so the caller
        can follow up with bulk profile writes.  Semantically identical
        to calling :meth:`insert` per element.
        """
        store = self._store
        # Rows are interned for the whole bucket up front, so reference
        # resolution below must reconstruct the element-at-a-time world:
        # ids that were not live before the bucket and have not been
        # reached yet are *pending* — a reference to one resolves through
        # the archive (re-activating the archived precedent) or stays
        # dropped as dangling, exactly as :meth:`insert` behaves.
        pending = set()
        member_before = set()
        for element in elements:
            existing_row = store.get_row(element.element_id)
            if existing_row is None:
                pending.add(element.element_id)
            elif store.in_window(existing_row):
                member_before.add(element.element_id)
        rows = store.bulk_acquire(
            [element.element_id for element in elements],
            [element.timestamp for element in elements],
        )
        store.set_in_window_many(rows, True)
        elements_map = self._elements
        archive = self._archive
        reposted = set()
        touched_lists: List[Tuple[int, ...]] = []
        for element, row in zip(elements, rows):
            element_id = element.element_id
            pending.discard(element_id)
            # Retire the edges of a replaced window member (the membership
            # test uses the pre-bucket state: the bulk pre-flagged every
            # row as a member already).
            if element_id in member_before or element_id in reposted:
                previous = elements_map[element_id]
                for parent_id in previous.references:
                    parent_row = store.get_row(parent_id)
                    if parent_row is not None and store.discard_follower(
                        parent_row, row
                    ):
                        self._touched_by_expiry.add(parent_id)
            reposted.add(element_id)
            elements_map[element_id] = element
            archive.put(element)
            # Fresh rows already carry last_activity = timestamp; a bucket
            # that re-acquired a live id fell back to element-wise acquire,
            # which also leaves last_activity ≥ the new timestamp only if
            # raised — do it explicitly for that (rare) case.
            store.raise_last_activity(row, element.timestamp)
            touched: List[int] = []
            for parent_id in element.references:
                if parent_id in pending:
                    # Pre-interned by the bulk but not observed yet at this
                    # insertion point: resolvable only through the archive
                    # (an expired precedent re-posted later in the bucket).
                    parent = archive.get(parent_id)
                    if parent is None:
                        continue
                    elements_map[parent_id] = parent
                    parent_row = store.row_of(parent_id)
                    # The element-wise path re-activates with the archived
                    # timestamp before the re-post overwrites it; fold its
                    # contribution into the activity max explicitly.
                    store.raise_last_activity(parent_row, parent.timestamp)
                else:
                    maybe_row = store.get_row(parent_id)
                    if maybe_row is None:
                        parent = archive.get(parent_id)
                        if parent is None:
                            continue
                        maybe_row = store.acquire(parent_id, parent.timestamp)
                        elements_map[parent_id] = parent
                    parent_row = maybe_row
                store.add_follower(parent_row, row)
                store.raise_last_activity(parent_row, element.timestamp)
                touched.append(parent_id)
            touched_lists.append(tuple(touched))
        return touched_lists, rows

    def advance_to(self, time: int) -> Tuple[int, ...]:
        """Advance the window to ``time``; returns the expired element ids."""
        require_forward(self._current_time, time)
        self._current_time = int(time)
        window_start = self.window_start
        assert window_start is not None
        store = self._store

        # Both row sets come out of one fused column scan (the
        # ``window_scan`` kernel).  Computing them upfront is equivalent
        # to the historical two-pass order: step 1 only mutates window
        # membership and follower edges, never the element-id or
        # last-activity columns the inactive mask reads.
        expired_rows, inactive_rows = store.window_scan_rows(window_start)

        # 1. Window members posted before the window start leave W_t; their
        #    follower edges disappear and the affected parents are marked
        #    stale for re-scoring.
        for row in expired_rows.tolist():
            store.set_in_window(row, False)
            element = self._elements[store.element_id_at(row)]
            for parent_id in element.references:
                parent_row = store.get_row(parent_id)
                if parent_row is not None and store.discard_follower(parent_row, row):
                    self._touched_by_expiry.add(parent_id)

        # 2. Elements whose last activity predates the window start leave
        #    the active set entirely (their rows are recycled).
        removed: List[int] = []
        for row in inactive_rows.tolist():
            element_id = store.element_id_at(row)
            store.release(element_id)
            self._elements.pop(element_id, None)
            self._touched_by_expiry.discard(element_id)
            removed.append(element_id)

        # 3. Trim the archive so memory stays bounded by the horizon.
        self._archive.trim(self._current_time, self._elements, removed)
        return tuple(removed)

    # -- queries ---------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, element_id: int) -> bool:
        return element_id in self._elements

    def __iter__(self) -> Iterator[SocialElement]:
        return iter(self._elements.values())

    def get(self, element_id: int) -> SocialElement:
        """Return the active element with the given id (KeyError when absent)."""
        return self._elements[element_id]

    def active_ids(self) -> Tuple[int, ...]:
        """Ids of every active element (``A_t``)."""
        return tuple(self._elements.keys())

    def active_elements(self) -> Tuple[SocialElement, ...]:
        """Every active element (``A_t``)."""
        return tuple(self._elements.values())

    def window_ids(self) -> Tuple[int, ...]:
        """Ids of the elements inside the sliding window (``W_t``)."""
        store = self._store
        return tuple(
            int(i) for i in store.ids_at(store.window_member_rows()).tolist()
        )

    def in_window(self, element_id: int) -> bool:
        """Whether the element is currently a member of ``W_t``."""
        row = self._store.get_row(element_id)
        return row is not None and self._store.in_window(row)

    def take_touched_by_expiry(self) -> Tuple[int, ...]:
        """Active elements whose follower set shrank since the last call.

        Their stored topic-wise scores are stale (they still include expired
        followers); the stream processor re-scores them after every window
        advance so the ranked lists always equal ``f_i({e})`` at query time
        (this is what makes Figure 5's tuple values exact).  The set is
        cleared by the call.
        """
        touched = tuple(
            eid for eid in self._touched_by_expiry if eid in self._elements
        )
        self._touched_by_expiry.clear()
        return touched

    def followers_of(self, element_id: int) -> Tuple[int, ...]:
        """``I_t(e)``: ids of in-window elements referencing ``element_id``."""
        row = self._store.get_row(element_id)
        if row is None:
            return ()
        return self._store.follower_ids(row)

    def follower_view(self) -> Dict[int, Tuple[int, ...]]:
        """``I_t(e)`` of every element with ≥ 1 in-window follower: the
        store's maintained view itself (not a copy), at the cost of
        refreshing the rows the last buckets touched — not a pass over the
        window.  It keeps changing with the window; copy it to keep it."""
        return self._store.follower_view()

    def follower_count(self, element_id: int) -> int:
        """``|I_t(e)|`` without materialising the tuple."""
        row = self._store.get_row(element_id)
        return 0 if row is None else self._store.follower_count(row)

    def last_activity(self, element_id: int) -> int:
        """Last post/reference time of the element (KeyError when inactive)."""
        return self._store.last_activity_of(self._store.row_of(element_id))

    @property
    def active_count(self) -> int:
        """``n_t = |A_t|``."""
        return len(self._elements)

    @property
    def window_count(self) -> int:
        """``|W_t|``."""
        return self._store.window_count

    # -- checkpoint state --------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """A snapshot of the full window state, numeric parts as arrays.

        The archive is the superset of every live element (actives are
        always archived first), so elements are serialised once, from the
        archive, and the active/window/follower structure is stored as id
        arrays, which the checkpoint layer extracts into its ``.npz``
        member.  :meth:`restore_state` is the inverse.
        """
        store = self._store
        ordered = encode_id_array(self._elements)
        rows = store.rows_of(ordered.tolist())
        indptr, follower_ids = store.followers_csr(rows)
        last_activity = np.stack(
            [ordered, store.last_activity_slice(rows)], axis=1
        ).astype(np.int64)
        return {
            "window_length": self._window_length,
            "archive_horizon": self._archive_horizon,
            "current_time": self._current_time,
            "archive": [element.to_dict() for element in self._archive.values()],
            "active_ids": ordered,
            "window_member_ids": encode_id_array(self.window_ids()),
            "last_activity": last_activity,
            "followers": {
                "parents": ordered,
                "indptr": indptr,
                "followers": follower_ids,
            },
            "touched_by_expiry": sorted(self._touched_by_expiry),
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Replace the window contents with a :meth:`state_dict` snapshot.

        The receiving window must have been constructed with the same
        ``window_length`` (the expiry semantics depend on it); a mismatch
        raises ``ValueError`` instead of silently changing behaviour, and
        so does the state of a tumbling or session window, which earlier
        releases wrote under a ``window_policy`` key.  The loaded archive is
        pruned to *this* window's configured horizon, so a checkpoint
        written with a longer horizon does not carry stale history into a
        tighter configuration.
        """
        if int(cast(int, state["window_length"])) != self._window_length:
            raise ValueError(
                f"checkpoint window_length {state['window_length']} does not match "
                f"the configured window_length {self._window_length}"
            )
        if "window_policy" in state:
            raise ValueError(
                f"checkpoint holds a non-sliding window ({state['window_policy']!r}): "
                "the tumbling and session windows were retired and the sliding "
                "window is the only one left, so its expiry state cannot be resumed"
            )
        archive_payload = cast(List[Dict[str, object]], state["archive"])
        archive = {
            int(cast(int, payload["element_id"])): SocialElement.from_dict(payload)
            for payload in archive_payload
        }
        current_time = cast(Optional[int], state["current_time"])
        self._current_time = None if current_time is None else int(current_time)

        store = self._store
        store.clear()
        self._elements = {}
        active_ids = decode_id_list(state["active_ids"])
        for element_id in active_ids:
            element = archive[element_id]
            self._elements[element_id] = element
            store.acquire(element_id, element.timestamp)
        for element_id in decode_id_list(state["window_member_ids"]):
            store.set_in_window(store.row_of(element_id), True)
        for element_id, time in decode_pairs(state["last_activity"]):
            row = store.get_row(element_id)
            if row is not None:
                store.set_last_activity(row, time)
        for parent_id, follower_ids in decode_followers(state["followers"]).items():
            parent_row = store.get_row(parent_id)
            if parent_row is None:
                continue
            for follower_id in follower_ids:
                store.add_follower(parent_row, store.row_of(follower_id))
        self._touched_by_expiry = {
            int(eid) for eid in decode_id_list(state["touched_by_expiry"])
        }
        # A restored window must not carry more history than a live one would.
        self._archive = ElementArchive(self._archive_horizon, archive)
        if self._current_time is not None:
            self._archive.trim(self._current_time, self._elements, archive)

    def validate(self) -> bool:
        """Check internal invariants (used by property-based tests)."""
        store = self._store
        if not store.validate():
            return False
        if len(self._elements) != len(store):
            return False
        window_start = self.window_start
        for element_id, element in self._elements.items():
            row = store.get_row(element_id)
            if row is None:
                return False
            if store.in_window(row):
                if window_start is not None and element.timestamp < window_start:
                    return False
            for follower_row in store.follower_rows(row):
                follower = self._elements.get(store.element_id_at(follower_row))
                if follower is None or element_id not in follower.references:
                    return False
            if element_id not in self._archive and element_id in self._elements:
                # Actives are always archived first (insert order), except
                # re-activated precedents whose archive entry must exist too.
                return False
        return True
