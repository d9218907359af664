"""State the windows keep current per mutation instead of rebuilding per bucket.

Two pieces of window state are maintained incrementally and must equal
their from-scratch definitions after *every* operation:

* the store's sparse follower view behind ``follower_view()`` — equal
  to a rebuild over ``live_rows()``, and handed out as the one dict the
  store keeps current (a caller that must keep a state copies it);
* the horizon-trimmed archive (a ``(timestamp, id)`` heap popped up to the
  cutoff) — equal, entry for entry and in order, to a full scan of the
  archive after every ``advance_to``.

Hypothesis drives random interleavings of element-wise inserts, bulk buckets
with intra-bucket forward references, re-posts that drop references, late
timestamps, archive re-activation, expiry with row recycling (the store
starts at two rows, so its columns double repeatedly) and checkpoint restore
(``store.clear()``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import ColumnarWindow, ElementStore
from tests.test_store_columnar import make_element

IDS = st.integers(min_value=0, max_value=9)
#: (element id, referenced ids, lateness of the timestamp)
ELEMENT = st.tuples(
    IDS, st.lists(IDS, max_size=3, unique=True), st.integers(min_value=0, max_value=3)
)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), ELEMENT),
        st.tuples(st.just("bucket"), st.lists(ELEMENT, min_size=1, max_size=5)),
        # Mostly short steps, so referenced elements outlive the horizon.
        st.tuples(st.just("advance"), st.sampled_from([1, 1, 1, 2, 3, 6])),
        st.tuples(st.just("restore"), st.none()),
    ),
    min_size=1,
    max_size=40,
)


def drive(window, ops, after_step):
    """Apply ``ops`` to ``window``, calling ``after_step(kind, payload)``."""
    clock = 1
    for kind, payload in ops:
        if kind in ("insert", "bucket"):
            specs = [payload] if kind == "insert" else payload
            elements = [
                make_element(
                    element_id,
                    max(1, clock + 1 - lateness),
                    (r for r in references if r != element_id),
                )
                for element_id, references, lateness in specs
            ]
            if kind == "bucket":
                window.insert_many(elements)
            else:
                for element in elements:
                    window.insert(element)
            after_step(kind, elements)
        elif kind == "advance":
            clock += payload
            window.advance_to(clock)
            window.take_touched_by_expiry()
            after_step(kind, clock)
        else:
            window.restore_state(window.state_dict())
            after_step(kind, None)


def rebuilt_view(store: ElementStore):
    """The follower view derived from scratch over every live row."""
    rows = store.live_rows()
    indptr, follower_ids = store.followers_csr(rows)
    flat = follower_ids.tolist()
    view = {}
    for position, parent in enumerate(store.ids_at(rows).tolist()):
        start, stop = int(indptr[position]), int(indptr[position + 1])
        if stop > start:
            view[parent] = tuple(flat[start:stop])
    return view


class TestFollowerView:
    @given(ops=OPS)
    @settings(max_examples=150, deadline=None)
    def test_view_equals_rebuild_after_every_step(self, ops):
        store = ElementStore(1, initial_capacity=2)
        window = ColumnarWindow(4, archive_windows=2, store=store)
        live = window.follower_view()

        def check(_kind, _payload):
            view = window.follower_view()
            assert view is live
            assert view == rebuilt_view(store)
            assert all(
                followers and list(followers) == sorted(followers)
                for followers in view.values()
            )
            assert set(view) <= set(window.active_ids())
            assert window.validate()

        drive(window, ops, check)

    def test_snapshots_taken_rarely_still_catch_up(self):
        """Dirty rows accumulate across buckets, releases and recycling."""
        store = ElementStore(1, initial_capacity=2)
        window = ColumnarWindow(3, store=store)
        ops = [
            ("bucket", [(1, [], 0), (2, [1], 0), (3, [1, 2], 0)]),
            ("advance", 1),
            ("bucket", [(2, [], 0), (4, [3], 0)]),  # re-post drops 2 → 1
            ("advance", 5),  # everything expires, rows are recycled
            ("bucket", [(7, [], 0), (8, [7], 0)]),
            ("advance", 1),
        ]
        drive(window, ops, lambda kind, payload: None)
        assert window.follower_view() == rebuilt_view(store) == {7: (8,)}
        store.clear()
        assert store.follower_view() == {}


WINDOW_LENGTH = 3


def archive_window(archive_windows):
    return ColumnarWindow(WINDOW_LENGTH, archive_windows=archive_windows, num_topics=1)


def full_scan_check(window, archive_windows):
    """An ``after_step`` asserting the archive equals a full-scan mirror."""
    expected = {}

    def check(kind, payload):
        if kind in ("insert", "bucket"):
            for element in payload:
                expected[element.element_id] = element
        elif kind == "advance":
            cutoff = payload - archive_windows * WINDOW_LENGTH
            if cutoff > 0:
                for element_id, element in list(expected.items()):
                    if element.timestamp < cutoff and element_id not in window:
                        del expected[element_id]
        assert list(window._archive.items()) == list(expected.items())

    return check


class TestArchiveTrim:
    @given(ops=OPS, archive_windows=st.integers(1, 2))
    @settings(max_examples=150, deadline=None)
    def test_archive_equals_full_scan_after_every_advance(self, ops, archive_windows):
        window = archive_window(archive_windows)
        drive(window, ops, full_scan_check(window, archive_windows))

    def test_entry_kept_active_past_the_horizon_goes_when_released(self):
        """References keep element 1 active after the cutoff passed its
        timestamp (its heap record is spent by then); it must leave the
        archive in the advance that releases it."""
        window = archive_window(1)
        ops = [("insert", (1, [], 0)), ("advance", 1)]
        for follower_id in (2, 3, 4, 5):
            ops += [("insert", (follower_id, [1], 0)), ("advance", 1)]
        drive(window, ops, full_scan_check(window, 1))
        assert 1 in window and 1 in window._archive
        assert window.current_time - WINDOW_LENGTH > window.get(1).timestamp
        drive(window, [("advance", 8)], lambda kind, payload: None)
        assert 1 not in window and 1 not in window._archive

    def test_entries_change_only_through_put_and_trim(self):
        """No dict-style write can add an entry that skips the expiry heap."""
        window = archive_window(1)
        drive(window, [("insert", (1, [], 0))], lambda kind, payload: None)
        archive = window._archive
        element = archive.get(1)
        with pytest.raises(TypeError):
            archive[2] = element
        assert not hasattr(archive, "update") and not hasattr(archive, "setdefault")
        assert len(archive) == len(archive._expiry) == 1
