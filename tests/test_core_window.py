"""Tests for the sliding window / active set maintenance (Algorithm 1 semantics)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.element import SocialElement
from repro.store import ColumnarWindow


def make_element(element_id, timestamp, references=()):
    return SocialElement(
        element_id=element_id,
        timestamp=timestamp,
        tokens=("word",),
        references=tuple(references),
        topic_distribution=np.array([1.0]),
    )


class TestActiveWindowBasics:
    def test_invalid_window_length(self):
        with pytest.raises(ValueError):
            ColumnarWindow(0)

    def test_insert_and_advance(self):
        window = ColumnarWindow(window_length=5)
        window.insert(make_element(1, 10))
        removed = window.advance_to(10)
        assert removed == ()
        assert window.active_count == 1
        assert window.window_count == 1
        assert window.current_time == 10
        assert window.window_start == 6

    def test_expiry_of_old_elements(self):
        window = ColumnarWindow(window_length=3)
        window.insert(make_element(1, 1))
        window.advance_to(1)
        window.insert(make_element(2, 5))
        removed = window.advance_to(5)
        assert 1 in removed
        assert 1 not in window
        assert 2 in window

    def test_referenced_elements_stay_active(self):
        window = ColumnarWindow(window_length=3)
        window.insert(make_element(1, 1))
        window.advance_to(1)
        window.insert(make_element(2, 4, references=(1,)))
        removed = window.advance_to(4)
        # e1 left the window (ts=1 < 2) but is still referenced by e2 (ts=4).
        assert removed == ()
        assert 1 in window
        assert not window.in_window(1)
        assert window.in_window(2)
        assert window.followers_of(1) == (2,)

    def test_reference_expires_with_referencing_element(self):
        window = ColumnarWindow(window_length=3)
        window.insert(make_element(1, 1))
        window.advance_to(1)
        window.insert(make_element(2, 3, references=(1,)))
        window.advance_to(3)
        # When e2 expires at time 6, e1 loses its last supporter and expires too.
        removed = window.advance_to(6)
        assert set(removed) == {1, 2}
        assert window.active_count == 0

    def test_insert_returns_touched_parents(self):
        window = ColumnarWindow(window_length=10)
        window.insert(make_element(1, 1))
        touched = window.insert(make_element(2, 2, references=(1, 99)))
        assert touched == (1,)

    def test_unknown_references_ignored(self):
        window = ColumnarWindow(window_length=10)
        touched = window.insert(make_element(5, 3, references=(404,)))
        assert touched == ()
        window.advance_to(3)
        assert 404 not in window

    def test_follower_bookkeeping(self):
        window = ColumnarWindow(window_length=10)
        window.insert(make_element(1, 1))
        window.insert(make_element(2, 2, references=(1,)))
        window.insert(make_element(3, 3, references=(1,)))
        window.advance_to(3)
        assert set(window.followers_of(1)) == {2, 3}
        assert window.follower_count(1) == 2
        assert window.followers_of(2) == ()

    def test_followers_drop_when_follower_leaves_window(self):
        window = ColumnarWindow(window_length=3)
        window.insert(make_element(1, 1))
        window.insert(make_element(2, 2, references=(1,)))
        window.advance_to(2)
        assert window.followers_of(1) == (2,)
        window.insert(make_element(3, 5, references=(1,)))
        window.advance_to(5)
        # e2 (ts=2) left W_t=[3,5]; only e3 still counts as a follower.
        assert window.followers_of(1) == (3,)

    def test_cannot_move_backwards(self):
        window = ColumnarWindow(window_length=5)
        window.advance_to(10)
        with pytest.raises(ValueError):
            window.advance_to(9)

    def test_insert_bucket(self):
        window = ColumnarWindow(window_length=10)
        touched = window.insert_bucket(
            [make_element(1, 1), make_element(2, 2, references=(1,))]
        )
        assert touched == {1: (), 2: (1,)}

    def test_last_activity_tracks_references(self):
        window = ColumnarWindow(window_length=10)
        window.insert(make_element(1, 1))
        window.insert(make_element(2, 7, references=(1,)))
        window.advance_to(7)
        assert window.last_activity(1) == 7
        assert window.last_activity(2) == 7

    def test_accessors(self):
        window = ColumnarWindow(window_length=5)
        window.insert(make_element(1, 1))
        window.advance_to(1)
        assert window.active_ids() == (1,)
        assert [e.element_id for e in window.active_elements()] == [1]
        assert window.window_ids() == (1,)
        assert window.get(1).element_id == 1
        assert list(iter(window))[0].element_id == 1
        with pytest.raises(KeyError):
            window.get(42)


class TestPaperExampleWindow:
    def test_active_set_at_time_8(self, paper_elements):
        """At t=8 with T=4 the paper's active set is everything except e4."""
        window = ColumnarWindow(window_length=4)
        for element in paper_elements:
            window.insert(element)
            window.advance_to(element.timestamp)
        assert set(window.active_ids()) == {1, 2, 3, 5, 6, 7, 8}
        assert set(window.window_ids()) == {5, 6, 7, 8}
        # Follower sets used in Example 3.2.
        assert set(window.followers_of(3)) == {6, 8}
        assert set(window.followers_of(2)) == {7, 8}
        assert window.followers_of(1) == (5,)
        assert window.validate()


class TestWindowProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),  # timestamp offsets
                st.lists(st.integers(min_value=0, max_value=20), max_size=3),
            ),
            min_size=1,
            max_size=40,
        ),
        st.integers(min_value=1, max_value=15),
    )
    @settings(max_examples=50, deadline=None)
    def test_invariants_hold_under_any_arrival_pattern(self, arrivals, window_length):
        """The window invariants hold for arbitrary streams and window lengths."""
        window = ColumnarWindow(window_length=window_length)
        elements = []
        for index, (offset, references) in enumerate(
            sorted(arrivals, key=lambda item: item[0])
        ):
            valid_references = [ref for ref in references if ref < index]
            elements.append(make_element(index, offset, references=valid_references))
        current = None
        for element in elements:
            window.insert(element)
            current = element.timestamp if current is None else max(current, element.timestamp)
            window.advance_to(current)
            assert window.validate()
            start = window.window_start
            # Every window member is within [start, current].
            for eid in window.window_ids():
                assert start <= window.get(eid).timestamp <= current
            # Every active element was posted or referenced within the window.
            for eid in window.active_ids():
                assert window.last_activity(eid) >= start
