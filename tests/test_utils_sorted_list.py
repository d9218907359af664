"""Unit and property tests for the descending sorted list."""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels
from repro.kernels import numpy_impl
from repro.utils import sorted_list
from repro.utils.sorted_list import DescendingSortedList

#: The ``ranked_merge`` that ``bulk_insert`` runs, under the two kernel-mode
#: names a manifest may still carry (both load as the one NumPy path):
#: ``auto`` is the timed wrapper the call site imports, ``numpy`` the bare
#: :mod:`repro.kernels.numpy_impl` body.  Running every property under both
#: also pins that the call timer leaves the merge order alone.
RANKED_MERGES = {"numpy": numpy_impl.ranked_merge, "auto": repro.kernels.ranked_merge}
KERNEL_MODES = list(RANKED_MERGES)


@contextmanager
def merging_with(mode):
    """Run ``bulk_insert``'s merge order through the ``mode`` entry point."""
    with mock.patch.object(sorted_list, "ranked_merge", RANKED_MERGES[mode]):
        yield


class TestBasicOperations:
    def test_empty_list(self):
        ranked = DescendingSortedList()
        assert len(ranked) == 0
        assert "x" not in ranked
        assert list(ranked) == []
        assert ranked.get("x") is None

    def test_insert_and_contains(self):
        ranked = DescendingSortedList()
        ranked.insert("a", 1.0)
        assert "a" in ranked
        assert ranked.score("a") == 1.0
        assert len(ranked) == 1

    def test_descending_iteration_order(self):
        ranked = DescendingSortedList()
        ranked.insert("low", 1.0)
        ranked.insert("high", 3.0)
        ranked.insert("mid", 2.0)
        assert [key for key, _ in ranked] == ["high", "mid", "low"]
        assert [score for _, score in ranked] == [3.0, 2.0, 1.0]

    def test_ties_broken_by_key(self):
        ranked = DescendingSortedList()
        ranked.insert("b", 1.0)
        ranked.insert("a", 1.0)
        assert ranked.keys() == ["a", "b"]

    def test_insert_replaces_existing(self):
        ranked = DescendingSortedList()
        ranked.insert("a", 1.0)
        ranked.insert("a", 5.0)
        assert len(ranked) == 1
        assert ranked.score("a") == 5.0

    def test_update_moves_position(self):
        ranked = DescendingSortedList()
        ranked.insert("a", 1.0)
        ranked.insert("b", 2.0)
        ranked.update("a", 3.0)
        assert ranked.keys() == ["a", "b"]

    def test_remove(self):
        ranked = DescendingSortedList()
        ranked.insert("a", 1.0)
        ranked.remove("a")
        assert "a" not in ranked
        assert len(ranked) == 0

    def test_remove_missing_raises(self):
        ranked = DescendingSortedList()
        with pytest.raises(KeyError):
            ranked.remove("missing")

    def test_discard_missing_is_noop(self):
        ranked = DescendingSortedList()
        ranked.discard("missing")
        assert len(ranked) == 0

    def test_peek_returns_maximum(self):
        ranked = DescendingSortedList()
        ranked.insert("a", 1.0)
        ranked.insert("b", 9.0)
        assert ranked.peek() == ("b", 9.0)

    def test_peek_empty_raises(self):
        with pytest.raises(IndexError):
            DescendingSortedList().peek()

    def test_at_indexing(self):
        ranked = DescendingSortedList()
        for key, score in [("a", 1.0), ("b", 2.0), ("c", 3.0)]:
            ranked.insert(key, score)
        assert ranked.at(0) == ("c", 3.0)
        assert ranked.at(2) == ("a", 1.0)

    def test_items_matches_iteration(self):
        ranked = DescendingSortedList()
        for key, score in [("a", 1.0), ("b", 2.0)]:
            ranked.insert(key, score)
        assert ranked.items() == list(ranked)

    def test_clear(self):
        ranked = DescendingSortedList()
        ranked.insert("a", 1.0)
        ranked.clear()
        assert len(ranked) == 0
        assert ranked.validate()

    def test_negative_and_zero_scores(self):
        ranked = DescendingSortedList()
        ranked.insert("neg", -1.5)
        ranked.insert("zero", 0.0)
        ranked.insert("pos", 2.5)
        assert ranked.keys() == ["pos", "zero", "neg"]


class TestPropertyBased:
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=30), st.floats(-100, 100)),
            max_size=80,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_dict(self, operations):
        """Insert/update sequences keep the list consistent with a dict."""
        ranked = DescendingSortedList()
        reference = {}
        for key, score in operations:
            ranked.insert(key, score)
            reference[key] = score
        assert len(ranked) == len(reference)
        assert ranked.validate()
        expected = sorted(reference.items(), key=lambda item: (-item[1], item[0]))
        assert ranked.items() == [(key, score) for key, score in expected]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "update", "remove"]),
                st.integers(min_value=0, max_value=15),
                st.floats(-50, 50),
            ),
            max_size=120,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_mixed_operations_preserve_invariants(self, operations):
        """Arbitrary operation sequences never break the sorted invariant."""
        ranked = DescendingSortedList()
        reference = {}
        for action, key, score in operations:
            if action == "remove":
                ranked.discard(key)
                reference.pop(key, None)
            else:
                ranked.insert(key, score)
                reference[key] = score
            assert ranked.validate()
        assert set(ranked.keys()) == set(reference)
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)


class TestBulkInsertProperty:
    """Satellite property: bulk_insert ≡ repeated insert, ties included.

    The large-batch branch of ``bulk_insert`` delegates its merge order
    to the ``ranked_merge`` kernel, so the property is checked through
    both of its entry points: the timed wrapper and the NumPy body.
    """

    @pytest.mark.parametrize("kernel_mode", KERNEL_MODES)
    @given(
        prefill=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=12),
                st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
            ),
            max_size=40,
        ),
        batch=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                # Few distinct scores, so duplicate scores (ties broken by
                # key — elements sharing the same t_e bucket produce
                # exactly this shape) are the common case, not the edge.
                st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_bulk_insert_equals_repeated_insert(self, kernel_mode, prefill, batch):
        with merging_with(kernel_mode):
            reference = DescendingSortedList()
            bulk = DescendingSortedList()
            for key, score in prefill:
                reference.insert(key, score)
                bulk.insert(key, score)
            for key, score in batch:
                reference.insert(key, score)
            bulk.bulk_insert(batch)
        assert bulk.items() == reference.items()
        assert bulk.keys() == reference.keys()
        assert bulk.validate() and reference.validate()


class TestBulkInsertTieBreak:
    """Equal scores must resolve by ascending key on every merge path."""

    @pytest.mark.parametrize("kernel_mode", KERNEL_MODES)
    def test_large_batch_ties_resolve_by_key(self, kernel_mode):
        # 32 staged entries against an empty list takes the kernel-merge
        # branch (int keys → ranked_merge permutation), and every score
        # collides with exactly one other key.
        batch = [(key, float(key % 16)) for key in range(32)]
        with merging_with(kernel_mode):
            ranked = DescendingSortedList()
            ranked.bulk_insert(batch)
        expected = sorted(batch, key=lambda item: (-item[1], item[0]))
        assert ranked.items() == expected
        assert ranked.validate()

    @pytest.mark.parametrize("kernel_mode", KERNEL_MODES)
    def test_all_scores_equal(self, kernel_mode):
        with merging_with(kernel_mode):
            ranked = DescendingSortedList()
            ranked.bulk_insert((key, 1.0) for key in (9, 3, 27, 0, 14, 5, 21, 8, 2))
        assert ranked.keys() == [0, 2, 3, 5, 8, 9, 14, 21, 27]

    @pytest.mark.parametrize("kernel_mode", KERNEL_MODES)
    def test_signed_zero_scores_tie(self, kernel_mode):
        """-0.0 and 0.0 compare equal, so the key decides — both paths."""
        batch = [(3, -0.0), (1, 0.0), (2, -0.0), (0, 0.0)] + [
            (key, 1.0) for key in range(4, 16)
        ]
        with merging_with(kernel_mode):
            ranked = DescendingSortedList()
            ranked.bulk_insert(batch)
        assert ranked.keys()[-4:] == [0, 1, 2, 3]

    def test_non_int_keys_fall_back_to_python_sort(self):
        batch = [(f"k{index:02d}", float(index % 4)) for index in range(24)]
        ranked = DescendingSortedList()
        ranked.bulk_insert(batch)
        assert ranked.items() == sorted(batch, key=lambda item: (-item[1], item[0]))

    def test_oversized_int_keys_fall_back_to_python_sort(self):
        # Keys beyond int64 overflow np.fromiter; bulk_insert must fall
        # back to the pure-Python merge and still honour the tie-break.
        huge = 2**70
        batch = [(huge + index, float(index % 3)) for index in range(16)]
        ranked = DescendingSortedList()
        ranked.bulk_insert(batch)
        assert ranked.items() == sorted(batch, key=lambda item: (-item[1], item[0]))
        assert ranked.validate()

    def test_merge_with_existing_entries_preserves_tie_order(self):
        ranked = DescendingSortedList()
        for key in (4, 10):
            ranked.insert(key, 2.0)
        ranked.bulk_insert(
            [(7, 2.0), (1, 2.0)] + [(key, 0.5) for key in range(20, 34)]
        )
        assert ranked.keys()[:4] == [1, 4, 7, 10]
