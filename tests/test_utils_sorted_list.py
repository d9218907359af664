"""Unit and property tests for the descending sorted list."""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels
from repro.kernels import numpy_impl
from repro.utils import sorted_list
from repro.utils.sorted_list import DescendingSortedList

#: The ``ranked_merge`` that the first read after a change runs, under the two kernel-mode
#: names a manifest may still carry (both load as the one NumPy path):
#: ``auto`` is the timed wrapper the call site imports, ``numpy`` the bare
#: :mod:`repro.kernels.numpy_impl` body.  Running every property under both
#: also pins that the call timer leaves the merge order alone.
RANKED_MERGES = {"numpy": numpy_impl.ranked_merge, "auto": repro.kernels.ranked_merge}
KERNEL_MODES = list(RANKED_MERGES)


@contextmanager
def merging_with(mode):
    """Run the sort of a read through the ``mode`` entry point."""
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

    The first read after ``bulk_insert`` sorts through the ``ranked_merge``
    kernel, so the property is checked through both of its entry points:
    the timed wrapper and the NumPy body.
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
        # Int keys sort through the ranked_merge permutation, and every
        # score collides with exactly one other key.
        batch = [(key, float(key % 16)) for key in range(32)]
        expected = sorted(batch, key=lambda item: (-item[1], item[0]))
        with merging_with(kernel_mode):
            ranked = DescendingSortedList()
            ranked.bulk_insert(batch)
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
        """-0.0 and 0.0 compare equal, so the key decides, and each
        score reads back with its own sign."""
        batch = [(3, -0.0), (1, 0.0), (2, -0.0), (0, 0.0)] + [
            (key, 1.0) for key in range(4, 16)
        ]
        with merging_with(kernel_mode):
            ranked = DescendingSortedList()
            ranked.bulk_insert(batch)
            assert repr(ranked.items()[-4:]) == repr([(0, 0.0), (1, 0.0), (2, -0.0), (3, -0.0)])

    def test_non_int_keys_fall_back_to_python_sort(self):
        batch = [(f"k{index:02d}", float(index % 4)) for index in range(24)]
        ranked = DescendingSortedList()
        ranked.bulk_insert(batch)
        assert ranked.items() == sorted(batch, key=lambda item: (-item[1], item[0]))

    def test_oversized_int_keys_fall_back_to_python_sort(self):
        # Keys beyond int64 overflow the NumPy id column; the sort must
        # fall back to Python's and still honour the tie-break.
        huge = 2**70
        batch = [(huge + index, float(index % 3)) for index in range(16)]
        ranked = DescendingSortedList()
        ranked.bulk_insert(batch)
        assert ranked.items() == sorted(batch, key=lambda item: (-item[1], item[0]))
        assert ranked.validate()

    @pytest.mark.parametrize(
        "other",
        [2.5, 7.0, True, False, (3, 1), 2**63, -(2**63) - 1],
        ids=["float", "whole-float", "true", "false", "tuple", "int64-max+1", "int64-min-1"],
    )
    @pytest.mark.parametrize("write", ["insert", "bulk_insert"])
    def test_keys_other_than_int_sort_as_python_does(self, other, write):
        """A float or bool key is never truncated into the int64 column (a
        ``fromiter`` would make ``2.5`` a 2 and ``True`` a 1), a tuple stays
        one key and an int beyond int64 is not wrapped: each such list sorts
        with ``sorted()`` into an object key column, among int keys too."""
        comparable = not isinstance(other, tuple)
        batch = [(other, 1.0)] + ([(2, 1.0), (3, 1.0), (5, 4.0)] if comparable else [])
        ranked = DescendingSortedList()
        if write == "insert":
            for key, score in batch:
                ranked.insert(key, score)
        else:
            ranked.bulk_insert(batch)
        scores, keys = ranked.columns()
        assert keys.dtype == object
        assert ranked.items() == sorted(batch, key=lambda item: (-item[1], item[0]))
        assert [type(key) for key in ranked.keys()] == [
            type(key) for key, _ in sorted(batch, key=lambda item: (-item[1], item[0]))
        ]
        assert ranked.validate()

    def test_int_keys_take_the_int64_column_again_after_a_clear(self):
        ranked = DescendingSortedList()
        ranked.insert(2.5, 1.0)
        ranked.insert(2, 1.0)
        ranked.remove(2.5)
        # The list held a float key since its last clear: the object path.
        assert ranked.columns()[1].dtype == object
        assert ranked.items() == [(2, 1.0)]
        ranked.clear()
        ranked.bulk_insert([(5, 1.0), (4, 1.0), (9, 3.0)])
        scores, keys = ranked.columns()
        assert keys.dtype == np.int64
        assert ranked.items() == [(9, 3.0), (4, 1.0), (5, 1.0)]

    def test_merge_with_existing_entries_preserves_tie_order(self):
        ranked = DescendingSortedList()
        for key in (4, 10):
            ranked.insert(key, 2.0)
        ranked.bulk_insert(
            [(7, 2.0), (1, 2.0)] + [(key, 0.5) for key in range(20, 34)]
        )
        assert ranked.keys()[:4] == [1, 4, 7, 10]


def expected_order(reference):
    """The ``(-score, key)`` order of a plain dict, as ``(key, score)`` pairs."""
    return [(key, -neg) for neg, key in sorted((-score, key) for key, score in reference.items())]


def sort_on_read_operations(keys):
    """Interleavings of every write and every read of the list over ``keys``,
    with few distinct scores (ties and ±0.0 are common).  An operation is
    ``(action, key, score, batch, read)``; each action uses what it needs."""
    scores = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.5])
    actions = ["insert", "update", "remove", "discard", "bulk", "clear"] + ["read"] * 4
    reads = ["items", "keys", "iter", "peek", "at", "columns", "validate"]
    return st.lists(
        st.tuples(
            st.sampled_from(actions),
            keys,
            scores,
            st.lists(st.tuples(keys, scores), max_size=8),
            st.sampled_from(reads),
        ),
        min_size=4,
        max_size=60,
    )


class TestSortOnRead:
    """Writes only change the score map; every read sees the order of the
    map as it is, whatever was written and read before it."""

    @staticmethod
    def _replay(operations):
        ranked = DescendingSortedList()
        reference = {}
        for action, key, score, batch, read in operations:
            if action in ("insert", "update"):
                getattr(ranked, action)(key, score)
                reference[key] = score
            elif action == "remove":
                if key in reference:
                    ranked.remove(key)
                    del reference[key]
                else:
                    with pytest.raises(KeyError):
                        ranked.remove(key)
            elif action == "discard":
                ranked.discard(key)
                reference.pop(key, None)
            elif action == "bulk":
                ranked.bulk_insert(batch)
                reference.update(batch)
            elif action == "clear":
                ranked.clear()
                reference.clear()
            else:
                TestSortOnRead._check_read(ranked, reference, read)
        for read in ("items", "validate"):
            TestSortOnRead._check_read(ranked, reference, read)

    @staticmethod
    def _check_read(ranked, reference, read):
        expected = expected_order(reference)
        assert len(ranked) == len(reference)
        if read == "items":
            # repr: every score reads back bit for bit, the sign of a zero too.
            assert repr(ranked.items()) == repr(expected)
        elif read == "keys":
            assert ranked.keys() == [key for key, _score in expected]
        elif read == "iter":
            assert repr(list(ranked)) == repr(expected)
        elif read == "peek":
            if expected:
                assert repr(ranked.peek()) == repr(expected[0])
            else:
                with pytest.raises(IndexError):
                    ranked.peek()
        elif read == "at":
            for rank in range(len(expected)):
                assert repr(ranked.at(rank)) == repr(expected[rank])
        elif read == "columns":
            scores, keys = ranked.columns()
            assert keys.tolist() == [key for key, _score in expected]
            assert repr(scores.tolist()) == repr([score for _key, score in expected])
            assert not scores.flags.writeable and not keys.flags.writeable
        else:
            assert ranked.validate()

    @given(operations=sort_on_read_operations(st.integers(min_value=0, max_value=5)))
    @settings(max_examples=150, deadline=None)
    def test_int_keys_read_the_order_of_the_map(self, operations):
        self._replay(operations)

    @given(
        operations=sort_on_read_operations(
            st.sampled_from(["a", "b", "c", "d", "e", "f"])
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_str_keys_read_the_order_of_the_map(self, operations):
        """Non-int keys take the plain ``sorted()`` path."""
        self._replay(operations)

    def test_a_write_after_a_read_is_seen_by_the_next_read(self):
        ranked = DescendingSortedList()
        for key in range(5):
            ranked.insert(key, float(key))
        assert ranked.keys() == [4, 3, 2, 1, 0]
        ranked.remove(4)
        assert ranked.keys() == [3, 2, 1, 0]
        ranked.update(0, 9.0)
        assert ranked.keys() == [0, 3, 2, 1]
        ranked.discard(3)
        ranked.bulk_insert([(7, 1.0), (2, -1.0)])
        assert ranked.items() == [(0, 9.0), (1, 1.0), (7, 1.0), (2, -1.0)]
        ranked.clear()
        assert ranked.items() == []

    def test_writes_do_not_sort(self):
        with mock.patch.object(sorted_list, "ranked_merge") as merge:
            ranked = DescendingSortedList()
            for key in range(50):
                ranked.insert(key, float(key % 7))
            ranked.update(3, 1.0)
            ranked.remove(4)
            ranked.discard(5)
            ranked.bulk_insert([(60, 2.0)])
            assert len(ranked) == 49 and ranked.score(3) == 1.0 and 5 not in ranked
        merge.assert_not_called()

    def test_a_read_sorts_once_per_change(self):
        with mock.patch.object(
            sorted_list, "ranked_merge", wraps=numpy_impl.ranked_merge
        ) as merge:
            ranked = DescendingSortedList()
            ranked.bulk_insert((key, float(key % 3)) for key in range(20))
            first = ranked.columns()
            assert ranked.items() and ranked.keys() and ranked.peek() and ranked.validate()
            assert ranked.columns() is first
            assert merge.call_count == 1
            ranked.insert(3, 0.25)
            assert ranked.columns() is not first
            assert merge.call_count == 2

    def test_concurrent_first_reads_see_one_order(self):
        """Six threads take the first read after each change at once; every
        one sees the order of the map as it is now."""
        ranked = DescendingSortedList()
        rounds, readers = 25, 6
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_index in range(rounds):
                for key in range(3000):
                    ranked.insert(key, float((key * 7919 + round_index * 104729) % 97))
                expected = expected_order({key: ranked.score(key) for key in range(3000)})
                barrier = threading.Barrier(readers, timeout=30)
                seen = [None] * readers

                def read(slot):
                    barrier.wait()
                    scores, keys = ranked.columns()
                    seen[slot] = list(zip(keys.tolist(), scores.tolist()))

                threads = [threading.Thread(target=read, args=(slot,)) for slot in range(readers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert all(columns == expected for columns in seen), round_index
        finally:
            sys.setswitchinterval(previous)
