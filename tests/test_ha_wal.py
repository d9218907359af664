"""Unit tests of the in-memory bucket write-ahead log (repro.ha.wal)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.element import SocialElement
from repro.ha import BucketWAL


def element(element_id: int, timestamp: int) -> SocialElement:
    return SocialElement(
        element_id=element_id,
        timestamp=timestamp,
        tokens=("w",),
        references=(),
        topic_distribution=np.array([1.0, 0.0]),
    )


def bucket(start: int, size: int = 2):
    return [element(start + i, start + i) for i in range(size)]


class TestBucketWAL:
    def test_append_assigns_increasing_seqs(self):
        wal = BucketWAL()
        assert wal.last_seq == -1
        assert wal.append(bucket(0), end_time=2) == 0
        assert wal.append(bucket(2), end_time=4) == 1
        assert wal.last_seq == 1
        assert len(wal) == 2

    def test_entries_since_and_through(self):
        wal = BucketWAL()
        for start in range(0, 8, 2):
            wal.append(bucket(start), end_time=start + 2)
        assert [entry.seq for entry in wal.entries_since(1)] == [2, 3]
        assert [entry.seq for entry in wal.entries_through(1)] == [0, 1]
        assert [entry.seq for entry in wal.entries_since(-1)] == [0, 1, 2, 3]

    def test_entries_preserve_bucket_contents(self):
        wal = BucketWAL()
        members = bucket(10, size=3)
        wal.append(members, end_time=13)
        (entry,) = wal.entries_since(-1)
        assert entry.end_time == 13
        assert [e.element_id for e in entry.elements] == [10, 11, 12]

    def test_truncate_keeps_sequence_counting(self):
        wal = BucketWAL()
        wal.append(bucket(0), end_time=2)
        wal.append(bucket(2), end_time=4)
        assert wal.truncate() == 2
        assert len(wal) == 0
        # The gap arithmetic (entries_since(checkpoint_seq)) relies on seq
        # numbers continuing across truncations.
        assert wal.append(bucket(4), end_time=6) == 2
        assert wal.last_seq == 2
        assert [entry.seq for entry in wal.entries_since(1)] == [2]

    def test_stats(self):
        wal = BucketWAL()
        wal.append(bucket(0, size=3), end_time=3)
        wal.append(bucket(3, size=1), end_time=4)
        assert wal.stats() == {"entries": 2, "elements": 4, "last_seq": 1}

    def test_the_log_is_memory_only(self):
        with pytest.raises(TypeError):
            BucketWAL("bucket.wal")  # type: ignore[call-arg]
