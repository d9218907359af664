"""Tests for the ownership function and the routing of buckets to shards."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.cluster import ShardPlanner, shard_of
from repro.cluster.partition import home_filter
from repro.core.element import SocialElement


def make_element(element_id: int, references=(), tokens=("word",)) -> SocialElement:
    return SocialElement(
        element_id=element_id,
        timestamp=element_id + 1,
        tokens=tokens,
        references=tuple(references),
    )


class TestStrategies:
    def test_hash_is_deterministic_and_in_range(self):
        for element_id in range(200):
            shard = shard_of(element_id, 4)
            assert 0 <= shard < 4
            assert shard == shard_of(element_id, 4)
            assert [home_filter(s, 4)(element_id) for s in range(4)] == [
                s == shard for s in range(4)
            ]

    def test_hash_spreads_elements(self):
        counts = [0] * 4
        for element_id in range(400):
            counts[shard_of(element_id, 4)] += 1
        assert min(counts) > 0
        assert max(counts) < 400

    def test_hash_is_the_same_in_another_process(self):
        """Ownership is recomputed, never shipped: a worker process (or the
        next run of this one) must get the coordinator's answer."""
        ids = [0, 1, 7, 12345, 2**31 - 1, 2**40 + 3]
        program = (
            "from repro.cluster import shard_of;"
            f"print([shard_of(i, n) for n in (2, 3, 7) for i in {ids}])"
        )
        # PYTHONHASHSEED differs from this process's on purpose.
        output = subprocess.run(
            [sys.executable, "-c", program],
            env={"PYTHONPATH": ":".join(sys.path), "PYTHONHASHSEED": "12345"},
            capture_output=True, text=True, check=True,
        ).stdout
        assert output.strip() == str([shard_of(i, n) for n in (2, 3, 7) for i in ids])
        # Pinned: a checkpoint's shards stay its elements' homes across releases.
        assert [shard_of(i, 3) for i in range(8)] == [0, 1, 1, 2, 2, 2, 0, 0]


class TestShardPlanner:
    def test_route_sends_home_and_parent_shards(self):
        parent = make_element(0)                     # home shard 0
        follower = make_element(1, references=(0,))  # home shard 1, parent on 0
        shard0, shard1 = ShardPlanner(2).route_bucket([parent, follower])

        assert [e.element_id for e in shard0.elements] == [0, 1]
        assert shard0.home_count == 1 and shard0.foreign_count == 1
        assert [e.element_id for e in shard1.elements] == [1]
        assert shard1.home_count == 1 and shard1.foreign_count == 0

    def test_route_sends_dangling_references_too(self):
        """Whether 99 was ever posted is its home shard's to know."""
        assert shard_of(0, 3) == 0 and shard_of(99, 3) == 2
        routed = ShardPlanner(3).route_bucket([make_element(0, references=(99,))])
        assert [[e.element_id for e in bucket.elements] for bucket in routed] == [[0], [], [0]]
        assert [bucket.home_count for bucket in routed] == [1, 0, 0]
        assert [bucket.foreign_count for bucket in routed] == [0, 0, 1]

    def test_route_replicates_once_per_shard(self):
        # Parents 2 and 4 share shard 0 of 2; the follower is home on shard 1.
        follower = make_element(7, references=(2, 4, 7))
        shard0, shard1 = ShardPlanner(2).route_bucket([follower])
        assert [e.element_id for e in shard0.elements] == [7]
        assert [e.element_id for e in shard1.elements] == [7]
        assert (shard0.foreign_count, shard1.home_count) == (1, 1)

    def test_route_preserves_stream_order(self):
        elements = [make_element(i, references=(i // 2,)) for i in range(20)]
        for bucket in ShardPlanner(2).route_bucket(elements):
            ids = [e.element_id for e in bucket.elements]
            assert ids == sorted(ids)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShardPlanner(0)

    def test_state_is_the_shard_count(self):
        planner = ShardPlanner(2)
        planner.route_bucket([make_element(0), make_element(5, references=(0,))])
        assert planner.state_dict() == {"num_shards": 2}
        assert vars(planner) == {"_num_shards": 2}
        planner.restore_state({"num_shards": 2})
        with pytest.raises(ValueError, match="3 shards"):
            planner.restore_state({"num_shards": 3})

    def test_state_written_before_pr22_is_checked_not_read(self):
        """The ownership table of a ``hash`` checkpoint recorded ``shard_of``
        and is ignored; any other strategy filled the shards differently."""
        written = {
            "num_shards": 2, "strategy": "hash", "strategy_state": {},
            "owners": [[0, 0], [5, 1]], "last_activity": [[0, 6], [5, 6]],
        }
        ShardPlanner(2).restore_state(written)
        for strategy, state in (("round-robin", {"next": 2}), ("load-balanced", {"loads": [1.0, 2.0]})):
            with pytest.raises(ValueError, match=f"{strategy}.*no longer supported.*'hash' is the only"):
                ShardPlanner(2).restore_state(
                    {**written, "strategy": strategy, "strategy_state": state}
                )
