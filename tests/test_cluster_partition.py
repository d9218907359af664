"""Tests for the partitioning strategies and the shard planner."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    HashPartitioner,
    LoadBalancedPartitioner,
    OwnershipTable,
    RoundRobinPartitioner,
    ShardPlanner,
    make_partitioner,
)
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
        partitioner = HashPartitioner()
        for element_id in range(200):
            shard = partitioner.assign(make_element(element_id), 4)
            assert 0 <= shard < 4
            assert shard == HashPartitioner.shard_of(element_id, 4)
            assert shard == partitioner.assign(make_element(element_id), 4)

    def test_hash_spreads_elements(self):
        counts = [0] * 4
        for element_id in range(400):
            counts[HashPartitioner.shard_of(element_id, 4)] += 1
        assert min(counts) > 0
        assert max(counts) < 400

    def test_round_robin_cycles(self):
        partitioner = RoundRobinPartitioner()
        shards = [partitioner.assign(make_element(i), 3) for i in range(6)]
        assert shards == [0, 1, 2, 0, 1, 2]

    def test_load_balanced_prefers_least_loaded(self):
        partitioner = LoadBalancedPartitioner()
        heavy = make_element(0, tokens=tuple("abcdefgh"))
        light = make_element(1, tokens=("a",))
        assert partitioner.assign(heavy, 2) == 0
        # Shard 0 now carries 8 tokens of load; the light element goes to 1
        # and the next ones keep evening things out.
        assert partitioner.assign(light, 2) == 1
        assert partitioner.assign(make_element(2, tokens=("a", "b")), 2) == 1
        assert partitioner.loads[0] == pytest.approx(8.0)

    def test_load_balanced_counts_references(self):
        partitioner = LoadBalancedPartitioner()
        partitioner.assign(make_element(0, tokens=("a",), references=(7, 8)), 2)
        assert partitioner.loads[0] == pytest.approx(3.0)

    def test_make_partitioner_known_and_unknown(self):
        assert isinstance(make_partitioner("hash"), HashPartitioner)
        assert isinstance(make_partitioner("Round-Robin"), RoundRobinPartitioner)
        assert isinstance(make_partitioner("load-balanced"), LoadBalancedPartitioner)
        with pytest.raises(ValueError, match="available"):
            make_partitioner("consistent-banana")


class TestShardPlanner:
    def test_assignment_is_memoised(self):
        planner = ShardPlanner(3, strategy="round-robin")
        element = make_element(5)
        first = planner.assign(element)
        assert planner.assign(element) == first
        assert planner.owner(5) == first
        assert planner.owner(99) is None

    def test_route_sends_home_and_parent_shards(self):
        planner = ShardPlanner(2, strategy="round-robin")
        parent = make_element(0)          # home shard 0
        follower = make_element(1, references=(0,))  # home shard 1, parent on 0
        routed = planner.route_bucket([parent, follower], with_owners=True)

        shard0 = routed[0]
        shard1 = routed[1]
        assert [e.element_id for e in shard0.elements] == [0, 1]
        assert shard0.home_count == 1 and shard0.foreign_count == 1
        assert [e.element_id for e in shard1.elements] == [1]
        assert shard1.home_count == 1 and shard1.foreign_count == 0
        # The ownership tables ship everything the shard needs to decide
        # home-ness, including the referenced parents.
        assert shard0.owners == {0: 0, 1: 1}
        assert shard1.owners == {0: 0, 1: 1}

    def test_route_ignores_dangling_references(self):
        planner = ShardPlanner(2, strategy="round-robin")
        follower = make_element(0, references=(12345,))
        routed = planner.route_bucket([follower], with_owners=True)
        assert sum(len(bucket.elements) for bucket in routed) == 1
        assert 12345 not in routed[0].owners

    def test_route_preserves_stream_order(self):
        planner = ShardPlanner(2, strategy="hash")
        elements = [make_element(i) for i in range(20)]
        routed = planner.route_bucket(elements)
        for bucket in routed:
            ids = [e.element_id for e in bucket.elements]
            assert ids == sorted(ids)

    def test_shard_sizes_account_all_assignments(self):
        planner = ShardPlanner(4, strategy="hash")
        for i in range(40):
            planner.assign(make_element(i))
        assert sum(planner.shard_sizes()) == 40
        assert planner.assigned_count == 40

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShardPlanner(0)

    def test_trim_inactive_bounds_the_ownership_table(self):
        planner = ShardPlanner(2, strategy="hash")
        old = make_element(0)                      # timestamp 1
        recent = make_element(50)                  # timestamp 51
        planner.assign(old)
        planner.assign(recent)
        dropped = planner.trim_inactive(cutoff=10)
        assert dropped == 1
        assert planner.owner(0) is None
        assert planner.owner(50) is not None

    def test_references_keep_parents_alive_through_trim(self):
        planner = ShardPlanner(2, strategy="hash")
        parent = make_element(0)                   # timestamp 1
        planner.assign(parent)
        follower = make_element(40, references=(0,))  # timestamp 41
        planner.route_bucket([follower])
        # The reference bumped the parent's activity to 41, so a cutoff of
        # 10 must not drop it.
        assert planner.trim_inactive(cutoff=10) == 0
        assert planner.owner(0) is not None
        # Once even the reference ages out, the parent goes too.
        assert planner.trim_inactive(cutoff=100) == 2
        assert planner.owner(0) is None and planner.owner(40) is None

    def test_strategy_out_of_range_rejected(self):
        class Broken(HashPartitioner):
            def assign(self, element, num_shards):
                return num_shards  # off by one

        planner = ShardPlanner(2, strategy=Broken())
        with pytest.raises(ValueError, match="outside"):
            planner.assign(make_element(0))


class TestOwnershipTable:
    """The planner's table and every remote worker's copy of it, against a
    plain-dict model after every step."""

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("record"), st.integers(0, 9), st.integers(0, 30)),
                st.tuples(st.just("trim"), st.integers(-5, 35)),
                st.tuples(st.just("restore")),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_table_equals_its_model(self, ops):
        table = OwnershipTable()
        owners, activity = {}, {}
        for op in ops:
            if op[0] == "record":
                _, element_id, time = op
                table.record(element_id, element_id % 3, time)
                owners[element_id] = element_id % 3
                activity[element_id] = max(time, activity.get(element_id, time))
            elif op[0] == "trim":
                stale = [eid for eid, time in activity.items() if time < op[1]]
                assert table.trim(op[1]) == len(stale)
                for element_id in stale:
                    del owners[element_id], activity[element_id]
            else:  # a checkpoint round trip
                state = json.loads(json.dumps(table.state_dict()))
                table = OwnershipTable()
                table.restore_state(state)
            assert table.owners() == owners and len(table) == len(owners)
            assert table.state_dict() == {
                "owners": sorted(owners.items()),
                "last_activity": sorted(activity.items()),
            }
            assert all(table.get(eid) == shard for eid, shard in owners.items())

    def test_update_records_every_entry_at_one_time(self):
        table = OwnershipTable()
        table.update({1: 0, 2: 1}, 10)
        table.update({2: 1}, 20)
        assert table.trim(15) == 1
        assert table.get(1) is None and table.get(2) == 1
        table.clear()
        assert len(table) == 0 and table.trim(100) == 0

    def test_expire_costs_every_bucket_the_same(self):
        table = OwnershipTable()
        for time in range(1, 201):
            table.record(time, 0, time)
            table.expire(time, horizon=80)
            # Every call drops exactly what fell behind the horizon: no call
            # is left a backlog, which would make one bucket in n the slow one.
            assert len(table) == min(time, 81)
        table.expire(200, horizon=4)
        assert len(table) == 5

    @given(
        buckets=st.lists(
            st.tuples(
                st.lists(st.tuples(st.integers(0, 9), st.integers(-12, 12)), max_size=6),
                st.sampled_from(["expire", "expire", "expire", "trim", "restore"]),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_expire_never_drops_the_live_and_leaves_nothing_behind(self, buckets):
        """Records may run ahead of or far behind the bucket's end time (a
        restored worker replays a gap at earlier times; a recalled entry is
        older than the cutoff), checkpoints and exact trims may interleave."""
        horizon, length = 20, 5
        table, activity = OwnershipTable(), {}
        for index, (records, then) in enumerate(buckets):
            end_time = (index + 1) * length
            for element_id, offset in records:
                time = end_time + offset
                table.record(element_id, 0, time)
                activity[element_id] = max(time, activity.get(element_id, time))
            cutoff = end_time - horizon
            if then == "trim":
                table.trim(cutoff)
            else:
                if then == "restore":
                    state = json.loads(json.dumps(table.state_dict()))
                    table = OwnershipTable()
                    table.restore_state(state)
                table.expire(end_time, horizon)
            kept = set(table.owners())
            assert dict(table.state_dict()["last_activity"]) == {
                element_id: activity[element_id] for element_id in kept
            }
            live = {eid for eid, time in activity.items() if time >= cutoff}
            assert live <= kept
            if then == "trim":
                assert kept == live
            for element_id in set(activity) - kept:
                del activity[element_id]
        # A horizon after the bucket that follows the last record (and the
        # furthest a record ran ahead), nothing is left behind.
        end_time = (len(buckets) + 1) * length
        table.expire(end_time, horizon)
        table.expire(end_time + horizon + 13, horizon)
        assert len(table) == 0

    def test_planner_state_is_what_it_was_before_the_table(self):
        planner = ShardPlanner(2, strategy="hash")
        planner.route_bucket([make_element(0), make_element(5, references=(0,))])
        assert list(planner.state_dict()) == [
            "num_shards", "strategy", "strategy_state", "owners", "last_activity",
        ]
        assert planner.state_dict()["last_activity"] == [(0, 6), (5, 6)]
