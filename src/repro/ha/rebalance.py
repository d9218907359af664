"""Live shard re-partitioning: N-shard cluster state onto M shards.

:func:`repartition_state` transforms one coordinator ``state_dict`` (any
shard count, any fan-out backend) into an
equivalent coordinator state for a different shard count.  The supervisor
applies it by building a fresh engine around the transformed state and
swapping it in under the ingest lock — ingest pauses for the duration of
one state gather/restore, never for a drain of in-flight stream history.

**How the merge stays exact.**  In the sharded execution model a shard
holds (a) the *home* records of the elements it owns — complete follower
views, authoritative activity times, the element's ranked-list tuples —
and (b) *foreign replicas* of elements routed to it because their
followers live here; replicas may be stale, and that is part of the
normal execution contract (only home records ever reach the
coordinator).  The rebalancer therefore:

* merges every shard's window into one full-replica window, preferring
  the element's **old home shard** copy for per-element records (activity
  time, follower set) and taking unions elsewhere — the merged window is
  a superset of what any shard organically accumulates, and supersets
  are safe for exactly the reason stale replicas are;
* re-homes every element with the ownership function
  (:func:`~repro.cluster.partition.shard_of`) over the new shard count —
  the same function names an element's old home, so there is no ownership
  state to carry across;
* slices the merged ranked-list entries by the new ownership, so each
  element's tuples land exactly on its new home shard — which its future
  followers are routed to by construction.

Per-shard ingest accounting restarts at zero (the history cannot be
attributed to shards that did not exist); cluster-level counters are
carried verbatim.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Set, Tuple, cast

from repro.cluster.partition import shard_of
from repro.store.codec import (
    decode_followers,
    decode_id_list,
    decode_pairs,
    decode_ranked_entries,
    encode_followers_csr,
    encode_id_array,
    encode_pairs,
    encode_ranked_entries,
)


def repartition_state(
    state: Mapping[str, Any], new_num_shards: int
) -> Dict[str, Any]:
    """Transform a coordinator ``state_dict`` onto a new shard count.

    The result restores onto a coordinator configured for
    ``new_num_shards`` (same processor configuration) and answers every
    query identically to the source cluster — every home record is
    preserved because follower views and ranked-list tuples all move to
    the new home shards intact.
    """
    if new_num_shards < 1:
        raise ValueError("new_num_shards must be >= 1")
    planner_state = cast(Mapping[str, Any], state["planner"])
    worker_states = cast(List[Mapping[str, Any]], state["workers"])
    old_num_shards = int(planner_state["num_shards"])
    if len(worker_states) != old_num_shards:
        raise ValueError(
            f"state holds {len(worker_states)} workers for "
            f"{old_num_shards} planner shards"
        )

    # -- merge the shard windows into one full replica --------------------------------
    archive: Dict[int, Any] = {}
    home_archive: Set[int] = set()
    active_ids: Set[int] = set()
    window_member_ids: Set[int] = set()
    last_activity: Dict[int, int] = {}
    home_activity: Set[int] = set()
    followers: Dict[int, Set[int]] = {}
    home_followers: Set[int] = set()
    touched_by_expiry: Set[int] = set()
    current_time: Optional[int] = None
    window_length: Optional[int] = None
    archive_horizon: Optional[int] = None
    buckets_processed = 0
    num_topics: Optional[int] = None
    ranked: Dict[int, Tuple[int, Dict[int, float]]] = {}
    dirty_union: Set[int] = set()

    for shard_id, worker_state in enumerate(worker_states):
        processor_state = cast(Mapping[str, Any], worker_state["processor"])
        window_state = cast(Mapping[str, Any], processor_state["window"])
        if window_length is None:
            window_length = int(cast(int, window_state["window_length"]))
            archive_horizon = int(cast(int, window_state["archive_horizon"]))
        shard_time = window_state["current_time"]
        if shard_time is not None:
            current_time = (
                int(shard_time)
                if current_time is None
                else max(current_time, int(shard_time))
            )
        buckets_processed = max(
            buckets_processed, int(cast(int, processor_state["buckets_processed"]))
        )

        for payload in cast(List[Mapping[str, Any]], window_state["archive"]):
            element_id = int(cast(int, payload["element_id"]))
            is_home = shard_of(element_id, old_num_shards) == shard_id
            if element_id not in archive or (
                is_home and element_id not in home_archive
            ):
                archive[element_id] = payload
            if is_home:
                home_archive.add(element_id)
        active_ids.update(decode_id_list(window_state["active_ids"]))
        window_member_ids.update(decode_id_list(window_state["window_member_ids"]))
        for element_id, time in decode_pairs(window_state["last_activity"]):
            is_home = shard_of(element_id, old_num_shards) == shard_id
            if is_home:
                last_activity[element_id] = time
                home_activity.add(element_id)
            elif element_id not in home_activity:
                last_activity[element_id] = max(
                    last_activity.get(element_id, time), time
                )
        for parent_id, follower_ids in decode_followers(
            window_state["followers"]
        ).items():
            is_home = shard_of(parent_id, old_num_shards) == shard_id
            if is_home:
                followers[parent_id] = set(follower_ids)
                home_followers.add(parent_id)
            elif parent_id not in home_followers:
                followers.setdefault(parent_id, set()).update(follower_ids)
        touched_by_expiry.update(decode_id_list(window_state["touched_by_expiry"]))

        ranked_state = cast(Mapping[str, Any], processor_state["ranked_lists"])
        if num_topics is None:
            num_topics = int(cast(int, ranked_state["num_topics"]))
        dirty_union.update(decode_id_list(ranked_state["dirty_topics"]))
        for element_id, activity_time, scores in decode_ranked_entries(
            ranked_state["entries"]
        ):
            # Ranked tuples live only on an element's one home shard.
            ranked[element_id] = (activity_time, scores)

    # Windows only reference elements they archived; after the union that
    # still holds, but guard the invariant explicitly.
    active_ids &= set(archive)
    window_member_ids &= active_ids
    merged_window = {
        "window_length": window_length,
        "archive_horizon": archive_horizon,
        "current_time": current_time,
        "archive": [archive[eid] for eid in sorted(archive)],
        "active_ids": encode_id_array(active_ids),
        "window_member_ids": encode_id_array(window_member_ids),
        "last_activity": encode_pairs(
            {eid: time for eid, time in last_activity.items() if eid in active_ids}
        ),
        "followers": encode_followers_csr(
            {
                eid: follower_set & window_member_ids
                for eid, follower_set in followers.items()
                if eid in active_ids
            }
        ),
        "touched_by_expiry": sorted(touched_by_expiry & active_ids),
    }

    # -- slice ranked lists by the new ownership ---------------------------------------
    shard_entries: List[List[Tuple[int, int, Dict[int, float]]]] = [
        [] for _ in range(new_num_shards)
    ]
    for element_id in sorted(ranked):
        activity_time, scores = ranked[element_id]
        shard_entries[shard_of(element_id, new_num_shards)].append(
            (element_id, activity_time, scores)
        )

    new_workers: List[Dict[str, Any]] = []
    for shard_id in range(new_num_shards):
        shard_topics: Set[int] = set(dirty_union)
        for _, _, scores in shard_entries[shard_id]:
            shard_topics.update(scores)
        new_workers.append(
            {
                "shard_id": shard_id,
                # Per-shard ingest accounting restarts: history is not
                # attributable to shards that did not exist.
                "home_ingested": 0,
                "foreign_ingested": 0,
                "processor": {
                    "elements_processed": 0,
                    "buckets_processed": buckets_processed,
                    "window": merged_window,
                    "ranked_lists": {
                        "num_topics": num_topics,
                        "entries": encode_ranked_entries(
                            (element_id, activity_time, sorted(scores.items()))
                            for element_id, activity_time, scores in shard_entries[
                                shard_id
                            ]
                        ),
                        # Conservative: a superset of dirty topics only ever
                        # causes extra standing-query re-evaluation.
                        "dirty_topics": sorted(shard_topics),
                    },
                },
            }
        )

    return {
        "buckets_processed": int(cast(int, state["buckets_processed"])),
        "elements_processed": int(cast(int, state["elements_processed"])),
        "current_time": state["current_time"],
        "planner": {"num_shards": new_num_shards},
        "workers": new_workers,
    }
