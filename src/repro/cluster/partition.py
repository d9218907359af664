"""Element ownership and bucket routing of the execution layer.

The cluster partitions the *element space*: every stream element has exactly
one **home shard** whose :class:`~repro.core.processor.KSIRProcessor` owns its
ranked-list tuples.  Ownership is a pure function of the element id,
:func:`shard_of` — any process recomputes it, nothing remembers it, and it is
the same before and after a checkpoint, a failover or an element's expiry.

Because the influence score of an element counts its in-window followers, a
follower posted on a different shard must also reach the parent's home
shard: :meth:`ShardPlanner.route_bucket` sends each element to its home
shard plus ``shard_of(parent)`` of every element it references.  On those
extra shards the element is a *foreign replica*: it participates in the
window and the follower sets (keeping ``δ_i(e)`` of home elements exact) but
never enters the shard's ranked lists.  Whether a referenced parent still exists is
decided where the truth is — the parent's home shard ignores a reference
whose target has left its window and archive, exactly as a single node does.

``hash`` is the only partitioner left: ``round-robin`` and ``load-balanced``
needed a remembered ``element id → shard`` table (shipped to every worker
process, expired on a calendar, written into every checkpoint) and beat
``hash`` on no end-to-end metric
(``benchmarks/trajectory/BENCH_partitioners_pr22.json``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.core.element import SocialElement
from repro.utils.validation import require_positive

#: Knuth's multiplicative constant rather than Python's built-in ``hash``,
#: so ownership is reproducible across processes and interpreter runs.
_KNUTH = 2654435761


def shard_of(element_id: int, num_shards: int) -> int:
    """The home shard (``0 .. num_shards-1``) of an element id."""
    return ((int(element_id) * _KNUTH) & 0xFFFFFFFF) % num_shards


def home_filter(shard_id: int, num_shards: int) -> Callable[[int], bool]:
    """The home filter of one shard's processor, on every transport."""
    return lambda element_id: shard_of(element_id, num_shards) == shard_id


@dataclass(frozen=True)
class RoutedBucket:
    """The slice of one stream bucket routed to one shard.

    Attributes
    ----------
    shard_id:
        The receiving shard.
    elements:
        The routed elements in stream order — home elements interleaved with
        the foreign replicas whose references point at this shard.
    home_count / foreign_count:
        How many of ``elements`` are home vs foreign, for accounting.
    """

    shard_id: int
    elements: Tuple[SocialElement, ...]
    home_count: int
    foreign_count: int


class ShardPlanner:
    """The routing of one cluster shape: a shard count, nothing per element."""

    def __init__(self, num_shards: int) -> None:
        require_positive(num_shards, "num_shards")
        self._num_shards = int(num_shards)

    @property
    def num_shards(self) -> int:
        """Number of shards the planner routes to."""
        return self._num_shards

    def route_bucket(self, elements: Sequence[SocialElement]) -> Tuple[RoutedBucket, ...]:
        """Split one stream bucket into per-shard routed buckets.

        Every element goes to its home shard and is replicated to the home
        shard of each element it references (so follower edges — and with
        them the influence scores — are accounted exactly where the parent's
        ranked-list tuples live).  A reference to an element that was never
        posted, or has left every archive, is routed like any other and is
        dangling on the shard it reaches.  Stream order is preserved within
        each routed bucket.
        """
        num_shards = self._num_shards
        routed: List[List[SocialElement]] = [[] for _ in range(num_shards)]
        home_counts = [0] * num_shards
        for element in elements:
            home = shard_of(element.element_id, num_shards)
            home_counts[home] += 1
            targets = {home}
            for parent_id in element.references:
                targets.add(shard_of(parent_id, num_shards))
            for shard in targets:
                routed[shard].append(element)
        return tuple(
            RoutedBucket(
                shard_id=shard,
                elements=tuple(routed[shard]),
                home_count=home_counts[shard],
                foreign_count=len(routed[shard]) - home_counts[shard],
            )
            for shard in range(num_shards)
        )

    # -- checkpoint state -------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """The cluster shape a checkpoint was taken on."""
        return {"num_shards": self._num_shards}

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Check a :meth:`state_dict` snapshot against this planner.

        Checkpoints written before PR 22 also carry the ownership table
        (``owners`` / ``last_activity`` / ``strategy_state``); under ``hash``
        it recorded :func:`shard_of` and is ignored, under any other
        strategy the shards hold elements :func:`shard_of` homes elsewhere.
        """
        if int(state["num_shards"]) != self._num_shards:
            raise ValueError(
                f"checkpoint was taken with {state['num_shards']} shards, the "
                f"planner is configured for {self._num_shards}"
            )
        strategy = str(state.get("strategy", "hash"))
        if strategy != "hash":
            raise ValueError(
                f"checkpoint was partitioned by {strategy!r}, which is no "
                "longer supported: 'hash' is the only partitioner left and "
                "its shards hold different elements; re-ingest the stream"
            )
