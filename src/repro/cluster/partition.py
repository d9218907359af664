"""Partitioning strategies and the shard planner of the execution layer.

The cluster partitions the *element space*: every stream element has exactly
one **home shard** whose :class:`~repro.core.processor.KSIRProcessor` owns its
ranked-list tuples.  Because the influence score of an element counts its
in-window followers, a follower posted on a different shard must also reach
the parent's home shard — the planner therefore routes each element to its
home shard plus the home shards of every element it references.  On those
extra shards the element is a *foreign replica*: it participates in the
window and the follower sets (keeping ``δ_i(e)`` of home elements exact) but
never enters the shard's ranked lists.

Three :class:`PartitionStrategy` implementations are provided:

* ``hash`` — stateless multiplicative hash of the element id; the default,
  because ownership is a pure function any process can recompute;
* ``round-robin`` — cycles through the shards in arrival order, giving the
  most even element counts;
* ``load-balanced`` — assigns each new element to the shard with the least
  observed load, where an element's load contribution is its document length
  plus its reference count (the two drivers of ingest cost).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.element import SocialElement
from repro.utils.validation import require_positive


class PartitionStrategy:
    """Decides the home shard of each newly arrived element.

    Strategies may keep state (round-robin counters, load accumulators); the
    planner calls :meth:`assign` exactly once per element, in arrival order,
    and memoises the answer, so ownership is stable for the element's whole
    lifetime.
    """

    #: Registry name of the strategy.
    name: str = "base"

    def assign(self, element: SocialElement, num_shards: int) -> int:
        """The home shard (``0 .. num_shards-1``) of a new element."""
        raise NotImplementedError

    def state_dict(self) -> Dict[str, object]:
        """JSON-serialisable strategy state (empty for stateless strategies)."""
        return {}

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot (no-op for stateless ones)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class HashPartitioner(PartitionStrategy):
    """Stateless multiplicative hash of the element id.

    Uses Knuth's multiplicative constant rather than Python's built-in
    ``hash`` so ownership is reproducible across processes (the process
    backend recomputes it in the shard workers).
    """

    name = "hash"

    _KNUTH = 2654435761

    def assign(self, element: SocialElement, num_shards: int) -> int:
        return self.shard_of(element.element_id, num_shards)

    @staticmethod
    def shard_of(element_id: int, num_shards: int) -> int:
        """Pure ownership function, usable without an element object."""
        return ((int(element_id) * HashPartitioner._KNUTH) & 0xFFFFFFFF) % num_shards


class RoundRobinPartitioner(PartitionStrategy):
    """Cycle through the shards in element arrival order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def assign(self, element: SocialElement, num_shards: int) -> int:
        shard = self._next % num_shards
        self._next += 1
        return shard

    def state_dict(self) -> Dict[str, object]:
        return {"next": self._next}

    def restore_state(self, state: Mapping[str, object]) -> None:
        self._next = int(state.get("next", 0))


class LoadBalancedPartitioner(PartitionStrategy):
    """Assign each element to the least-loaded shard by observed mass.

    The load contribution of an element is ``len(tokens) + len(references)``
    — document length drives profile building and ranked-list insertion,
    references drive follower refreshes — so shards end up balanced by
    expected ingest work rather than by raw element counts.  Ties break
    towards the lowest shard index, keeping assignments deterministic.
    """

    name = "load-balanced"

    def __init__(self) -> None:
        self._loads: List[float] = []

    def assign(self, element: SocialElement, num_shards: int) -> int:
        while len(self._loads) < num_shards:
            self._loads.append(0.0)
        shard = min(range(num_shards), key=lambda s: (self._loads[s], s))
        self._loads[shard] += float(len(element.tokens) + len(element.references))
        return shard

    @property
    def loads(self) -> Tuple[float, ...]:
        """The accumulated per-shard load masses."""
        return tuple(self._loads)

    def state_dict(self) -> Dict[str, object]:
        return {"loads": list(self._loads)}

    def restore_state(self, state: Mapping[str, object]) -> None:
        self._loads = [float(load) for load in state.get("loads", ())]


PARTITIONER_REGISTRY = {
    "hash": HashPartitioner,
    "round-robin": RoundRobinPartitioner,
    "roundrobin": RoundRobinPartitioner,
    "load-balanced": LoadBalancedPartitioner,
    "loadbalanced": LoadBalancedPartitioner,
}
"""Maps user-facing partitioner names to their classes."""


def make_partitioner(name: str) -> PartitionStrategy:
    """Instantiate a partitioning strategy by (case-insensitive) name."""
    key = name.strip().lower()
    try:
        cls = PARTITIONER_REGISTRY[key]
    except KeyError as error:
        available = ", ".join(sorted(set(PARTITIONER_REGISTRY)))
        raise ValueError(
            f"unknown partitioner {name!r}; available: {available}"
        ) from error
    return cls()


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
    owners:
        Home-shard ownership of every routed element and of every element
        they reference (when known).  Populated only on request
        (``route_bucket(..., with_owners=True)``): the process backend
        replays this map into the remote worker so its home filter agrees
        with the planner; in-process backends share the planner directly and
        skip the bookkeeping.
    """

    shard_id: int
    elements: Tuple[SocialElement, ...]
    home_count: int
    foreign_count: int
    owners: Dict[int, int] = field(default_factory=dict)


class OwnershipTable:
    """``element id → home shard``, bounded to the windows' archive horizon.

    The one ownership structure of the cluster layer: the planner keeps the
    authoritative table, and every out-of-process worker replays the entries
    shipped with its routed buckets into a table of its own (its home
    filter).  Both drop an entry once its last activity — post or reference
    time on the planner, shipping time on a worker, which never trails it —
    falls behind ``end_time − archive_windows × window_length``: by then the
    element is inactive on every shard *and* gone from every archive, so a
    later reference to it is dangling everywhere, exactly as on a single
    node.
    """

    def __init__(self) -> None:
        self._owners: Dict[int, int] = {}
        self._last_activity: Dict[int, int] = {}
        # The expiry calendar: one page ``(time, ids)`` per :meth:`expire`
        # call, holding the ids whose activity was raised since the call
        # before it, none of them to later than ``time``; oldest page first,
        # so a call reads only the pages the cutoff has passed.  Every bucket
        # pays for what it expires and no bucket for the table: a scan of
        # the table on every n-th bucket makes that bucket the slow one
        # (``bucket_ms_p95``), and a ``(last_activity, id)`` heap costs every
        # raise a push (``bucket_ms_p50`` +8.8 %) — both measured,
        # ``benchmarks/trajectory/BENCH_pairs_pr16.json``.
        self._calendar: Deque[Tuple[int, List[int]]] = deque()
        self._raised: List[int] = []
        self._raised_to = 0
        #: Home shard of a known element (``None`` when unseen or trimmed).
        #: The dict's own ``get``: home filters call it once per element.
        self.get: Callable[[int], Optional[int]] = self._owners.get

    def __len__(self) -> int:
        return len(self._owners)

    def record(self, element_id: int, shard: int, time: int) -> None:
        """Set one entry's owner and raise its last activity to ``time``."""
        self._owners[element_id] = shard
        known = self._last_activity.get(element_id)
        if known is None or time > known:
            self._last_activity[element_id] = time
            self._raised.append(element_id)
            if time > self._raised_to:
                self._raised_to = time

    def update(self, entries: Mapping[int, int], time: int) -> None:
        """:meth:`record` every ``element id → shard`` entry at ``time``."""
        for element_id, shard in entries.items():
            self.record(element_id, shard, time)

    def trim(self, cutoff: int) -> int:
        """Drop entries last active before ``cutoff``; returns how many."""
        stale = [
            element_id
            for element_id, last_activity in self._last_activity.items()
            if last_activity < cutoff
        ]
        for element_id in stale:
            del self._last_activity[element_id]
            del self._owners[element_id]
        return len(stale)

    def expire(self, time: int, horizon: int) -> None:
        """Drop what fell behind ``time − horizon``.  Called once per bucket,
        with its end time; costs O(entries dropped).

        An entry is dropped when the cutoff passes the page it was last
        raised on, so it may outlive its own activity time by the length of
        one bucket.  Keeping an entry longer is always safe: a reference
        routed to a shard whose archive has already dropped its target is
        ignored there.  :meth:`trim` is the exact, O(table) form.
        """
        if self._raised:
            self._calendar.append((max(time, self._raised_to), self._raised))
            self._raised, self._raised_to = [], 0
        cutoff = time - horizon
        calendar, last_activity, owners = self._calendar, self._last_activity, self._owners
        while calendar and calendar[0][0] < cutoff:
            for element_id in calendar.popleft()[1]:
                # Raised again since (a later page holds it) or already gone.
                if last_activity.get(element_id, cutoff) < cutoff:
                    del last_activity[element_id]
                    del owners[element_id]

    def owners(self) -> Dict[int, int]:
        """A copy of the ``element id → home shard`` map."""
        return dict(self._owners)

    def clear(self) -> None:
        """Forget every entry."""
        self._owners.clear()
        self._last_activity.clear()
        self._calendar.clear()
        self._raised, self._raised_to = [], 0

    def state_dict(self) -> Dict[str, object]:
        """The entries, JSON-serialisable."""
        return {
            "owners": sorted(self._owners.items()),
            "last_activity": sorted(self._last_activity.items()),
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Replace the entries with a :meth:`state_dict` snapshot."""
        self.clear()  # in place: ``get`` is bound to the owners dict
        self._owners.update((int(eid), int(shard)) for eid, shard in state["owners"])
        self._last_activity.update(
            (int(eid), int(time)) for eid, time in state["last_activity"]
        )
        pages: Dict[int, List[int]] = {}
        for element_id, time in self._last_activity.items():
            pages.setdefault(time, []).append(element_id)
        self._calendar.extend(sorted(pages.items()))


class ShardPlanner:
    """Owns the partitioning strategy and the element → shard assignments."""

    def __init__(
        self,
        num_shards: int,
        strategy: Union[str, PartitionStrategy] = "hash",
    ) -> None:
        require_positive(num_shards, "num_shards")
        self._num_shards = int(num_shards)
        if isinstance(strategy, PartitionStrategy):
            self._strategy = strategy
        else:
            self._strategy = make_partitioner(strategy)
        # Ownership plus the last post/reference time per assigned element
        # (mirroring the windows' ``t_e``), which lets :meth:`trim_inactive`
        # bound the table on endless streams.
        self._table = OwnershipTable()

    # -- metadata ----------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of shards the planner routes to."""
        return self._num_shards

    @property
    def strategy(self) -> PartitionStrategy:
        """The partitioning strategy in use."""
        return self._strategy

    @property
    def assigned_count(self) -> int:
        """Number of elements assigned so far."""
        return len(self._table)

    def owner(self, element_id: int) -> Optional[int]:
        """Home shard of an already-assigned element (None when unseen)."""
        return self._table.get(element_id)

    def is_home(self, shard_id: int, element_id: int) -> bool:
        """Whether the element's home shard is ``shard_id``."""
        return self._table.get(element_id) == shard_id

    def owners_snapshot(self) -> Dict[int, int]:
        """A copy of the element → home-shard table.

        Used to reseed remote workers' home filters on restore and by the
        rebalancer to re-home per-element state.
        """
        return self._table.owners()

    def shard_sizes(self) -> Tuple[int, ...]:
        """Elements assigned to each shard (cumulative, expiry ignored)."""
        sizes = [0] * self._num_shards
        for shard in self._table.owners().values():
            sizes[shard] += 1
        return tuple(sizes)

    # -- assignment and routing -----------------------------------------------------

    def assign(self, element: SocialElement) -> int:
        """Assign (or look up) the home shard of an element."""
        table = self._table
        shard = table.get(element.element_id)
        if shard is None:
            shard = self._strategy.assign(element, self._num_shards)
            if not 0 <= shard < self._num_shards:
                raise ValueError(
                    f"strategy {self._strategy.name!r} returned shard {shard} "
                    f"outside 0..{self._num_shards - 1}"
                )
        table.record(element.element_id, shard, element.timestamp)
        return shard

    def expire(self, time: int, horizon: int) -> None:
        """Forget what no archive can hold at ``time`` any more (see
        :meth:`OwnershipTable.expire`)."""
        self._table.expire(time, horizon)

    def trim_inactive(self, cutoff: int) -> int:
        """Drop ownership of elements whose last activity predates ``cutoff``.

        Safe when ``cutoff`` trails the shards' archive horizon: such
        elements are inactive on every shard *and* already trimmed from
        every archive, so a later reference to them is dangling everywhere —
        exactly the references routing ignores anyway.  Returns the number
        of entries dropped.
        """
        return self._table.trim(cutoff)

    # -- checkpoint state -------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """A JSON-serialisable snapshot of ownership and strategy state."""
        return {
            "num_shards": self._num_shards,
            "strategy": self._strategy.name,
            "strategy_state": self._strategy.state_dict(),
            **self._table.state_dict(),
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot onto this planner."""
        if int(state["num_shards"]) != self._num_shards:
            raise ValueError(
                f"checkpoint was taken with {state['num_shards']} shards, the "
                f"planner is configured for {self._num_shards}"
            )
        if str(state["strategy"]) != self._strategy.name:
            raise ValueError(
                f"checkpoint used partitioner {state['strategy']!r}, the planner "
                f"is configured with {self._strategy.name!r}"
            )
        self._strategy.restore_state(state["strategy_state"])
        self._table.restore_state(state)

    def recall(self, state: Mapping[str, object]) -> None:
        """Re-learn the entries of an earlier :meth:`state_dict` snapshot
        that were trimmed since (current entries win; see
        :meth:`ClusterCoordinator.restore_shard`)."""
        last_activity = dict(state["last_activity"])
        for element_id, shard in state["owners"]:
            if self._table.get(element_id) is None:
                self._table.record(element_id, shard, last_activity[element_id])

    def route_bucket(
        self, elements: Sequence[SocialElement], with_owners: bool = False
    ) -> Tuple[RoutedBucket, ...]:
        """Split one stream bucket into per-shard routed buckets.

        Every element goes to its home shard; it is additionally replicated
        to the home shard of each element it references (so follower edges —
        and with them the influence scores — are accounted exactly where the
        parent's ranked-list tuples live).  References to elements never
        observed by the planner are ignored, exactly as the single-node
        window ignores dangling references.  Stream order is preserved
        within each routed bucket.  ``with_owners`` additionally fills each
        bucket's ownership table (needed only by out-of-process workers).
        """
        routed: List[List[SocialElement]] = [[] for _ in range(self._num_shards)]
        home_counts = [0] * self._num_shards
        owners: List[Dict[int, int]] = [{} for _ in range(self._num_shards)]
        table = self._table
        for element in elements:
            home = self.assign(element)
            targets = {home}
            for parent_id in element.references:
                parent_owner = table.get(parent_id)
                if parent_owner is not None:
                    targets.add(parent_owner)
                    # A reference keeps the parent alive on its home shard;
                    # mirror that in the trim bookkeeping.
                    table.record(parent_id, parent_owner, element.timestamp)
            for shard in targets:
                routed[shard].append(element)
                if with_owners:
                    shipped = owners[shard]
                    shipped[element.element_id] = home
                    for parent_id in element.references:
                        parent_owner = table.get(parent_id)
                        if parent_owner is not None:
                            shipped[parent_id] = parent_owner
            home_counts[home] += 1
        return tuple(
            RoutedBucket(
                shard_id=shard,
                elements=tuple(routed[shard]),
                home_count=home_counts[shard],
                foreign_count=len(routed[shard]) - home_counts[shard],
                owners=owners[shard],
            )
            for shard in range(self._num_shards)
        )
