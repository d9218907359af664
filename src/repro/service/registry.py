"""Standing k-SIR queries and the registry the serving engine maintains.

A :class:`StandingQuery` wraps a :class:`~repro.core.query.KSIRQuery` with
the per-query serving options — which algorithm answers it, its ``ε`` and an
optional TTL in buckets after which the registry drops it.  The
:class:`QueryRegistry` keeps the standing queries plus an inverted
topic → query-ids index, which is what lets the serving engine map the
ranked lists' per-topic dirty sets to the affected queries in time
proportional to the dirty topics rather than to the registry size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Optional, Set, Tuple

from repro.core.query import KSIRQuery
from repro.utils.validation import require_positive


@dataclass(frozen=True)
class StandingQuery:
    """One registered standing query and its serving options.

    Parameters
    ----------
    query_id:
        Registry-unique identifier.
    query:
        The underlying k-SIR query (``k`` and the topic vector ``x``).
    algorithm:
        Registry name of the algorithm answering this query; ``None`` falls
        back to the processor's default.
    epsilon:
        ``ε`` for ε-parameterised algorithms; ``None`` falls back to the
        processor's default.
    ttl_buckets:
        Serve the query for this many ingested buckets, then drop it;
        ``None`` keeps it until it is unregistered.  A query registered at
        bucket ``B`` is evaluated on buckets ``B+1 .. B+ttl_buckets`` (so
        ``ttl_buckets=1`` still yields one answer) and pruned on the next.
    registered_at_bucket:
        ``buckets_processed`` of the processor when the query was registered
        (the TTL countdown starts here).
    """

    query_id: str
    query: KSIRQuery
    algorithm: Optional[str] = None
    epsilon: Optional[float] = None
    ttl_buckets: Optional[int] = None
    registered_at_bucket: int = 0

    def __post_init__(self) -> None:
        if self.ttl_buckets is not None:
            require_positive(self.ttl_buckets, "ttl_buckets")
        if self.registered_at_bucket < 0:
            raise ValueError("registered_at_bucket must be non-negative")

    @property
    def topics(self) -> Tuple[int, ...]:
        """The query's topic support (non-zero entries of ``x``)."""
        return self.query.nonzero_topics

    def expired(self, bucket: int) -> bool:
        """Whether the TTL has elapsed at processor bucket ``bucket``.

        Strictly greater, so the query is still served on its last TTL
        bucket (pruning runs before evaluation in the engine's loop).
        """
        if self.ttl_buckets is None:
            return False
        return bucket > self.registered_at_bucket + self.ttl_buckets

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable dictionary (used by the checkpoint layer)."""
        return {
            "query_id": self.query_id,
            "query": self.query.to_dict(),
            "algorithm": self.algorithm,
            "epsilon": self.epsilon,
            "ttl_buckets": self.ttl_buckets,
            "registered_at_bucket": self.registered_at_bucket,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "StandingQuery":
        """Inverse of :meth:`to_dict`."""
        algorithm = payload.get("algorithm")
        epsilon = payload.get("epsilon")
        ttl_buckets = payload.get("ttl_buckets")
        return cls(
            query_id=str(payload["query_id"]),
            query=KSIRQuery.from_dict(payload["query"]),
            algorithm=None if algorithm is None else str(algorithm),
            epsilon=None if epsilon is None else float(epsilon),
            ttl_buckets=None if ttl_buckets is None else int(ttl_buckets),
            registered_at_bucket=int(payload.get("registered_at_bucket", 0)),
        )


class QueryRegistry:
    """The set of standing queries, indexed by id and by topic support."""

    def __init__(self) -> None:
        self._queries: Dict[str, StandingQuery] = {}
        self._by_topic: Dict[int, Set[str]] = {}
        self._counter = 0

    # -- registration ------------------------------------------------------------------

    def register(
        self,
        query: KSIRQuery,
        query_id: Optional[str] = None,
        algorithm: Optional[str] = None,
        epsilon: Optional[float] = None,
        ttl_buckets: Optional[int] = None,
        at_bucket: int = 0,
    ) -> StandingQuery:
        """Register a query and return its :class:`StandingQuery` record.

        ``query_id`` defaults to a fresh ``"q<n>"``; passing an id that is
        already registered raises ``ValueError``.
        """
        if query_id is None:
            # Skip over ids the caller registered explicitly.
            while f"q{self._counter:05d}" in self._queries:
                self._counter += 1
            query_id = f"q{self._counter:05d}"
            self._counter += 1
        if query_id in self._queries:
            raise ValueError(f"query id {query_id!r} is already registered")
        standing = StandingQuery(
            query_id=query_id,
            query=query,
            algorithm=algorithm,
            epsilon=epsilon,
            ttl_buckets=ttl_buckets,
            registered_at_bucket=at_bucket,
        )
        self._queries[query_id] = standing
        for topic in standing.topics:
            self._by_topic.setdefault(topic, set()).add(query_id)
        return standing

    def unregister(self, query_id: str) -> bool:
        """Remove a standing query; returns whether it was registered."""
        standing = self._queries.pop(query_id, None)
        if standing is None:
            return False
        for topic in standing.topics:
            members = self._by_topic.get(topic)
            if members is not None:
                members.discard(query_id)
                if not members:
                    del self._by_topic[topic]
        return True

    def prune_expired(self, bucket: int) -> Tuple[StandingQuery, ...]:
        """Unregister every query whose TTL elapsed; returns the dropped ones."""
        expired = tuple(
            standing for standing in self._queries.values() if standing.expired(bucket)
        )
        for standing in expired:
            self.unregister(standing.query_id)
        return expired

    # -- checkpoint state ---------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """A JSON-serialisable snapshot of the registry (order preserved)."""
        return {
            "counter": self._counter,
            "queries": [standing.to_dict() for standing in self._queries.values()],
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot onto this registry."""
        self._queries.clear()
        self._by_topic.clear()
        self._counter = int(state.get("counter", 0))
        for payload in state["queries"]:
            standing = StandingQuery.from_dict(payload)
            self._queries[standing.query_id] = standing
            for topic in standing.topics:
                self._by_topic.setdefault(topic, set()).add(standing.query_id)

    # -- lookups -----------------------------------------------------------------------------

    def get(self, query_id: str) -> StandingQuery:
        """The standing query with the given id (KeyError when absent)."""
        return self._queries[query_id]

    def ids(self) -> Tuple[str, ...]:
        """Every registered query id, in registration order."""
        return tuple(self._queries.keys())

    def __len__(self) -> int:
        return len(self._queries)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._queries

    def __iter__(self) -> Iterator[StandingQuery]:
        return iter(tuple(self._queries.values()))

    def affected_by(self, dirty_topics: Iterable[int]) -> Set[str]:
        """Ids of the standing queries whose support meets the dirty topics."""
        affected: Set[str] = set()
        for topic in dirty_topics:
            affected.update(self._by_topic.get(topic, ()))
        return affected
