"""WebSocket push fan-out for standing-query result deltas.

The :class:`PushHub` sits between the synchronous serving engine and the
asynchronous WebSocket sessions.  It subscribes to
:meth:`~repro.service.engine.ServiceEngine.add_update_listener`, so a push
fires exactly when the serving engine re-evaluated a standing query on an
ingested bucket — the bucket's dirty topics decide, never a poll — and is
dropped for every query whose topics the bucket left untouched.

Engine callbacks arrive on whatever worker thread ran the ingest; each
subscription therefore carries the event loop of its WebSocket session and
messages cross the boundary with ``loop.call_soon_threadsafe`` into a
bounded per-session queue.  A session that cannot keep up loses oldest
messages first (push channels advertise the *latest* answer; history is
the REST surface's job), and the hub counts the drop (:attr:`PushHub.dropped`).
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.service.engine import ServiceUpdate, StandingResult


@dataclass(eq=False)
class Subscription:
    """One WebSocket session's subscription to one standing query.

    Identity-hashed (``eq=False``) so sessions live in the hub's per-query
    sets.
    """

    query_id: str
    queue: "asyncio.Queue[Dict[str, object]]"
    loop: asyncio.AbstractEventLoop
    #: Called once per message the full queue drops.
    on_drop: Callable[[], None]

    def deliver(self, message: Dict[str, object]) -> None:
        """Enqueue from any thread, dropping the oldest message when full."""

        def _put() -> None:
            while True:
                try:
                    self.queue.put_nowait(message)
                    return
                except asyncio.QueueFull:
                    try:
                        self.queue.get_nowait()
                        self.on_drop()
                    except asyncio.QueueEmpty:  # pragma: no cover - race window
                        pass

        self.loop.call_soon_threadsafe(_put)


@dataclass
class _QueryChannel:
    """The subscriptions and last-pushed answer of one standing query."""

    subscriptions: Set[Subscription] = field(default_factory=set)
    last_ids: Optional[Tuple[int, ...]] = None
    last_score: Optional[float] = None


class PushHub:
    """Fans standing-query updates out to subscribed WebSocket sessions."""

    def __init__(self, queue_size: int = 256) -> None:
        if queue_size < 1:
            raise ValueError("queue_size must be at least 1")
        self._queue_size = queue_size
        self._lock = threading.Lock()
        self._channels: Dict[str, _QueryChannel] = {}
        self._pushes = 0
        self._sessions = 0
        self._dropped = 0

    @property
    def pushes(self) -> int:
        """Messages fanned out so far (one per subscription per update)."""
        with self._lock:
            return self._pushes

    @property
    def sessions(self) -> int:
        """Subscriptions opened so far."""
        with self._lock:
            return self._sessions

    @property
    def dropped(self) -> int:
        """Messages full queues dropped so far, live and closed sessions alike."""
        with self._lock:
            return self._dropped

    def subscriber_count(self, query_id: Optional[str] = None) -> int:
        """Active subscriptions, for one query or in total."""
        with self._lock:
            if query_id is not None:
                channel = self._channels.get(query_id)
                return len(channel.subscriptions) if channel is not None else 0
            return sum(len(c.subscriptions) for c in self._channels.values())

    # -- session side ------------------------------------------------------------------

    def subscribe(
        self, query_id: str, loop: asyncio.AbstractEventLoop
    ) -> Subscription:
        """Register a session; must be paired with :meth:`unsubscribe`."""
        subscription = Subscription(
            query_id=query_id,
            queue=asyncio.Queue(maxsize=self._queue_size),
            loop=loop,
            on_drop=self._count_drop,
        )
        with self._lock:
            self._sessions += 1
            self._channels.setdefault(query_id, _QueryChannel()).subscriptions.add(
                subscription
            )
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Drop a session's subscription (idempotent)."""
        with self._lock:
            channel = self._channels.get(subscription.query_id)
            if channel is None:
                return
            channel.subscriptions.discard(subscription)
            if not channel.subscriptions and channel.last_ids is None:
                del self._channels[subscription.query_id]

    # -- engine side -------------------------------------------------------------------

    def on_update(self, update: ServiceUpdate) -> None:
        """The :class:`~repro.service.engine.ServiceEngine` update listener.

        Computes a per-query delta against the last pushed answer and fans
        it out; queries without a live subscription still advance their
        delta anchor so a later subscriber's first push is a true delta.
        """
        with self._lock:
            targets: List[Tuple[Subscription, Dict[str, object]]] = []
            for query_id, standing in update.updated.items():
                channel = self._channels.get(query_id)
                if channel is None:
                    channel = self._channels[query_id] = _QueryChannel()
                message = self._delta_message_locked(channel, update, standing)
                for subscription in channel.subscriptions:
                    targets.append((subscription, message))
                    self._pushes += 1
            for query_id in update.expired:
                channel = self._channels.pop(query_id, None)
                if channel is None:
                    continue
                farewell: Dict[str, object] = {
                    "type": "expired",
                    "query_id": query_id,
                    "bucket": update.bucket,
                    "time": update.time,
                }
                for subscription in channel.subscriptions:
                    targets.append((subscription, farewell))
                    self._pushes += 1
        for subscription, message in targets:
            subscription.deliver(message)

    def close_query(self, query_id: str, reason: str = "unregistered") -> None:
        """Notify and detach every subscriber of an unregistered query."""
        with self._lock:
            channel = self._channels.pop(query_id, None)
            if channel is None:
                return
            subscriptions = tuple(channel.subscriptions)
        message: Dict[str, object] = {"type": reason, "query_id": query_id}
        for subscription in subscriptions:
            subscription.deliver(message)

    def reset(self) -> None:
        """Forget every delta anchor (after a checkpoint restore swap)."""
        with self._lock:
            for channel in self._channels.values():
                channel.last_ids = None
                channel.last_score = None

    # -- internals ---------------------------------------------------------------------

    def _count_drop(self) -> None:
        with self._lock:
            self._dropped += 1

    def _delta_message_locked(
        self,
        channel: _QueryChannel,
        update: ServiceUpdate,
        standing: StandingResult,
    ) -> Dict[str, object]:
        result = standing.result
        new_ids: Tuple[int, ...] = tuple(int(i) for i in result.element_ids)
        previous = channel.last_ids
        if previous is None:
            added: Tuple[int, ...] = new_ids
            removed: Tuple[int, ...] = ()
        else:
            previous_set = set(previous)
            new_set = set(new_ids)
            added = tuple(i for i in new_ids if i not in previous_set)
            removed = tuple(i for i in previous if i not in new_set)
        changed = previous != new_ids or channel.last_score != result.score
        channel.last_ids = new_ids
        channel.last_score = result.score
        return {
            "type": "delta",
            "query_id": standing.query_id,
            "bucket": update.bucket,
            "time": update.time,
            "changed": changed,
            "element_ids": list(new_ids),
            "added": list(added),
            "removed": list(removed),
            "score": float(result.score),
            "algorithm": result.algorithm,
            "evaluations": standing.evaluations,
        }
