"""One-OS-process-per-shard fan-out (``ClusterConfig(transport="pipe")``).

Each shard gets its own process and talks to the coordinator over a pipe.
Protocol per command: the coordinator scatters a message to every shard
pipe, then gathers every reply — so shards genuinely overlap on multi-core
machines, and a crash or a kill takes down one shard, not the engine.

The coordinator's routing and the workers' home filters agree without
exchanging anything: both are :func:`~repro.cluster.partition.shard_of`, a
pure function of the element id and the shard count.

Costs to be aware of: per-bucket pickling of the routed elements, at the
first query after a bucket pickling of each shard's delta (the scoring
records the bucket changed) and, at startup, pickling of the topic model
into every shard process.  On the 2-core benchmark box the in-process
``serial`` transport beats two shard processes on every end-to-end metric
(``benchmarks/trajectory/BENCH_transports_pr16.json``): this transport is
kept for isolation and failover, not for speed.

Liveness and recovery
---------------------
A worker process can die (OOM kill, crash, fault injection).  The fan-out
detects broken pipes during any command — and on demand via :meth:`ping` —
and raises :exc:`ShardFailure` naming the dead shards instead of a generic
protocol error.  Failures are *sticky*: once a shard is marked dead every
command refuses to run until :meth:`restart_shard` replaces the process, at
which point `repro.ha`'s supervisor restores the shard from the latest
checkpoint and replays its WAL gap.  Checkpointing round-trips through the
worker processes via the ``state`` / ``restore`` commands, so the process
backend is fully checkpointable.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.processor import ProcessorConfig
from repro.cluster.partition import RoutedBucket, home_filter
from repro.cluster.worker import ShardDelta, ShardStats, ShardWorker
from repro.topics.model import TopicModel


class ShardFailure(RuntimeError):
    """One or more shard worker processes died mid-protocol.

    Carries the dead shard ids so a supervisor can restart exactly those
    workers, restore them from the latest checkpoint and replay the gap.

    ``pre_send`` distinguishes the two failure points, which need different
    recovery: ``True`` means the fan-out *refused* the command because a
    shard was already marked dead — nothing was sent anywhere, so the
    command must be retried in full after recovery.  ``False`` (the
    in-band case) means the live shards have already *completed* the
    command (the fan-out drains every pipe before raising), so only the
    dead shards need it replayed — which is what makes per-shard replay
    sound.
    """

    def __init__(
        self, shard_ids: Sequence[int], detail: str = "", pre_send: bool = False
    ) -> None:
        self.shard_ids: Tuple[int, ...] = tuple(sorted(set(int(s) for s in shard_ids)))
        self.pre_send = bool(pre_send)
        message = f"shard worker(s) {list(self.shard_ids)} died"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


def _shard_main(
    conn, shard_id: int, num_shards: int, topic_model: TopicModel, config: ProcessorConfig
) -> None:
    """The shard process loop: execute commands until ``close`` arrives."""
    # Fault-injection knobs (repro.ha.chaos): a positive ping delay makes
    # the worker look hung to heartbeat probes without killing it.
    chaos: Dict[str, float] = {"ping_delay": 0.0}
    worker = ShardWorker(
        shard_id,
        topic_model,
        config,
        home_filter=home_filter(shard_id, num_shards),
    )
    while True:
        try:
            # Wait in poll(), not in the read: on a 2-core host, two shards
            # woken from a blocking read were put on the coordinator's core
            # and ran one after the other in 122 of 400 `sharded_mixed`
            # buckets (13 of 400 when waiting in poll).
            conn.poll(None)
            command, payload = conn.recv()
        except EOFError:
            break
        try:
            if command == "ingest":
                elements, end_time, home_count = payload
                worker.ingest(elements, end_time, home_count=home_count)
                conn.send(("ok", None))
            elif command == "sync":
                conn.send(("ok", worker.sync(payload)))
            elif command == "dirty":
                conn.send(("ok", worker.take_dirty_topics()))
            elif command == "active":
                conn.send(("ok", worker.home_active_count))
            elif command == "stats":
                conn.send(("ok", worker.stats()))
            elif command == "ping":
                if chaos["ping_delay"] > 0.0:
                    time.sleep(chaos["ping_delay"])
                conn.send(("ok", shard_id))
            elif command == "state":
                conn.send(("ok", worker.state_dict()))
            elif command == "restore":
                worker.restore_state(payload)
                conn.send(("ok", None))
            elif command == "chaos":
                chaos.update({str(key): float(value) for key, value in payload.items()})
                conn.send(("ok", None))
            elif command == "close":
                conn.send(("ok", None))
                break
            else:
                conn.send(("error", f"unknown command {command!r}"))
        except Exception as error:  # surface shard failures to the coordinator
            conn.send(("error", f"{type(error).__name__}: {error}"))
    conn.close()


class ProcessFanout:
    """Scatter-gather over one worker process per shard."""

    #: The workers live in their own processes.
    workers: Tuple[ShardWorker, ...] = ()

    def __init__(
        self,
        num_shards: int,
        topic_model: TopicModel,
        config: ProcessorConfig,
    ) -> None:
        self._context = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        self._model = topic_model
        self._config = config
        self._num_shards = int(num_shards)
        self._connections = []
        self._processes = []
        for shard_id in range(self._num_shards):
            connection, process = self._spawn(shard_id)
            self._connections.append(connection)
            self._processes.append(process)
        self._closed = False
        self._dead: Set[int] = set()
        # The supervisor's heartbeat thread pings the shards while the
        # caller's thread ingests and queries; the pipe protocol is strictly
        # request/reply per shard and must not interleave across threads.
        self._protocol_lock = threading.Lock()

    def _spawn(self, shard_id: int):
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_shard_main,
            args=(child_conn, shard_id, self._num_shards, self._model, self._config),
            daemon=True,
            name=f"ksir-shard-{shard_id}",
        )
        process.start()
        child_conn.close()
        return parent_conn, process

    # -- liveness ---------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of shard worker processes."""
        return self._num_shards

    @property
    def dead_shards(self) -> Tuple[int, ...]:
        """Shards currently marked dead (sticky until :meth:`restart_shard`)."""
        return tuple(sorted(self._dead))

    def ping(self, timeout: float = 1.0) -> List[bool]:
        """Probe every shard; ``True`` per shard that replies within ``timeout``.

        A shard that fails to reply in time is marked dead: its late reply
        (if any) can no longer be matched to a request, so the only safe
        continuation is a restart.  Already-dead shards are reported without
        being re-probed.
        """
        with self._protocol_lock:
            probed: List[int] = []
            for shard_id, conn in enumerate(self._connections):
                if shard_id in self._dead:
                    continue
                try:
                    conn.send(("ping", None))
                    probed.append(shard_id)
                except (BrokenPipeError, OSError):
                    self._dead.add(shard_id)
            deadline = time.monotonic() + max(0.0, timeout)
            for shard_id in probed:
                conn = self._connections[shard_id]
                remaining = max(0.0, deadline - time.monotonic())
                try:
                    if not conn.poll(remaining):
                        self._dead.add(shard_id)
                        continue
                    status, _ = conn.recv()
                    if status != "ok":
                        self._dead.add(shard_id)
                except (EOFError, OSError):
                    self._dead.add(shard_id)
            return [shard_id not in self._dead for shard_id in range(self.num_shards)]

    def kill_shard(self, shard_id: int) -> None:
        """Hard-kill a shard worker process (fault injection).

        The shard is *not* marked dead here: detection is the supervisor's
        job (heartbeat or in-band pipe failure), which is exactly what the
        chaos harness exercises.
        """
        self._processes[shard_id].kill()

    def set_chaos(self, shard_id: int, **knobs: float) -> None:
        """Set fault-injection knobs on one worker (e.g. ``ping_delay=2.0``)."""
        self._request(shard_id, "chaos", dict(knobs))

    def restart_shard(self, shard_id: int) -> None:
        """Replace a dead worker process with a fresh, empty one.

        The caller is responsible for restoring state into the new worker
        (``restore_shard``) and replaying the WAL gap; `repro.ha`'s
        supervisor packages that sequence.
        """
        with self._protocol_lock:
            process = self._processes[shard_id]
            if process.is_alive():
                process.kill()
            process.join(timeout=5.0)
            try:
                self._connections[shard_id].close()
            except OSError:
                pass
            connection, process = self._spawn(shard_id)
            self._connections[shard_id] = connection
            self._processes[shard_id] = process
            self._dead.discard(shard_id)

    # -- protocol helpers -----------------------------------------------------------

    def _check_dead_locked(self) -> None:
        if self._dead:
            raise ShardFailure(
                self._dead,
                "restart_shard() and restore before issuing commands",
                pre_send=True,
            )

    def _scatter_gather(self, messages: Sequence[Tuple[str, object]]) -> List[object]:
        """Send one message per shard, then collect every reply."""
        with self._protocol_lock:
            # Known-dead shards make any fan-out command unsound (their
            # state is behind); refuse before mutating the live shards.
            self._check_dead_locked()
            newly_dead: Set[int] = set()
            for shard_id, (conn, message) in enumerate(
                zip(self._connections, messages)
            ):
                try:
                    conn.send(message)
                except (BrokenPipeError, OSError):
                    newly_dead.add(shard_id)
            # Drain every pipe before surfacing failures: raising mid-gather
            # would leave queued replies that desync all later commands.
            replies: List[object] = []
            failures: List[str] = []
            for shard_id, conn in enumerate(self._connections):
                if shard_id in newly_dead:
                    replies.append(None)
                    continue
                try:
                    status, value = conn.recv()
                except (EOFError, OSError):
                    newly_dead.add(shard_id)
                    replies.append(None)
                    continue
                if status != "ok":
                    failures.append(f"shard {shard_id} failed: {value}")
                    replies.append(None)
                else:
                    replies.append(value)
            self._dead.update(newly_dead)
        if newly_dead:
            raise ShardFailure(newly_dead)
        if failures:
            raise RuntimeError("; ".join(failures))
        return replies

    def _request(self, shard_id: int, command: str, payload: object = None) -> object:
        """Strict request/reply with a single shard."""
        with self._protocol_lock:
            if shard_id in self._dead:
                raise ShardFailure([shard_id], "shard is marked dead", pre_send=True)
            conn = self._connections[shard_id]
            try:
                conn.send((command, payload))
                status, value = conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                self._dead.add(shard_id)
                raise ShardFailure([shard_id]) from None
            if status != "ok":
                raise RuntimeError(f"shard {shard_id} failed: {value}")
            return value

    def _broadcast(self, command: str, payload: object = None) -> List[object]:
        return self._scatter_gather([(command, payload)] * len(self._connections))

    # -- the fan-out interface (TransportBackend) --------------------------------------

    def ingest(self, routed: Sequence[RoutedBucket], end_time: int) -> None:
        self._scatter_gather(
            [
                ("ingest", (bucket.elements, end_time, bucket.home_count))
                for bucket in sorted(routed, key=lambda b: b.shard_id)
            ]
        )

    def sync(self, generations: Sequence[Optional[int]]) -> List[ShardDelta]:
        return self._scatter_gather([("sync", generation) for generation in generations])

    def take_dirty_topics(self) -> Set[int]:
        dirty: Set[int] = set()
        for topics in self._broadcast("dirty"):
            dirty.update(topics)
        return dirty

    def home_active_counts(self) -> List[int]:
        return self._broadcast("active")

    def stats(self) -> List[ShardStats]:
        return self._broadcast("stats")

    # -- checkpoint state over the pipes ----------------------------------------------

    def states(self) -> List[Dict[str, object]]:
        """Every worker's ``state_dict`` gathered over the pipes."""
        return self._broadcast("state")

    def restore_shard(self, shard_id: int, state: Mapping[str, object]) -> None:
        """Restore one worker from a checkpointed shard state."""
        self._request(shard_id, "restore", dict(state))

    def restore_all(self, states: Sequence[Mapping[str, object]]) -> None:
        """Restore every worker (one checkpointed state per shard)."""
        if len(states) != self.num_shards:
            raise ValueError(
                f"checkpoint holds {len(states)} shards, the fan-out "
                f"runs {self.num_shards}"
            )
        self._scatter_gather([("restore", dict(state)) for state in states])

    def ingest_shard(self, bucket: RoutedBucket, end_time: int) -> None:
        """Ingest one routed bucket into a single shard (WAL gap replay)."""
        self._request(
            bucket.shard_id, "ingest", (bucket.elements, end_time, bucket.home_count)
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard_id, conn in enumerate(self._connections):
            if shard_id in self._dead:
                continue
            try:
                conn.send(("close", None))
            except (BrokenPipeError, OSError):
                pass
        for shard_id, conn in enumerate(self._connections):
            if shard_id not in self._dead:
                try:
                    conn.recv()
                except (EOFError, OSError):
                    pass
            conn.close()
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
