"""The cluster supervisor: heartbeats, failover and checkpoint cadence.

:class:`ClusterSupervisor` wraps a sharded :class:`~repro.api.KSIREngine`
and owns its operational lifecycle:

* **ingest** flows through :meth:`ingest_bucket`, which logs every
  prepared bucket to the in-memory :class:`~repro.ha.wal.BucketWAL`
  *before* the coordinator sees it, then takes automatic checkpoints on
  the configured cadence;
* a **checkpoint** is an ordinary engine checkpoint
  (:func:`~repro.api.checkpoint.write_checkpoint`) written into a fresh
  generation directory of ``checkpoint_dir``; the ``latest`` symlink is
  then repointed atomically and the older generation removed, so a crash
  mid-save leaves the previous checkpoint loadable, disk holds one
  checkpoint, and ``KSIREngine.load(checkpoint_dir / "latest")`` resumes;
* a **heartbeat thread** probes the process shard workers; a worker that
  dies (or stops answering) is restarted, restored from the in-memory copy
  of the newest checkpointed state (or of the state the engine held when
  supervision began) and caught up by replaying exactly its WAL gap — the
  surviving shards are never touched;
* a mid-bucket failure (a worker dying while a bucket is in flight) is
  recovered in-line: the live shards already hold the bucket, so the
  restored worker replays through it and the coordinator counters are
  committed once — no bucket is ever lost or double-applied;
* **rebalancing** re-partitions the live coordinator state onto a new
  shard count (:mod:`repro.ha.rebalance`) and swaps the engine without
  stopping ingest.

The WAL serves worker recovery only: it does not outlive the
coordinator's process, so a restarted coordinator resumes from ``latest``
without the buckets ingested after it.  The supervisor requires the
``sharded`` backend.  Failure *injection*
lives in :mod:`repro.ha.chaos`; this module only ever heals.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union, cast

from repro.api.checkpoint import normalise_state, write_checkpoint
from repro.api.config import SHARDED_BACKEND
from repro.api.engine import KSIREngine
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.process_backend import ProcessFanout, ShardFailure
from repro.core.element import SocialElement
from repro.core.query import QueryResult
from repro.ha.config import HAConfig
from repro.ha.rebalance import repartition_state
from repro.ha.wal import BucketWAL

#: The symlink in ``checkpoint_dir`` naming the newest checkpoint.
LATEST = "latest"


class ClusterSupervisor:
    """Supervised runtime over a sharded engine: detect, restore, replay."""

    def __init__(
        self,
        engine: KSIREngine,
        ha: Optional[HAConfig] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if engine.backend_name != SHARDED_BACKEND:
            raise TypeError(
                "ClusterSupervisor requires a sharded engine "
                '(EngineConfig(backend="cluster" / "sharded")); got '
                f"backend {engine.backend_name!r}"
            )
        self._engine = engine
        self._ha = ha if ha is not None else (engine.config.ha or HAConfig())
        self._wal = BucketWAL()
        self._checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        self._generation = 0
        if self._checkpoint_dir is not None and self._checkpoint_dir.is_dir():
            self._generation = max(
                (int(p.name) for p in self._checkpoint_dir.iterdir() if p.name.isdigit()),
                default=0,
            )
        # The coordinator state a restarted shard restores from: a copy of
        # the newest checkpointed state, in the shape a load reads back.  An
        # engine that arrives holding buckets is anchored now, so a shard
        # killed before the first checkpoint does not restart empty.
        self._anchor: Optional[Dict[str, Any]] = None
        if engine.buckets_processed > 0:
            self._anchor = normalise_state(self.coordinator.state_dict())
        # Sequence number of the newest WAL entry covered by the anchor;
        # the replay gap of a restored shard is everything after it.
        self._checkpoint_seq = -1
        self._buckets_at_checkpoint = engine.buckets_processed
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._heartbeat_thread: Optional[threading.Thread] = None
        self._recoveries = 0
        self._rebalances = 0
        self._last_recovery_seconds: Optional[float] = None
        self._last_replayed_buckets = 0
        self._last_heartbeat: Optional[float] = None

    # -- wiring ------------------------------------------------------------------------

    @property
    def engine(self) -> KSIREngine:
        """The supervised engine (replaced in place by :meth:`rebalance`)."""
        return self._engine

    @property
    def coordinator(self) -> ClusterCoordinator:
        """The supervised cluster coordinator (of the engine in place now)."""
        return cast(ClusterCoordinator, self._engine.coordinator)

    @property
    def wal(self) -> BucketWAL:
        """The bucket write-ahead log."""
        return self._wal

    @property
    def ha_config(self) -> HAConfig:
        """The supervision tuning in effect."""
        return self._ha

    def _process_fanout(self) -> Optional[ProcessFanout]:
        fanout = self.coordinator.fanout
        return fanout if isinstance(fanout, ProcessFanout) else None

    # -- heartbeats --------------------------------------------------------------------

    def start(self) -> None:
        """Start the heartbeat thread (no-op on in-process fan-outs)."""
        if self._process_fanout() is None or self._heartbeat_thread is not None:
            return
        self._stop.clear()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="ksir-ha-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()

    def stop(self) -> None:
        """Stop the heartbeat thread (idempotent; does not close the engine)."""
        self._stop.set()
        thread = self._heartbeat_thread
        if thread is not None:
            thread.join(timeout=max(5.0, 2 * self._ha.heartbeat_timeout))
            self._heartbeat_thread = None

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self._ha.heartbeat_interval):
            fanout = self._process_fanout()
            if fanout is None:
                continue
            try:
                fanout.ping(self._ha.heartbeat_timeout)
            except Exception:  # pragma: no cover - probe races with close()
                continue
            self._last_heartbeat = time.monotonic()
            if fanout.dead_shards and self._ha.auto_restart:
                with self._lock:
                    dead = self._process_fanout()
                    if dead is not None and dead.dead_shards:
                        self._recover(dead.dead_shards)

    # -- ingest with write-ahead logging ----------------------------------------------

    def ingest_bucket(self, elements: Sequence[SocialElement], end_time: int) -> None:
        """Log one bucket, ingest it, and heal any shard that dies doing so."""
        with self._lock:
            coordinator = self.coordinator
            prepared = coordinator.prepare_elements(elements)
            seq = self._wal.append(prepared, end_time)
            try:
                self._engine.ingest_bucket(prepared, end_time)
            except ShardFailure as failure:
                if failure.pre_send:
                    # Nothing was applied anywhere (the fan-out refused the
                    # command because a shard was already marked dead, e.g.
                    # by a concurrent heartbeat probe): heal up to the
                    # previous bucket, then run this one normally.
                    self._recover(failure.shard_ids, upto_seq=seq - 1)
                    self._engine.ingest_bucket(prepared, end_time)
                else:
                    # The live shards completed the bucket before the
                    # failure surfaced (the fan-out drains every pipe
                    # first); replay it into the restored shard only and
                    # commit the counters exactly once.
                    self._recover(failure.shard_ids, upto_seq=seq)
                    coordinator.commit_bucket(len(prepared), end_time)
            self._maybe_checkpoint()

    def process_stream(self, stream: Any, until: Optional[int] = None) -> None:
        """Replay a stream through :meth:`ingest_bucket` (shared bucketing)."""
        from repro.core.stream import replay_stream

        replay_stream(
            stream,
            self.coordinator.config.bucket_length,
            self.ingest_bucket,
            until,
        )

    def query(self, *args: Any, **kwargs: Any) -> QueryResult:
        """Answer a query, healing and retrying once on a shard failure."""
        with self._lock:
            try:
                return self._engine.query(*args, **kwargs)
            except ShardFailure as failure:
                self._recover(failure.shard_ids)
                return self._engine.query(*args, **kwargs)

    # -- checkpoints -------------------------------------------------------------------

    def checkpoint(self) -> Optional[str]:
        """Checkpoint the engine now and truncate the WAL.

        Writes a fresh generation directory, repoints ``latest`` at it and
        removes the older one; returns the generation's name (None when
        the supervisor has no ``checkpoint_dir``).  A save that fails
        leaves ``latest``, the anchor and the WAL as they were.
        """
        directory = self._checkpoint_dir
        if directory is None:
            return None
        with self._lock:
            engine = self._engine
            state = normalise_state(engine.state_dict())
            self._generation += 1
            name = f"{self._generation:06d}"
            try:
                write_checkpoint(
                    directory / name,
                    backend_name=engine.backend_name,
                    config=engine.config,
                    topic_model=engine.topic_model,
                    state=state,
                )
            except BaseException:
                shutil.rmtree(directory / name, ignore_errors=True)
                raise
            pointer = directory / (LATEST + ".tmp")
            pointer.unlink(missing_ok=True)
            pointer.symlink_to(name, target_is_directory=True)
            os.replace(pointer, directory / LATEST)
            for old in directory.iterdir():
                if old.name.isdigit() and old.name != name:
                    shutil.rmtree(old, ignore_errors=True)
            self._set_anchor(state["coordinator"])
            return name

    def _set_anchor(self, coordinator_state: Dict[str, Any]) -> None:
        """Make ``coordinator_state`` what a restarted shard restores from;
        the WAL it covers is dropped."""
        self._anchor = coordinator_state
        self._checkpoint_seq = self._wal.last_seq
        self._buckets_at_checkpoint = self._engine.buckets_processed
        self._wal.truncate()

    def _maybe_checkpoint(self) -> None:
        if self._checkpoint_dir is None:
            return
        since = self._engine.buckets_processed - self._buckets_at_checkpoint
        if self._ha.checkpoint_every and since >= self._ha.checkpoint_every:
            self.checkpoint()
        elif len(self._wal) >= self._ha.wal_capacity:
            self.checkpoint()

    # -- recovery ----------------------------------------------------------------------

    def _recover(
        self, shard_ids: Sequence[int], upto_seq: Optional[int] = None
    ) -> None:
        """Restart dead shards, restore them and replay their WAL gap.

        ``upto_seq`` bounds the replay (used when the failing bucket must
        be retried in full rather than replayed); by default the whole
        retained log is replayed.
        """
        started = time.perf_counter()
        coordinator = self.coordinator
        fanout = self._process_fanout()
        if fanout is None:
            raise ShardFailure(
                shard_ids, "in-process shard workers cannot be restarted"
            )
        entries = self._wal.entries_since(self._checkpoint_seq)
        if upto_seq is not None:
            entries = [entry for entry in entries if entry.seq <= upto_seq]
        for shard_id in shard_ids:
            fanout.restart_shard(shard_id)
            if self._anchor is not None:
                coordinator.restore_shard(shard_id, self._anchor)
            # Without an anchor the engine started empty, so does the fresh
            # worker, and the WAL — never truncated in that configuration —
            # replays the shard's entire history.
            for entry in entries:
                coordinator.replay_bucket_to_shard(
                    shard_id, list(entry.elements), entry.end_time
                )
        self._recoveries += 1
        self._last_replayed_buckets = len(entries)
        self._last_recovery_seconds = time.perf_counter() - started

    # -- rebalancing -------------------------------------------------------------------

    def rebalance(self, num_shards: int) -> KSIREngine:
        """Re-partition the live cluster onto ``num_shards`` workers.

        Gathers the coordinator's full state, re-homes every element onto
        the new shard count, builds a fresh engine around it and swaps it
        in under the ingest lock — stream ingestion continues with the
        next bucket.  The old engine is closed.  Returns the new engine.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        with self._lock:
            old_engine = self._engine
            new_state = repartition_state(self.coordinator.state_dict(), num_shards)
            old_config = old_engine.config
            assert old_config.cluster is not None
            new_config = replace(
                old_config, cluster=replace(old_config.cluster, num_shards=num_shards)
            )
            self._engine = new_engine = KSIREngine(old_engine.topic_model, new_config)
            try:
                self.coordinator.restore_state(new_state)
            except BaseException:
                # Keep serving on the old shape; do not leak the new workers.
                self._engine = old_engine
                new_engine.close()
                raise
            old_engine.close()
            self._rebalances += 1
            # The anchor and any checkpoint describe the old shard shape:
            # replace them with the new one.
            if self._checkpoint_dir is not None:
                self.checkpoint()
            else:
                self._set_anchor(normalise_state(new_state))
            return new_engine

    # -- telemetry ---------------------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """Supervision status for ``/telemetry`` and the CLI."""
        fanout = self._process_fanout()
        shards: List[Dict[str, Any]] = []
        num_shards = self.coordinator.num_shards
        dead: Tuple[int, ...] = fanout.dead_shards if fanout is not None else ()
        for shard_id in range(num_shards):
            shards.append({"shard_id": shard_id, "alive": shard_id not in dead})
        checkpoint = None
        if self._checkpoint_dir is not None:
            latest = self._checkpoint_dir / LATEST
            checkpoint = {
                "latest": str(latest) if latest.exists() else None,
                "generation": self._generation,
            }
        return {
            "supervised": True,
            "transport": self.coordinator.cluster_config.transport,
            "num_shards": num_shards,
            "shards": shards,
            "healthy": not dead,
            "heartbeat": {
                "interval": self._ha.heartbeat_interval,
                "timeout": self._ha.heartbeat_timeout,
                "running": self._heartbeat_thread is not None,
                "age_seconds": (
                    None
                    if self._last_heartbeat is None
                    else time.monotonic() - self._last_heartbeat
                ),
            },
            "recoveries": self._recoveries,
            "rebalances": self._rebalances,
            "last_recovery_seconds": self._last_recovery_seconds,
            "last_replayed_buckets": self._last_replayed_buckets,
            "wal": self._wal.stats(),
            "checkpoint": checkpoint,
        }

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Stop supervision and close the engine (idempotent)."""
        self.stop()
        self._engine.close()

    def __enter__(self) -> "ClusterSupervisor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
