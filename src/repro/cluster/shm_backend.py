"""Zero-copy one-process-per-shard fan-out (``ClusterConfig(transport="shm")``).

:class:`ShmProcessFanout` keeps the pipe transport's process model, liveness
detection and checkpoint protocol (it *is* a :class:`ProcessFanout`), but
moves the heavy payloads off the pipes:

* **Store columns live in shared memory.**  Each shard worker's
  :class:`~repro.store.ElementStore` adopts columns backed by
  coordinator-owned segments (one :class:`~repro.cluster.shm.SharedColumnArena`
  per shard), so the coordinator reads element ids, timestamps and the
  topic-profile matrix ``P`` of any shard zero-copy.
* **Candidate pools are array slices.**  ``export`` replies carry only a
  tiny section header over the pipe; the candidate ids, stored scores,
  activity times, full candidate profiles and follower *rows* are packed as
  fixed-layout arrays into a per-shard shared result buffer.  Follower
  profiles — the bulk of a pickled pool — are never shipped at all: the
  coordinator materialises them directly from the shared ``P`` / timestamp
  columns.
* **Buckets are packed, not pickled per shard.**  ``ingest`` writes the
  routed elements and ownership updates into a per-shard shared ingest
  buffer; the pipe carries only ``(end_time, home_count, header)``.

Growth handshake
----------------
Workers never create segments (attach-only processes cannot leak them).
When a column capacity or buffer size is insufficient the worker replies
``("grow", requirements)`` *without mutating state*; the coordinator grows
the arena — copying live column contents through its own views while the
worker is quiescent between commands — and re-sends the command with the
new manifest.  Ingest pre-checks row capacity (a bucket can acquire at most
``len(elements) + Σ references`` rows), restore retries from scratch (it
clears first, so it is idempotent), and export is read-only, so every
re-sent command is sound.

Cleanup
-------
All segments are created and unlinked by the coordinator process:
``close()`` unlinks everything, worker restarts re-attach the existing
segments, and a SIGKILLed worker leaves nothing behind in ``/dev/shm`` and
triggers no ``resource_tracker`` warnings.
"""

from __future__ import annotations

import pickle
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np
import numpy.typing as npt

from repro.cluster.partition import RoutedBucket
from repro.cluster.process_backend import ProcessFanout, ShardFailure
from repro.cluster.shm import (
    COLUMN_KEYS,
    EXPORT_BUFFER_KEY,
    INGEST_BUFFER_KEY,
    INITIAL_BUFFER_BYTES,
    ArenaView,
    Manifest,
    SharedColumnArena,
    column_spec,
    new_session_token,
    pack_arrays,
    packed_size,
    unpack_arrays,
)
from repro.cluster.worker import CandidatePool, ShardWorker
from repro.core.processor import ProcessorConfig
from repro.core.scoring import ElementProfile
from repro.store import ElementStore, StoreCapacityError
from repro.topics.model import TopicModel

#: Initial row capacity of the shared store columns (grown on demand;
#: matches the heap store's default initial capacity).
INITIAL_ROWS = 1024

_Sections = List[Tuple[str, npt.NDArray]]
_Header = List[Tuple[str, str, Tuple[int, ...]]]


# ---------------------------------------------------------------------------
# Worker-side encoding
# ---------------------------------------------------------------------------


def _encode_export(
    worker: ShardWorker, vector: npt.NDArray[np.float64], budget: Optional[int]
) -> _Sections:
    """One shard's candidate export as fixed-layout array sections.

    Mirrors :meth:`ShardWorker.export_candidates` exactly — same retrieval
    order, same stored scores, same profiles — but emits arrays instead of
    a :class:`CandidatePool`.  Dict entries are flattened *in iteration
    order* so the coordinator rebuilds dicts with identical insertion
    order, keeping float accumulation order (and therefore answers at the
    1e-9 level) bit-identical to the pipe transport.
    """
    processor = worker.processor
    index = processor.ranked_lists
    store = processor.store
    candidate_ids = tuple(index.top_candidates(vector, budget))
    count = len(candidate_ids)

    cand_act = np.empty(count, dtype=np.int64)
    p_ts = np.empty(count, dtype=np.int64)
    sc_indptr = np.zeros(count + 1, dtype=np.int64)
    tp_indptr = np.zeros(count + 1, dtype=np.int64)
    sem_indptr = np.zeros(count + 1, dtype=np.int64)
    wwt_indptr = np.zeros(count + 1, dtype=np.int64)
    ref_indptr = np.zeros(count + 1, dtype=np.int64)
    sc_topics: List[int] = []
    sc_vals: List[float] = []
    tp_topics: List[int] = []
    tp_probs: List[float] = []
    sem_topics: List[int] = []
    sem_vals: List[float] = []
    wwt_topics: List[int] = []
    www_counts: List[int] = [0]
    www_words: List[int] = []
    www_sigmas: List[float] = []
    refs: List[int] = []

    for position, element_id in enumerate(candidate_ids):
        profile = processor.profile(element_id)
        sc_topics.extend(profile.topics)
        sc_vals.extend(index.score(topic, element_id) for topic in profile.topics)
        sc_indptr[position + 1] = len(sc_topics)
        cand_act[position] = index.last_activity(element_id)

        p_ts[position] = profile.timestamp
        tp_topics.extend(profile.topic_probabilities.keys())
        tp_probs.extend(profile.topic_probabilities.values())
        tp_indptr[position + 1] = len(tp_topics)
        sem_topics.extend(profile.semantic_scores.keys())
        sem_vals.extend(profile.semantic_scores.values())
        sem_indptr[position + 1] = len(sem_topics)
        for topic, words in profile.word_weights.items():
            wwt_topics.append(topic)
            www_words.extend(words.keys())
            www_sigmas.extend(words.values())
            www_counts.append(len(www_words))
        wwt_indptr[position + 1] = len(wwt_topics)
        refs.extend(profile.references)
        ref_indptr[position + 1] = len(refs)

    if count:
        rows = store.rows_of(candidate_ids)
        fol_rows, fol_counts = store.followers_concat(rows)
    else:
        fol_rows = np.empty(0, dtype=np.intp)
        fol_counts = np.empty(0, dtype=np.intp)
    fol_indptr = np.zeros(count + 1, dtype=np.int64)
    if count:
        fol_indptr[1:] = np.cumsum(fol_counts)

    worker.record_export(count)
    return [
        ("cand_ids", np.asarray(candidate_ids, dtype=np.int64)),
        ("cand_act", cand_act),
        ("p_ts", p_ts),
        ("sc_indptr", sc_indptr),
        ("sc_topics", np.asarray(sc_topics, dtype=np.int64)),
        ("sc_vals", np.asarray(sc_vals, dtype=np.float64)),
        ("tp_indptr", tp_indptr),
        ("tp_topics", np.asarray(tp_topics, dtype=np.int64)),
        ("tp_probs", np.asarray(tp_probs, dtype=np.float64)),
        ("sem_indptr", sem_indptr),
        ("sem_topics", np.asarray(sem_topics, dtype=np.int64)),
        ("sem_vals", np.asarray(sem_vals, dtype=np.float64)),
        ("wwt_indptr", wwt_indptr),
        ("wwt_topics", np.asarray(wwt_topics, dtype=np.int64)),
        ("www_indptr", np.asarray(www_counts, dtype=np.int64)),
        ("www_words", np.asarray(www_words, dtype=np.int64)),
        ("www_sigmas", np.asarray(www_sigmas, dtype=np.float64)),
        ("ref_indptr", ref_indptr),
        ("refs", np.asarray(refs, dtype=np.int64)),
        ("fol_indptr", fol_indptr),
        ("fol_rows", np.asarray(fol_rows, dtype=np.int64)),
    ]


# ---------------------------------------------------------------------------
# The worker process loop
# ---------------------------------------------------------------------------


def _shm_shard_main(
    conn,
    shard_id: int,
    topic_model: TopicModel,
    config: ProcessorConfig,
    manifest: Manifest,
) -> None:
    """The shm shard process loop: attach segments, execute commands.

    Mirrors the pipe transport's ``_shard_main`` command set; ingest /
    export / restore move their payloads through the shared arena, and a
    capacity miss is answered with a ``("grow", requirements)`` reply
    instead of mutating state (see the module docstring).
    """
    view = ArenaView(manifest)
    owners: Dict[int, int] = {}
    owner_seen: Dict[int, int] = {}
    chaos: Dict[str, float] = {"ping_delay": 0.0}

    def columns() -> Dict[str, npt.NDArray]:
        return {key: view.array(key) for key in COLUMN_KEYS}

    worker = ShardWorker(
        shard_id,
        topic_model,
        config,
        home_filter=lambda element_id: owners.get(element_id) == shard_id,
        store_factory=lambda: ElementStore(topic_model.num_topics, columns=columns()),
    )
    store = worker.processor.store

    def refresh(new_manifest: Manifest) -> None:
        changed = view.refresh(new_manifest)
        if any(key in COLUMN_KEYS for key in changed):
            # The coordinator already copied the live contents into the new
            # generation; only the references need swapping.
            store.adopt_columns(columns())

    while True:
        try:
            command, payload = conn.recv()
        except EOFError:
            break
        try:
            if command == "ingest":
                end_time, home_count, header, new_manifest = payload
                refresh(new_manifest)
                sections = unpack_arrays(view.array(INGEST_BUFFER_KEY), header)
                elements = pickle.loads(sections["elems"].tobytes())
                # Row-capacity pre-check *before* touching any state: a
                # bucket acquires at most one row per element plus one per
                # reference (archived parents re-activated by a repost).
                extra = len(elements) + sum(len(e.references) for e in elements)
                required = store.required_capacity(extra)
                if required > store.capacity:
                    conn.send(("grow", {"rows": required}))
                    continue
                owner_ids = sections["owner_ids"].tolist()
                owner_homes = sections["owner_homes"].tolist()
                owners.update(zip(owner_ids, owner_homes))
                for element_id in owner_ids:
                    owner_seen[element_id] = end_time
                worker.ingest(elements, end_time, home_count=home_count)
                cutoff = end_time - 8 * config.window_length
                if cutoff > 0:
                    for element_id in [
                        eid for eid, seen in owner_seen.items() if seen < cutoff
                    ]:
                        del owner_seen[element_id]
                        owners.pop(element_id, None)
                conn.send(("ok", None))
            elif command == "export":
                vector, budget, new_manifest = payload
                refresh(new_manifest)
                sections = _encode_export(worker, vector, budget)
                buffer = view.array(EXPORT_BUFFER_KEY)
                required = packed_size(sections)
                if required > buffer.nbytes:
                    conn.send(("grow", {"out": required}))
                    continue
                conn.send(("ok", pack_arrays(buffer, sections)))
            elif command == "restore":
                worker_state, owner_table, owner_time, new_manifest = payload
                refresh(new_manifest)
                try:
                    worker.restore_state(worker_state)
                except StoreCapacityError as error:
                    # Restore clears the store before re-acquiring rows, so
                    # retrying after a grow restores from scratch cleanly.
                    conn.send(("grow", {"rows": error.required_capacity}))
                    continue
                owners.clear()
                owners.update(
                    {int(eid): int(home) for eid, home in owner_table.items()}
                )
                owner_seen = {eid: int(owner_time) for eid in owners}
                conn.send(("ok", None))
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
    view.close()
    conn.close()


# ---------------------------------------------------------------------------
# The coordinator-side fan-out
# ---------------------------------------------------------------------------


class ShmProcessFanout(ProcessFanout):
    """Scatter-gather over shared-memory-attached shard worker processes.

    Subclasses :class:`ProcessFanout`, inheriting the liveness protocol
    (ping / sticky dead shards / restart), the checkpoint ``state`` command
    and chaos injection; ingest, export and restore are overridden to move
    their payloads through per-shard :class:`SharedColumnArena` segments
    with the grow handshake described in the module docstring.
    """

    def __init__(
        self,
        num_shards: int,
        topic_model: TopicModel,
        config: ProcessorConfig,
        initial_rows: int = INITIAL_ROWS,
        initial_buffer_bytes: int = INITIAL_BUFFER_BYTES,
    ) -> None:
        self.session = new_session_token()
        self._arenas: List[SharedColumnArena] = []
        num_topics = topic_model.num_topics
        for shard_id in range(num_shards):
            arena = SharedColumnArena(self.session, shard_id)
            for key, (shape, dtype, fill) in column_spec(
                initial_rows, num_topics
            ).items():
                arena.create(key, shape, dtype, fill)
            arena.create(INGEST_BUFFER_KEY, (initial_buffer_bytes,), np.dtype(np.uint8))
            arena.create(EXPORT_BUFFER_KEY, (initial_buffer_bytes,), np.dtype(np.uint8))
            self._arenas.append(arena)
        self._num_topics = num_topics
        try:
            super().__init__(num_shards, topic_model, config)
        except BaseException:
            for arena in self._arenas:
                arena.close(unlink=True)
            raise

    def _spawn(self, shard_id: int):
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_shm_shard_main,
            args=(
                child_conn,
                shard_id,
                self._model,
                self._config,
                self._arenas[shard_id].manifest(),
            ),
            daemon=True,
            name=f"ksir-shard-{shard_id}",
        )
        process.start()
        child_conn.close()
        return parent_conn, process

    # -- the grow handshake -----------------------------------------------------------

    def _grow_for(self, shard_id: int, requirements: Dict[str, int]) -> None:
        """Grow one shard's arena to satisfy a worker's grow reply."""
        arena = self._arenas[shard_id]
        if "rows" in requirements:
            current = int(arena.array("ids").shape[0])
            new_rows = max(int(requirements["rows"]), current * 2)
            for key, (shape, _, fill) in column_spec(
                new_rows, self._num_topics
            ).items():
                # Fill the whole new segment with the column default, then
                # copy the live prefix; the worker is quiescent between
                # commands, so reading its columns here is race-free.
                arena.grow(key, shape, copy=True, fill=fill)
        if "out" in requirements:
            current = int(arena.array(EXPORT_BUFFER_KEY).nbytes)
            new_bytes = max(int(requirements["out"]), current * 2)
            arena.grow(EXPORT_BUFFER_KEY, (new_bytes,), copy=False)
        # Retired segments are NOT unlinked here: a worker that has not yet
        # attached them (it attaches its startup manifest lazily, by name)
        # would hit FileNotFoundError.  They are unlinked once the shard
        # replies — every shm command refreshes the manifest before
        # answering, so a reply proves the old names are no longer needed.

    def _exchange(
        self,
        commands: Union[
            Sequence[Optional[Tuple[str, Tuple]]],
            Callable[[], Sequence[Optional[Tuple[str, Tuple]]]],
        ],
        finalize: Optional[Callable[[List[object]], List[object]]] = None,
        require_all_alive: bool = True,
    ) -> List[object]:
        """Scatter one command per shard with grow-retry, then gather.

        ``commands[shard]`` is ``(command, payload_prefix)``; the shard's
        current manifest is appended to the payload at every (re)send so a
        grow between attempts is visible to the worker.  ``None`` skips the
        shard.  ``finalize`` runs on the replies *while the protocol lock
        is held* — the export path decodes candidate pools from the shared
        buffers there, before any concurrent ingest can mutate the columns.

        ``require_all_alive=False`` only checks the *targeted* shards for
        deadness (single-shard restore must proceed while other shards are
        still down during multi-failure recovery).

        ``commands`` may be a callable built *under the protocol lock*
        (ingest packs the shared ingest buffers there, so buffer writes and
        grows can never interleave with a concurrent export exchange).
        """
        with self._protocol_lock:
            if callable(commands):
                commands = commands()
            pending: Set[int] = {
                shard_id
                for shard_id, command in enumerate(commands)
                if command is not None
            }
            if require_all_alive:
                self._check_dead_locked()
            else:
                targeted_dead = pending & self._dead
                if targeted_dead:
                    raise ShardFailure(
                        targeted_dead, "shard is marked dead", pre_send=True
                    )
            results: List[object] = [None] * len(self._connections)
            newly_dead: Set[int] = set()
            failures: List[str] = []
            needs_send = set(pending)
            while pending:
                for shard_id in sorted(needs_send):
                    command, prefix = commands[shard_id]  # type: ignore[misc]
                    payload = (*prefix, self._arenas[shard_id].manifest())
                    try:
                        self._connections[shard_id].send((command, payload))
                    except (BrokenPipeError, OSError):
                        newly_dead.add(shard_id)
                needs_send.clear()
                done: Set[int] = set()
                for shard_id in sorted(pending):
                    if shard_id in newly_dead:
                        done.add(shard_id)
                        continue
                    try:
                        status, value = self._connections[shard_id].recv()
                    except (EOFError, OSError):
                        newly_dead.add(shard_id)
                        done.add(shard_id)
                        continue
                    # Any reply proves the worker refreshed to the manifest
                    # of the last send — segments retired before that send
                    # are now safe to unlink.
                    self._arenas[shard_id].unlink_retired()
                    if status == "ok":
                        results[shard_id] = value
                        done.add(shard_id)
                    elif status == "grow":
                        self._grow_for(shard_id, value)
                        needs_send.add(shard_id)
                    else:
                        failures.append(f"shard {shard_id} failed: {value}")
                        done.add(shard_id)
                pending -= done
            self._dead.update(newly_dead)
            if not newly_dead and not failures and finalize is not None:
                results = finalize(results)
        if newly_dead:
            raise ShardFailure(newly_dead)
        if failures:
            raise RuntimeError("; ".join(failures))
        return results

    def _shm_request(self, shard_id: int, command: str, prefix: Tuple) -> object:
        """Single-shard request/reply with the grow-retry handshake."""
        commands: List[Optional[Tuple[str, Tuple]]] = [None] * len(self._connections)
        commands[shard_id] = (command, prefix)
        return self._exchange(commands, require_all_alive=False)[shard_id]

    # -- payload packing --------------------------------------------------------------

    def _write_ingest(self, bucket: RoutedBucket) -> _Header:
        """Pack one routed bucket into its shard's shared ingest buffer."""
        arena = self._arenas[bucket.shard_id]
        owner_items = list(bucket.owners.items())
        sections: _Sections = [
            (
                "elems",
                np.frombuffer(
                    pickle.dumps(tuple(bucket.elements), protocol=pickle.HIGHEST_PROTOCOL),
                    dtype=np.uint8,
                ),
            ),
            ("owner_ids", np.asarray([eid for eid, _ in owner_items], dtype=np.int64)),
            ("owner_homes", np.asarray([home for _, home in owner_items], dtype=np.int64)),
        ]
        buffer = arena.array(INGEST_BUFFER_KEY)
        required = packed_size(sections)
        if required > buffer.nbytes:
            # Called under the protocol lock; the retired segment is
            # unlinked once the shard replies (see _exchange).
            buffer = arena.grow(
                INGEST_BUFFER_KEY, (max(required, buffer.nbytes * 2),), copy=False
            )
        return pack_arrays(buffer, sections)

    # -- pool materialisation ---------------------------------------------------------

    def _decode_pool(self, shard_id: int, header: _Header) -> CandidatePool:
        """Rebuild one shard's candidate pool from its shared buffers.

        Runs under the protocol lock while the worker is quiescent, so the
        shared columns are guaranteed stable.  Follower profiles are
        *materialised* from the shared ``P`` / timestamp columns (they were
        never shipped): topic probabilities only, which is exactly what
        influence evaluation reads of a follower.
        """
        arena = self._arenas[shard_id]
        sections = unpack_arrays(arena.array(EXPORT_BUFFER_KEY), header)
        ids_col = arena.array("ids")
        ts_col = arena.array("ts")
        prof_col = arena.array("prof")

        candidate_ids = tuple(int(eid) for eid in sections["cand_ids"])
        cand_act = sections["cand_act"]
        p_ts = sections["p_ts"]
        sc_indptr = sections["sc_indptr"]
        sc_topics = sections["sc_topics"].tolist()
        sc_vals = sections["sc_vals"].tolist()
        tp_indptr = sections["tp_indptr"]
        tp_topics = sections["tp_topics"].tolist()
        tp_probs = sections["tp_probs"].tolist()
        sem_indptr = sections["sem_indptr"]
        sem_topics = sections["sem_topics"].tolist()
        sem_vals = sections["sem_vals"].tolist()
        wwt_indptr = sections["wwt_indptr"]
        wwt_topics = sections["wwt_topics"].tolist()
        www_indptr = sections["www_indptr"]
        www_words = sections["www_words"].tolist()
        www_sigmas = sections["www_sigmas"].tolist()
        ref_indptr = sections["ref_indptr"]
        refs = sections["refs"].tolist()
        fol_indptr = sections["fol_indptr"]
        fol_rows = sections["fol_rows"].tolist()

        scores: Dict[int, Dict[int, float]] = {}
        activity: Dict[int, int] = {}
        followers: Dict[int, Tuple[int, ...]] = {}
        profiles: Dict[int, ElementProfile] = {}
        follower_rows_seen: Dict[int, int] = {}

        for position, element_id in enumerate(candidate_ids):
            lo, hi = int(sc_indptr[position]), int(sc_indptr[position + 1])
            scores[element_id] = dict(zip(sc_topics[lo:hi], sc_vals[lo:hi]))
            activity[element_id] = int(cand_act[position])

            lo, hi = int(tp_indptr[position]), int(tp_indptr[position + 1])
            topic_probabilities = dict(zip(tp_topics[lo:hi], tp_probs[lo:hi]))
            lo, hi = int(sem_indptr[position]), int(sem_indptr[position + 1])
            semantic_scores = dict(zip(sem_topics[lo:hi], sem_vals[lo:hi]))
            word_weights: Dict[int, Dict[int, float]] = {}
            for pair in range(int(wwt_indptr[position]), int(wwt_indptr[position + 1])):
                lo, hi = int(www_indptr[pair]), int(www_indptr[pair + 1])
                word_weights[wwt_topics[pair]] = dict(
                    zip(www_words[lo:hi], www_sigmas[lo:hi])
                )
            lo, hi = int(ref_indptr[position]), int(ref_indptr[position + 1])
            profiles[element_id] = ElementProfile(
                element_id=element_id,
                timestamp=int(p_ts[position]),
                topic_probabilities=topic_probabilities,
                word_weights=word_weights,
                semantic_scores=semantic_scores,
                references=tuple(refs[lo:hi]),
            )

            lo, hi = int(fol_indptr[position]), int(fol_indptr[position + 1])
            segment = [
                (int(ids_col[row]), row) for row in fol_rows[lo:hi]
            ]
            # The pipe transport exports follower ids sorted; match it so
            # follower iteration (and float accumulation) order is equal.
            segment.sort()
            followers[element_id] = tuple(fid for fid, _ in segment)
            follower_rows_seen.update(segment)

        for follower_id, row in follower_rows_seen.items():
            if follower_id in profiles:
                continue
            profile_row = prof_col[row]
            nonzero = np.nonzero(profile_row)[0]
            profiles[follower_id] = ElementProfile(
                element_id=follower_id,
                timestamp=int(ts_col[row]),
                topic_probabilities={
                    int(topic): float(profile_row[topic]) for topic in nonzero
                },
                word_weights={},
                semantic_scores={},
                references=(),
            )

        return CandidatePool(
            shard_id=shard_id,
            candidate_ids=candidate_ids,
            scores=scores,
            activity=activity,
            followers=followers,
            profiles=profiles,
        )

    # -- the fan-out interface ----------------------------------------------------------

    def ingest(self, routed: Sequence[RoutedBucket], end_time: int) -> None:
        def build() -> List[Optional[Tuple[str, Tuple]]]:
            commands: List[Optional[Tuple[str, Tuple]]] = [None] * len(
                self._connections
            )
            for bucket in routed:
                header = self._write_ingest(bucket)
                commands[bucket.shard_id] = (
                    "ingest",
                    (end_time, bucket.home_count, header),
                )
            return commands

        self._exchange(build)

    def export(
        self, vector: npt.NDArray[np.float64], budget: Optional[int]
    ) -> List[CandidatePool]:
        commands: List[Optional[Tuple[str, Tuple]]] = [
            ("export", (vector, budget)) for _ in self._connections
        ]

        def materialise(headers: List[object]) -> List[object]:
            return [
                self._decode_pool(shard_id, header)  # type: ignore[arg-type]
                for shard_id, header in enumerate(headers)
            ]

        pools = self._exchange(commands, finalize=materialise)
        return pools  # type: ignore[return-value]

    def ingest_shard(self, bucket: RoutedBucket, end_time: int) -> None:
        def build() -> List[Optional[Tuple[str, Tuple]]]:
            commands: List[Optional[Tuple[str, Tuple]]] = [None] * len(
                self._connections
            )
            header = self._write_ingest(bucket)
            commands[bucket.shard_id] = (
                "ingest",
                (end_time, bucket.home_count, header),
            )
            return commands

        self._exchange(build, require_all_alive=False)

    def restore_shard(
        self,
        shard_id: int,
        state,
        owners,
        owner_time: int,
    ) -> None:
        self._shm_request(
            shard_id, "restore", (dict(state), dict(owners), int(owner_time))
        )

    def restore_all(self, states, owners, owner_time: int) -> None:
        if len(states) != self.num_shards:
            raise ValueError(
                f"checkpoint holds {len(states)} shards, the fan-out "
                f"runs {self.num_shards}"
            )
        shared = (dict(owners), int(owner_time))
        commands: List[Optional[Tuple[str, Tuple]]] = [
            ("restore", (dict(state), *shared)) for state in states
        ]
        self._exchange(commands)

    def close(self) -> None:
        already_closed = self._closed
        super().close()
        if not already_closed:
            for arena in self._arenas:
                arena.close(unlink=True)
