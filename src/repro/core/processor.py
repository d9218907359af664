"""The full k-SIR query-processing architecture (Figure 4 of the paper).

The :class:`KSIRProcessor` ties everything together:

* it consumes a social stream in buckets of length ``L``, inferring topic
  vectors for new elements when they do not carry one;
* it maintains the **active window** (``W_t``, ``A_t`` and the in-window
  follower sets), the per-element **profiles** used by the scoring functions,
  and the per-topic **ranked lists** (Algorithm 1);
* it answers ad-hoc k-SIR queries with any registered algorithm, producing
  :class:`repro.core.query.QueryResult` objects with timing and evaluation
  statistics.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.algorithms import KSIRAlgorithm, resolve_algorithm
from repro.core.element import SocialElement
from repro.core.query import KSIRQuery, QueryResult, require_query_topics
from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import (
    EdgeMemo,
    ElementProfile,
    KSIRObjective,
    ProfileBuilder,
    ScoringConfig,
    ScoringContext,
    TermMemo,
)
from repro.core.stream import SocialStream, replay_stream
from repro.kernels import delta_topic_sums
from repro.store import ColumnarWindow, ElementStore
from repro.topics.inference import TopicInferencer
from repro.topics.model import TopicModel
from repro.utils.timing import StopWatch, TimingStats
from repro.utils.validation import require_forward, require_positive


@dataclass(frozen=True)
class ProcessorConfig:
    """Configuration of the stream processor.

    Parameters
    ----------
    window_length:
        The sliding-window length ``T`` in stream time units (the paper's
        default is 24 hours).
    bucket_length:
        The batch-update period ``L`` (the paper fixes 15 minutes).
    scoring:
        The representativeness scoring parameters (``λ``, ``η``, topic
        threshold).
    default_algorithm:
        Algorithm used by :meth:`KSIRProcessor.query` when none is named.
    default_epsilon:
        ``ε`` used when instantiating ε-parameterised algorithms by name.
    archive_windows:
        How many window lengths of recently seen elements the archive
        retains for reference re-activation (the active-window archive
        horizon is ``archive_windows × window_length``).
    """

    window_length: int = 24 * 3600
    bucket_length: int = 15 * 60
    scoring: ScoringConfig = ScoringConfig()
    default_algorithm: str = "mttd"
    default_epsilon: float = 0.1
    archive_windows: int = 8

    def __post_init__(self) -> None:
        require_positive(self.window_length, "window_length")
        require_positive(self.bucket_length, "bucket_length")
        if self.bucket_length > self.window_length:
            raise ValueError("bucket_length must not exceed window_length")
        require_positive(self.archive_windows, "archive_windows")

    @property
    def archive_horizon(self) -> int:
        """``archive_windows × window_length``: how far back a reference
        can still re-activate its target."""
        return self.archive_windows * self.window_length

    def resolve_algorithm(
        self,
        algorithm: Union[str, KSIRAlgorithm, None],
        epsilon: Optional[float] = None,
    ) -> KSIRAlgorithm:
        """Resolve an algorithm against this configuration's defaults.

        Every execution backend (processor, cluster coordinator, serving
        engine) resolves through here so the default-algorithm and
        default-ε fallbacks stay identical.
        """
        return resolve_algorithm(
            algorithm,
            default_name=self.default_algorithm,
            epsilon=self.default_epsilon if epsilon is None else epsilon,
        )


class KSIRProcessor:
    """Maintains the active window and ranked lists; answers k-SIR queries."""

    def __init__(
        self,
        topic_model: TopicModel,
        config: Optional[ProcessorConfig] = None,
        inferencer: Optional[TopicInferencer] = None,
        home_filter: Optional[Callable[[int], bool]] = None,
    ) -> None:
        self._model = topic_model
        self._config = config or ProcessorConfig()
        self._inferencer = inferencer or TopicInferencer(topic_model)
        # Partition hook used by the sharded execution layer (repro.cluster):
        # elements whose id fails the filter are *foreign* — they are kept in
        # the window and profiled (so the influence scores of home elements
        # stay exact), but they never enter this processor's ranked lists and
        # therefore never surface as candidates from this partition.  The
        # filter must be stable per element id.  ``None`` means every element
        # is home (the single-node behaviour).
        self._home_filter = home_filter
        self._builder = ProfileBuilder(topic_model, self._config.scoring)
        # The hot window state — timestamps, last activity, membership,
        # follower adjacency and the topic-profile matrix — lives on the
        # store's contiguous arrays.
        self._store = ElementStore(topic_model.num_topics)
        self._window = ColumnarWindow(
            self._config.window_length,
            archive_windows=self._config.archive_windows,
            store=self._store,
        )
        self._index = RankedListIndex(topic_model.num_topics, self._config.scoring)
        self._profiles: Dict[int, ElementProfile] = {}
        self._elements_processed = 0
        self._buckets_processed = 0
        self._ingest_timer = TimingStats(name="bucket-ingest")
        # The scoring snapshot of the current window, built on the first
        # query after a bucket or restore and shared by every later one until
        # the window changes (_release_snapshot drops it).
        self._snapshot: Optional[ScoringContext] = None
        self._snapshot_builds = 0
        # Compiled follower edges of active elements that have in-window
        # followers, and every queried element's compiled terms, filled by
        # the snapshots' queries and kept across buckets: process_bucket
        # drops exactly the entries a bucket makes stale (a term is the
        # profile plus those edges; see ScoringContext.terms).
        self._edge_memo: EdgeMemo = {}
        self._term_memo: TermMemo = {}

    # -- metadata -----------------------------------------------------------------

    @property
    def config(self) -> ProcessorConfig:
        """The processor configuration."""
        return self._config

    @property
    def topic_model(self) -> TopicModel:
        """The topic-model oracle in use."""
        return self._model

    @property
    def window(self) -> ColumnarWindow:
        """The live active window (read-mostly; mutate via the processor)."""
        return self._window

    @property
    def store(self) -> ElementStore:
        """The columnar state store backing the window."""
        return self._store

    @property
    def ranked_lists(self) -> RankedListIndex:
        """The per-topic ranked-list index."""
        return self._index

    @property
    def current_time(self) -> Optional[int]:
        """The time of the last processed bucket."""
        return self._window.current_time

    @property
    def active_count(self) -> int:
        """``n_t``: number of currently active elements."""
        return self._window.active_count

    @property
    def elements_processed(self) -> int:
        """Total number of stream elements ingested so far."""
        return self._elements_processed

    @property
    def buckets_processed(self) -> int:
        """Number of buckets ingested so far."""
        return self._buckets_processed

    @property
    def snapshot_builds(self) -> int:
        """How many times :meth:`snapshot` had to build a fresh context."""
        return self._snapshot_builds

    @property
    def home_count(self) -> int:
        """Active elements owned by this processor's partition.

        Equal to :attr:`active_count` for an unpartitioned (single-node)
        processor; for a sharded processor it excludes the foreign replicas
        kept only for exact influence accounting.
        """
        return self._index.element_count

    def is_home(self, element_id: int) -> bool:
        """Whether the element belongs to this processor's partition."""
        return self._home_filter is None or self._home_filter(element_id)

    @property
    def profiles(self) -> Mapping[int, ElementProfile]:
        """The live profile map of ``A_t`` (not a copy)."""
        return self._profiles

    @property
    def ingest_timer(self) -> TimingStats:
        """Per-bucket ingestion times."""
        return self._ingest_timer

    @property
    def update_timer(self) -> TimingStats:
        """Per-element ranked-list maintenance times (Figure 14)."""
        return self._index.update_timer

    # -- stream ingestion ----------------------------------------------------------------

    def process_bucket(self, elements: Sequence[SocialElement], end_time: int) -> List[int]:
        """Ingest one bucket ``B_t`` ending at ``end_time`` (Algorithm 1).

        Elements without a topic distribution are run through topic
        inference first, the whole bucket in one
        :meth:`TopicInferencer.with_topics` call (one stacked iteration, not
        one per element); then the active window, per-element profiles and
        ranked lists are updated and expired elements are evicted, with
        the work restructured around bucket-level batching:

        * profiles of all new elements are built in one
          :meth:`ProfileBuilder.build_many` call (vectorised weights);
        * each parent touched by the bucket has its tuples re-scored
          **once**, against the bucket's final follower sets, instead of
          once per touching follower;
        * ranked-list maintenance is applied through
          :meth:`RankedListIndex.bulk_update`, which groups score
          insertions per topic before list maintenance.

        Element-by-element Algorithm 1 converges to the same final state
        because a parent's last refresh in a bucket already sees every
        follower the bucket added, and activity times combine via ``max``.

        The same enumeration keeps the follower-edge and term memos exact:
        the entries of every element the bucket posts, of every parent it
        touches (new follower, re-posted follower, follower lost to expiry
        or to a re-post) and of every element that leaves ``A_t`` are
        dropped, whoever owns the element — a shard scores its foreign
        replicas from the same memos.  A compiled term is the profile plus
        those edges, so one drop set serves both.  Before the first change
        the processor lets go of the previous window's snapshot, which
        detaches if somebody still holds it, so it stays frozen.
        Returns that enumeration, ids possibly repeated: every element
        whose scoring record the bucket may have changed (what a shard's
        next sync ships).

        An ``end_time`` before the window's current time raises
        ``ValueError`` before anything changes.
        """
        require_forward(self._window.current_time, end_time)
        with self._ingest_timer.measure():
            prepared = self._inferencer.with_topics(elements)
            profiles = self._builder.build_many(prepared)

            self._release_snapshot()
            home_filter = self._home_filter
            profile_map = self._profiles
            edge_memo, term_memo = self._edge_memo, self._term_memo
            changed: List[int] = []
            inserts = []
            touched: Dict[int, int] = {}
            # One bulk row allocation for the bucket, one fancy-indexed
            # write for the bucket's profile rows.
            touched_lists, rows = self._window.insert_many(prepared)
            self._store.set_profiles_bulk(
                rows, [profile.topic_probabilities for profile in profiles]
            )
            for element, profile, touched_parents in zip(
                prepared, profiles, touched_lists
            ):
                element_id = element.element_id
                timestamp = element.timestamp
                profile_map[element_id] = profile
                changed.append(element_id)
                if home_filter is None or home_filter(element_id):
                    inserts.append((profile, timestamp))
                    if self._window.follower_count(element_id):
                        # Re-posted element with live followers: schedule a
                        # refresh so its tuples keep the influence component
                        # (element-by-element: insert, then refresh).
                        previous = touched.get(element_id)
                        if previous is None or previous < timestamp:
                            touched[element_id] = timestamp
                changed.extend(touched_parents)
                for parent_id in touched_parents:
                    if home_filter is not None and not home_filter(parent_id):
                        continue
                    if parent_id not in profile_map:
                        # Re-activated from the archive by this reference:
                        # hold its place in the map now, where the window
                        # put it in A_t (snapshot() iterates the map).
                        profile_map[parent_id] = None
                    previous = touched.get(parent_id)
                    if previous is None or previous < timestamp:
                        touched[parent_id] = timestamp
            self._elements_processed += len(prepared)

            # Places still held (no re-post later in the bucket filled them)
            # need their profiles rebuilt before the parents are re-scored.
            missing = [pid for pid in touched if profile_map[pid] is None]
            rebuilt = self._builder.build_many(
                self._inferencer.with_topics(
                    [self._window.get(pid) for pid in missing]
                )
            )
            for parent_id, parent_profile in zip(missing, rebuilt):
                self._register_profile(parent_id, parent_profile)

            # Influence sums of every touched parent come out of one
            # gather + reduceat over the store's profile matrix instead of
            # per-follower dict accumulation.
            self._index.bulk_update(
                inserts=inserts,
                scored_refreshes=self._columnar_refresh_entries(touched),
            )

            removed = self._window.advance_to(end_time)
            changed.extend(removed)
            removes = []
            for element_id in removed:
                profile_map.pop(element_id, None)
                if home_filter is None or home_filter(element_id):
                    removes.append(element_id)
            expiry_touched = {}
            lost_followers = self._window.take_touched_by_expiry()
            changed.extend(lost_followers)
            for element_id in lost_followers:
                if (
                    home_filter is None or home_filter(element_id)
                ) and element_id in profile_map:
                    expiry_touched[element_id] = self._window.last_activity(element_id)
            if removes or expiry_touched:
                self._index.bulk_update(
                    scored_refreshes=self._columnar_refresh_entries(expiry_touched),
                    removes=removes,
                )
            for element_id in changed:
                edge_memo.pop(element_id, None)
                term_memo.pop(element_id, None)
            self._buckets_processed += 1
        return changed

    def process_stream(
        self,
        stream: Union[SocialStream, Iterable[SocialElement]],
        until: Optional[int] = None,
    ) -> None:
        """Replay a whole stream (or until time ``until``) through the processor."""
        replay_stream(stream, self._config.bucket_length, self.process_bucket, until)

    def _register_profile(self, element_id: int, profile: ElementProfile) -> None:
        """Cache a profile and mirror its probabilities into the store."""
        self._profiles[element_id] = profile
        row = self._store.get_row(element_id)
        if row is not None:
            self._store.set_profile(row, profile.topic_probabilities)

    def _columnar_refresh_entries(
        self, touched: Mapping[int, int]
    ) -> list:
        """Batched ``δ_i`` recomputation over the store's profile matrix.

        For every touched parent, the per-topic follower-probability sums
        ``Σ_{e ∈ I_t(parent)} p_i(e)`` come out of the ``delta_topic_sums``
        kernel — one gather + segmented reduce over the store's
        ``P[rows, z]`` matrix, each parent's followers in ascending id order
        (:meth:`ElementStore.followers_concat`), so a shard and a single
        node store the same bits for one follower set; the sparse per-topic
        score maps are then assembled in the profile's topic order.  Returns
        ``(element_id, topic → δ_i(e), activity_time)`` triples for
        :meth:`RankedListIndex.bulk_update`'s ``scored_refreshes``.
        """
        if not touched:
            return []
        store = self._store
        parent_ids = list(touched)
        rows = store.rows_of(parent_ids)
        indices, counts = store.followers_concat(rows)
        sums = delta_topic_sums(store.profile_matrix, indices, counts)
        scoring = self._config.scoring
        lambda_weight = scoring.lambda_weight
        influence_weight = scoring.influence_weight
        entries = []
        for position, parent_id in enumerate(parent_ids):
            profile = self._profiles[parent_id]
            row_sums = sums[position]
            probabilities = profile.topic_probabilities
            scores = {
                topic: lambda_weight * semantic
                + influence_weight * (probabilities[topic] * float(row_sums[topic]))
                for topic, semantic in profile.semantic_scores.items()
            }
            entries.append((parent_id, scores, touched[parent_id]))
        return entries

    def _release_snapshot(self) -> None:
        """Drop the processor's reference to its snapshot before the window
        changes; a snapshot somebody else still holds detaches (copies the
        profile map and the follower view it reads), any other is simply
        gone.  A snapshot nobody holds costs nothing here."""
        if self._snapshot is not None:
            held = weakref.ref(self._snapshot)
            self._snapshot = None
            context = held()
            if context is not None:
                context.detach()

    def take_dirty_topics(self) -> Tuple[int, ...]:
        """Drain the topics whose ranked lists changed since the last drain."""
        return self._index.take_dirty_topics()

    # -- query processing ----------------------------------------------------------------------

    def snapshot(self) -> ScoringContext:
        """A frozen scoring snapshot of the current active window.

        Memoised per window: until the next bucket or restore, every query
        shares one context (immutable by contract), built on the first
        call.

        Both inputs are state Algorithm 1 already maintains per bucket — the
        profile map and the window's sparse follower view — and the context
        reads them live: building one copies nothing and re-derives nothing
        from the window.  The follower-edge and term memos are shared too:
        their entries are exact for the current window (:meth:`process_bucket`
        dropped the others) and every query on the context fills in what is
        missing.  Before the window changes, :meth:`process_bucket` and
        :meth:`restore_state` drop the processor's reference; if somebody
        else still holds the context it detaches then, copying the two maps
        once, so a held snapshot stays frozen.  Ingest and queries must not
        overlap (the engine's callers serialise them).
        Profiles are registered where the window activates their elements,
        so the map, and with it ``context.active_ids`` (which the batch
        algorithms enumerate), iterates in ``window.active_ids()`` order.
        Only a shard's home-filtered processor can depart from it (a re-post
        of a foreign id it held as a profile-less re-activated precedent);
        a shard reads its snapshot for profiles and follower edges, never
        for ``active_ids``.
        """
        context = self._snapshot
        if context is None:
            context = self._snapshot = ScoringContext(
                profiles=self._profiles,
                followers=self._window.follower_view(),
                config=self._config.scoring,
                time=self._window.current_time,
                frozen=True,
                edges=self._edge_memo,
                compiled=self._term_memo,
            )
            self._snapshot_builds += 1
        return context

    def objective(self, query_vector: np.ndarray) -> KSIRObjective:
        """A k-SIR objective bound to the current window and ``query_vector``."""
        return KSIRObjective(self.snapshot(), query_vector)

    def query(
        self,
        query: Union[KSIRQuery, np.ndarray, Sequence[float]],
        k: Optional[int] = None,
        algorithm: Union[str, KSIRAlgorithm, None] = None,
        epsilon: Optional[float] = None,
    ) -> QueryResult:
        """Answer a k-SIR query against the current window.

        ``query`` may be a :class:`KSIRQuery` or a raw query vector (in which
        case ``k`` must be given).  ``algorithm`` is an algorithm instance or
        a registry name ("mttd", "mtts", "celf", "sieve", "topk", "greedy").
        A query vector must have one entry per topic of the model.
        """
        ksir_query = KSIRQuery.coerce(query, k)
        require_query_topics(ksir_query, self._model.num_topics)
        solver = self._config.resolve_algorithm(algorithm, epsilon)
        objective = self.objective(ksir_query.vector)

        watch = StopWatch()
        watch.start()
        outcome = solver.select(
            objective,
            ksir_query.k,
            index=self._index if solver.requires_index else None,
        )
        elapsed = watch.stop()

        return QueryResult(
            element_ids=outcome.element_ids,
            score=outcome.value,
            algorithm=solver.name,
            elapsed_ms=elapsed * 1000.0,
            evaluated_elements=outcome.evaluated_elements,
            active_elements=objective.context.active_count,
            extras=dict(outcome.extras),
        )

    def result_elements(self, result: QueryResult) -> Sequence[SocialElement]:
        """Materialise the :class:`SocialElement` objects of a query result."""
        return tuple(self._window.get(element_id) for element_id in result.element_ids)

    # -- checkpoint state --------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """A JSON-serialisable snapshot sufficient to resume ingest mid-stream.

        Captures the active window (elements included — they carry their
        inferred topic distributions) and the ranked lists verbatim, plus
        the stream counters.  Element profiles are *not* serialised: they
        are a pure function of the archived elements, the topic model and
        the scoring configuration, so :meth:`restore_state` rebuilds them
        bit-exactly through the profile builder.  Timing statistics are
        ephemeral measurement state and start fresh after a restore.
        """
        return {
            "elements_processed": self._elements_processed,
            "buckets_processed": self._buckets_processed,
            "window": self._window.state_dict(),
            "ranked_lists": self._index.state_dict(),
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot onto this processor.

        The processor must have been constructed with an equivalent
        configuration and topic model (the checkpoint layer persists both
        alongside the state).  Home filters are intentionally *not* part of
        the state: a sharded restore re-installs them at construction.  A
        snapshot of the replaced window that somebody still holds detaches
        first, so it keeps answering for that window.
        """
        self._release_snapshot()
        self._elements_processed = int(state["elements_processed"])
        self._buckets_processed = int(state["buckets_processed"])
        self._window.restore_state(state["window"])
        self._index.restore_state(state["ranked_lists"])
        self._edge_memo, self._term_memo = {}, {}
        # Registered in A_t order: snapshot() iterates the map as it stands.
        active = list(self._window.active_elements())
        self._profiles = {}
        for element, profile in zip(active, self._builder.build_many(active)):
            self._register_profile(element.element_id, profile)
