"""The per-shard execution unit: a partition-restricted k-SIR processor.

A :class:`ShardWorker` owns one :class:`~repro.core.processor.KSIRProcessor`
whose home filter restricts ranked-list maintenance to the shard's partition.
:meth:`ShardWorker.ingest` processes one routed bucket (home elements plus
the foreign replicas whose references point into this partition) and
remembers which records it changed; :meth:`ShardWorker.sync` ships them to
the coordinator's replica: per home-active element, exactly what the
objective reads (stored ``δ_i``, ``R_i``, ``σ_i`` and the follower edges
the shard compiled — it sees every follower of its elements), no profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core.element import SocialElement
from repro.core.processor import KSIRProcessor, ProcessorConfig
from repro.core.scoring import NO_EDGES, Edges, ScoringContext
from repro.topics.inference import TopicInferencer
from repro.topics.model import TopicModel

#: One element on one topic it holds: ``(stored δ_i(e), R_i(e), σ_i(·, e),
#: (follower ids, edges, Σ edges))``.
TopicRecord = Tuple[float, float, Mapping[int, float], Edges]
#: One element's scoring record: ``(t_e, {topic: TopicRecord})`` over every
#: topic the element holds.
Record = Tuple[int, Dict[int, TopicRecord]]


class ShardDelta(NamedTuple):
    """One shard's reply to :meth:`ShardWorker.sync`: the ``generation`` to
    hand back at the next sync once applied; the :data:`Record` of every
    changed home-active element — of every home-active element when
    ``full`` — and the changed home ids that left ``A_t``."""

    generation: int
    full: bool
    records: Dict[int, Record]
    gone: Tuple[int, ...]


@dataclass
class ShardStats:
    """Lightweight per-shard accounting surfaced by the coordinator."""

    shard_id: int
    home_elements: int = 0
    foreign_elements: int = 0
    buckets: int = 0
    active_home: int = 0
    active_total: int = 0
    ingest_seconds: float = 0.0


class ShardWorker:
    """One shard: a home-filtered processor plus the sync protocol."""

    def __init__(
        self,
        shard_id: int,
        topic_model: TopicModel,
        config: Optional[ProcessorConfig] = None,
        inferencer: Optional[TopicInferencer] = None,
        home_filter: Optional[Callable[[int], bool]] = None,
    ) -> None:
        self._shard_id = int(shard_id)
        self._processor = KSIRProcessor(
            topic_model,
            config,
            inferencer=inferencer,
            home_filter=home_filter,
        )
        self._home_ingested = 0
        self._foreign_ingested = 0
        # Ids whose records buckets changed since the last sync (foreign ids
        # included), and the generation that sync sent (None: the next
        # reply must be a full dump).
        self._changed: Set[int] = set()
        self._sent: Optional[int] = None

    # -- metadata ----------------------------------------------------------------

    @property
    def shard_id(self) -> int:
        """This shard's index."""
        return self._shard_id

    @property
    def processor(self) -> KSIRProcessor:
        """The shard's partition-restricted processor."""
        return self._processor

    @property
    def home_active_count(self) -> int:
        """Active elements owned by this shard."""
        return self._processor.home_count

    def stats(self) -> ShardStats:
        """A snapshot of the shard's accounting counters."""
        return ShardStats(
            shard_id=self._shard_id,
            home_elements=self._home_ingested,
            foreign_elements=self._foreign_ingested,
            buckets=self._processor.buckets_processed,
            active_home=self._processor.home_count,
            active_total=self._processor.active_count,
            ingest_seconds=self._processor.ingest_timer.total_ms / 1000.0,
        )

    # -- scatter: ingestion ---------------------------------------------------------

    def ingest(
        self,
        elements: Sequence[SocialElement],
        end_time: int,
        home_count: Optional[int] = None,
    ) -> None:
        """Process one routed bucket and advance the shard window.

        ``home_count`` is the planner's count of home elements in the bucket
        (used only for accounting; when omitted it is recomputed from the
        processor's home filter).
        """
        if home_count is None:
            home_count = sum(
                1 for e in elements if self._processor.is_home(e.element_id)
            )
        self._home_ingested += home_count
        self._foreign_ingested += len(elements) - home_count
        # Foreign ids too: telling them from home ids waits for the sync.
        self._changed.update(self._processor.process_bucket(elements, end_time))

    def take_dirty_topics(self) -> Tuple[int, ...]:
        """Drain the shard's dirty-topic set (see RankedListIndex)."""
        return self._processor.take_dirty_topics()

    # -- checkpoint state -------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """A JSON-serialisable snapshot of the shard (processor + counters)."""
        return {
            "shard_id": self._shard_id,
            "home_ingested": self._home_ingested,
            "foreign_ingested": self._foreign_ingested,
            "processor": self._processor.state_dict(),
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot onto this worker.

        The next :meth:`sync` is a full dump, whatever generation it is
        handed.  (Checkpoints written when shards exported candidate pools
        also carry export counters; they are ignored.)
        """
        if int(state["shard_id"]) != self._shard_id:
            raise ValueError(
                f"checkpoint shard {state['shard_id']} restored onto shard "
                f"{self._shard_id}"
            )
        self._home_ingested = int(state["home_ingested"])
        self._foreign_ingested = int(state["foreign_ingested"])
        self._processor.restore_state(state["processor"])
        self._changed = set()
        self._sent = None

    # -- gather: the coordinator's replica ----------------------------------------------

    def sync(self, generation: Optional[int]) -> ShardDelta:
        """What the coordinator's replica needs since ``generation``, the
        generation of the last reply it applied.

        When that is the one this worker last sent, the reply is a delta;
        otherwise (first call, a restored or restarted worker, a reply the
        coordinator never applied) a full dump.  Its generation is
        ``generation + 1``: every shard of one gather replies the same.
        ``σ_i`` is the profile's own map, referenced, not copied.
        """
        processor = self._processor
        index, profiles, window = processor.ranked_lists, processor.profiles, processor.window
        full = generation is None or generation != self._sent
        changed = window.active_ids() if full else self._changed
        self._changed, self._sent = set(), (0 if generation is None else generation + 1)
        active = [element_id for element_id in changed if element_id in index]
        gone = tuple(e for e in changed if e not in index and processor.is_home(e))
        # Follower sets in ascending id order, as a snapshot's follower view
        # holds them: the order fixes the last bit of ``Σ edges``.
        context = ScoringContext(profiles, {
            element_id: tuple(sorted(window.followers_of(element_id)))
            for element_id in active
        }, processor.config.scoring, frozen=True)
        records: Dict[int, Record] = {}
        for element_id in active:
            profile = profiles[element_id]
            followed = context.follower_edges(element_id)
            semantic, words = profile.semantic_scores, profile.word_weights
            # A home element's tuples sit on exactly its profile's topics.
            records[element_id] = (index.last_activity(element_id), {
                topic: (
                    index.score(topic, element_id), semantic[topic], words[topic],
                    followed.get(topic, NO_EDGES),
                )
                for topic in profile.topic_probabilities
            })
        return ShardDelta(self._sent, full, records, gone)
