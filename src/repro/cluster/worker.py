"""The per-shard execution unit: a partition-restricted k-SIR processor.

A :class:`ShardWorker` owns one :class:`~repro.core.processor.KSIRProcessor`
whose home filter restricts ranked-list maintenance to the shard's partition.
The worker's two operations mirror the two halves of the coordinator's
scatter-gather protocol:

* :meth:`ingest` — process one routed bucket (home elements plus the foreign
  replicas whose references point into this partition);
* :meth:`export_candidates` — walk the shard's ranked lists in descending
  ``x_i · δ_i`` order and return a bounded :data:`CandidatePool`: per
  candidate, exactly what the coordinator's objective reads on the query's
  topics (stored ``δ_i``, ``R_i``, ``σ_i`` and the follower edges the shard
  compiled — it sees every follower of its elements), and no profile.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.element import SocialElement
from repro.core.processor import KSIRProcessor, ProcessorConfig
from repro.core.scoring import NO_EDGES, Edges
from repro.topics.inference import TopicInferencer
from repro.topics.model import TopicModel

#: One candidate on one query topic it holds: ``(stored δ_i(e), R_i(e),
#: σ_i(·, e), (follower ids, edges, Σ edges))``.
TopicRecord = Tuple[float, float, Mapping[int, float], Edges]
#: One shard's export for one query: ``element id → (t_e, {topic:
#: TopicRecord})`` over the query's positive-weight topics the candidate
#: holds, in the shard's descending retrieval order.
CandidatePool = Dict[int, Tuple[int, Dict[int, TopicRecord]]]


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
    exports: int = 0
    exported_candidates: int = 0


class ShardWorker:
    """One shard: a home-filtered processor plus the export protocol."""

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
        self._exports = 0
        self._exported_candidates = 0
        # Queries only read the window, so a caller may issue them from
        # several threads at once; the export counters are what they write.
        self._counter_lock = threading.Lock()

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
            exports=self._exports,
            exported_candidates=self._exported_candidates,
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
        self._processor.process_bucket(elements, end_time)

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
            "exports": self._exports,
            "exported_candidates": self._exported_candidates,
            "processor": self._processor.state_dict(),
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot onto this worker."""
        if int(state["shard_id"]) != self._shard_id:
            raise ValueError(
                f"checkpoint shard {state['shard_id']} restored onto shard "
                f"{self._shard_id}"
            )
        self._home_ingested = int(state["home_ingested"])
        self._foreign_ingested = int(state["foreign_ingested"])
        self._exports = int(state["exports"])
        self._exported_candidates = int(state["exported_candidates"])
        self._processor.restore_state(state["processor"])

    # -- gather: candidate export -----------------------------------------------------

    def export_candidates(
        self, query_vector: np.ndarray, budget: Optional[int] = None
    ) -> CandidatePool:
        """Export the shard's top candidates for one query vector.

        ``σ_i`` is the profile's own map and the edges are the memo's tuples:
        referenced, not copied.  Both are read through the processor's
        memoised :meth:`~KSIRProcessor.snapshot`, which shares the
        processor's edge memo: an entry compiled for one query serves every
        later one until a bucket changes the element or its followers.
        """
        index = self._processor.ranked_lists
        context = self._processor.snapshot()
        query_topics = {topic for topic, weight in enumerate(query_vector) if weight > 0.0}
        pool: CandidatePool = {}
        for element_id in index.top_candidates(query_vector, budget):
            profile = context.profile(element_id)
            followed = context.follower_edges(element_id)
            semantic, words = profile.semantic_scores, profile.word_weights
            held: Dict[int, TopicRecord] = {}
            # A home element's tuples sit on exactly its profile's topics.
            for topic in profile.topic_probabilities:
                if topic in query_topics:
                    held[topic] = (
                        index.score(topic, element_id), semantic[topic], words[topic],
                        followed.get(topic, NO_EDGES),
                    )
            pool[element_id] = (index.last_activity(element_id), held)

        with self._counter_lock:
            self._exports += 1
            self._exported_candidates += len(pool)
        return pool
