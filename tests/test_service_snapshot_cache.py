"""Focused coverage for per-bucket snapshot sharing and dirty-topic draining.

The serving and cluster layers both lean on these two pieces of bookkeeping:
the processor's snapshot memo must version correctly on ``buckets_processed``
(every standing evaluation of a bucket goes through ``processor.query`` and
shares it; ``snapshot_builds`` counts the builds) and the ranked lists must report dirty topics
across every mutation path — including :meth:`RankedListIndex.clear`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.processor import ProcessorConfig
from repro.core.query import KSIRQuery
from repro.core.ranked_list import RankedListIndex
from repro.core.scoring import ProfileBuilder, ScoringConfig
from tests.conftest import build_processor, build_service_engine


@pytest.fixture()
def fresh_processor(paper_topic_model):
    config = ProcessorConfig(
        window_length=4, bucket_length=1, scoring=ScoringConfig(lambda_weight=0.5, eta=2.0)
    )
    return build_processor(paper_topic_model, config)


class TestSnapshotCache:
    def test_cold_cache_reports_nothing(self, fresh_processor):
        assert fresh_processor.snapshot_builds == 0
        with build_service_engine(fresh_processor) as engine:
            # Adopting a processor and registering a query evaluates nothing.
            engine.register(KSIRQuery(k=2, vector=np.array([1.0, 0.0])))
            assert engine.metrics.evaluations == 0
            assert fresh_processor.snapshot_builds == 0

    def test_miss_then_hits_share_one_context(self, fresh_processor, paper_elements):
        fresh_processor.process_bucket(paper_elements[:3], end_time=3)
        first = fresh_processor.snapshot()
        assert fresh_processor.snapshot_builds == 1
        second = fresh_processor.snapshot()
        third = fresh_processor.snapshot()
        assert second is first and third is first
        assert fresh_processor.snapshot_builds == 1

    def test_new_bucket_invalidates_and_reversions(self, fresh_processor, paper_elements):
        fresh_processor.process_bucket(paper_elements[:3], end_time=3)
        before = fresh_processor.snapshot()
        fresh_processor.process_bucket(paper_elements[3:5], end_time=5)
        after = fresh_processor.snapshot()
        assert after is not before
        assert fresh_processor.snapshot_builds == 2
        # The refreshed context reflects the new window contents; the old
        # one stays frozen.
        assert set(after.active_ids) >= {4, 5}
        assert not {4, 5} & set(before.active_ids)

    def test_snapshot_cache_agrees_with_processor_snapshot(
        self, fresh_processor, paper_elements
    ):
        # Every evaluation of a bucket shares the processor's memoised
        # context: two evaluations, one build, and an ad-hoc query
        # afterwards reuses the same object.
        with build_service_engine(fresh_processor) as engine:
            engine.register(KSIRQuery(k=2, vector=np.array([1.0, 0.0])))
            engine.register(KSIRQuery(k=2, vector=np.array([0.0, 1.0])))
            engine.ingest_bucket(paper_elements[:4], end_time=4)
            assert engine.metrics.evaluations == 2
            assert fresh_processor.snapshot_builds == 1
            context = fresh_processor.snapshot()
            assert fresh_processor.snapshot() is context
            assert fresh_processor.snapshot_builds == 1


class TestTakeDirtyTopicsAfterClear:
    @pytest.fixture()
    def profiled(self, paper_topic_model, paper_elements):
        config = ScoringConfig(lambda_weight=0.5, eta=2.0)
        builder = ProfileBuilder(paper_topic_model, config)
        profiles = [builder.build(element) for element in paper_elements[:3]]
        return config, profiles

    def test_clear_marks_populated_topics_dirty(self, profiled):
        config, profiles = profiled
        index = RankedListIndex(2, config)
        for profile in profiles:
            index.bulk_update(inserts=[(profile, profile.timestamp)])
        populated = {
            topic for topic in range(index.num_topics) if index.list_size(topic) > 0
        }
        index.take_dirty_topics()  # drain the insert dirt
        index.clear()
        assert set(index.take_dirty_topics()) == populated
        assert index.element_count == 0
        assert index.total_tuples() == 0

    def test_clear_on_empty_lists_reports_nothing(self, profiled):
        config, _profiles = profiled
        index = RankedListIndex(2, config)
        index.clear()
        assert index.take_dirty_topics() == ()

    def test_drain_is_destructive_and_rebuildable(self, profiled):
        config, profiles = profiled
        index = RankedListIndex(2, config)
        index.bulk_update(inserts=[(profiles[0], profiles[0].timestamp)])
        first = index.take_dirty_topics()
        assert first == tuple(sorted(profiles[0].topics))
        assert index.take_dirty_topics() == ()
        index.clear()
        index.take_dirty_topics()
        # Rebuilding after clear() dirties the re-inserted topics again.
        index.bulk_update(inserts=[(profiles[1], profiles[1].timestamp)])
        assert index.take_dirty_topics() == tuple(sorted(profiles[1].topics))

    def test_peek_does_not_drain(self, profiled):
        config, profiles = profiled
        index = RankedListIndex(2, config)
        index.bulk_update(inserts=[(profiles[0], profiles[0].timestamp)])
        index.clear()
        peeked = index.peek_dirty_topics()
        assert peeked == index.peek_dirty_topics()
        assert index.take_dirty_topics() == peeked

    def test_remove_after_clear_is_clean(self, profiled):
        config, profiles = profiled
        index = RankedListIndex(2, config)
        index.bulk_update(inserts=[(profiles[0], profiles[0].timestamp)])
        index.clear()
        index.take_dirty_topics()
        # The element is gone; removing it again must not re-dirty topics.
        index.bulk_update(removes=[profiles[0].element_id])
        assert index.take_dirty_topics() == ()

    def test_traversal_after_clear_is_exhausted(self, profiled):
        config, profiles = profiled
        index = RankedListIndex(2, config)
        for profile in profiles:
            index.bulk_update(inserts=[(profile, profile.timestamp)])
        index.clear()
        traversal = index.traversal(np.array([0.5, 0.5]))
        assert traversal.exhausted()
        assert traversal.next_id() is None
