"""repro.streams — the event-time ingestion subsystem.

Owns the path from raw, possibly out-of-order events to the committed
buckets the processor or coordinator consumes: the watermark tracker and
bounded reordering buffer (:mod:`repro.streams.watermark`), seeded
disorder injection for replaying a stream out of order
(:mod:`repro.streams.source`) and the ``streams`` section of the engine
configuration (:mod:`repro.streams.config`).  Events enter through
:meth:`~repro.api.engine.KSIREngine.ingest` and
:meth:`~repro.api.engine.KSIREngine.ingest_flush`.
"""

from repro.streams.config import StreamConfig
from repro.streams.source import inject_disorder
from repro.streams.watermark import (
    BucketSink,
    StreamIngestor,
    StreamMetrics,
    WatermarkTracker,
)

__all__ = [
    "BucketSink",
    "StreamConfig",
    "StreamIngestor",
    "StreamMetrics",
    "WatermarkTracker",
    "inject_disorder",
]
