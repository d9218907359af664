"""repro.streams — the event-time ingestion subsystem.

Owns the path from raw, possibly out-of-order events to the committed
buckets every execution backend consumes: the four named stream sources
(:mod:`repro.streams.source`), the watermark tracker and bounded
reordering buffer (:mod:`repro.streams.watermark`), the window-policy
seam (re-exported from :mod:`repro.core.window_policy` — sliding,
tumbling and session windows) and the
``streams`` section of the engine configuration
(:mod:`repro.streams.config`).
"""

from repro.core.window_policy import (
    WINDOW_POLICY_CHOICES,
    CutoffTracker,
    SessionCutoff,
    TumblingCutoff,
    WindowPolicy,
)
from repro.streams.config import StreamConfig
from repro.streams.source import (
    CitationFeedSource,
    EntityDumpSource,
    JsonlReplaySource,
    MemorySource,
    StreamSource,
    create_source,
    inject_disorder,
    source_names,
)
from repro.streams.watermark import (
    BucketSink,
    StreamIngestor,
    StreamMetrics,
    WatermarkTracker,
)

__all__ = [
    "WINDOW_POLICY_CHOICES",
    "BucketSink",
    "CitationFeedSource",
    "CutoffTracker",
    "EntityDumpSource",
    "JsonlReplaySource",
    "MemorySource",
    "SessionCutoff",
    "StreamConfig",
    "StreamIngestor",
    "StreamMetrics",
    "StreamSource",
    "TumblingCutoff",
    "WatermarkTracker",
    "WindowPolicy",
    "create_source",
    "inject_disorder",
    "source_names",
]
