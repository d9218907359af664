"""Configuration of the event-time ingestion subsystem (:mod:`repro.streams`).

Imports nothing but :mod:`repro.utils.config`, so
:class:`~repro.api.config.EngineConfig` can embed a ``streams`` section
without an import cycle.  The window is always the paper's sliding
``W_t``; its length is named in ``processor``, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping

from repro.utils.config import config_from_dict, config_to_dict


@dataclass(frozen=True)
class StreamConfig:
    """Tuning of the raw-event ingest path in front of the bucket boundary.

    Parameters
    ----------
    allowed_lateness:
        Bounded-disorder tolerance in **bucket units**: an element may
        arrive up to ``allowed_lateness × bucket_length`` stream-time
        units after a later-stamped element and still be re-sorted into
        its true bucket.  The watermark trails the event-time high-water
        mark by exactly this horizon, and a bucket is only released to
        the engine once the watermark passes its end time.  ``0`` (the
        default) means in-order input commits each bucket as soon as the
        first later-stamped element arrives — byte-identical to the
        historical pre-bucketed path.
    """

    allowed_lateness: int = 0

    def __post_init__(self) -> None:
        if self.allowed_lateness < 0:
            raise ValueError("allowed_lateness must be >= 0")

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable view (inverse of :meth:`from_dict`)."""
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StreamConfig":
        """Rebuild from :meth:`to_dict` output (missing keys = defaults)."""
        return config_from_dict(cls, payload, "streams")
