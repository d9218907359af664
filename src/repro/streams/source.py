"""Seeded disorder injection: an arrival order for the event-time ingest path.

:func:`inject_disorder` scrambles an element sequence into an arrival
order whose event-time disorder is bounded, which is what
:meth:`~repro.api.engine.KSIREngine.ingest` must absorb without dropping an
element or changing an answer.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Tuple

from repro.core.element import SocialElement


def inject_disorder(
    elements: Iterable[SocialElement],
    *,
    bucket_length: int,
    max_delay_buckets: int,
    fraction: float = 1.0,
    seed: int = 0,
) -> List[SocialElement]:
    """A seeded arrival order with bounded event-time disorder.

    Each selected element (a ``fraction`` of the stream, chosen by the
    seeded RNG) is displaced to arrive as if delayed by up to
    ``max_delay_buckets × bucket_length`` stream-time units; the rest
    keep their event time as arrival key.  The result is sorted by the
    delayed arrival key (ties broken by event time, then id, so the
    order is deterministic per seed).

    The displacement bound is exactly the contract
    :class:`~repro.streams.watermark.StreamIngestor` needs: ingesting
    the returned sequence with ``allowed_lateness ≥ max_delay_buckets``
    drops nothing and reproduces the in-order buckets bit-for-bit.
    """
    if bucket_length <= 0:
        raise ValueError("bucket_length must be positive")
    if max_delay_buckets < 0:
        raise ValueError("max_delay_buckets must be >= 0")
    if not (0.0 <= fraction <= 1.0):
        raise ValueError("fraction must lie in [0, 1]")
    rng = random.Random(seed)
    horizon = max_delay_buckets * bucket_length
    keyed: List[Tuple[int, int, int, SocialElement]] = []
    ordered = sorted(
        elements, key=lambda element: (element.timestamp, element.element_id)
    )
    for element in ordered:
        delayed = horizon > 0 and (fraction >= 1.0 or rng.random() < fraction)
        delay = rng.randint(1, horizon) if delayed else 0
        keyed.append(
            (element.timestamp + delay, element.timestamp, element.element_id, element)
        )
    keyed.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in keyed]
