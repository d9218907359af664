"""Stream (de)serialisation: JSONL round-trips for social streams.

Generated (or externally collected) streams can be persisted so experiments
reuse exactly the same data across runs.  The format is one JSON object per
line, matching :meth:`repro.core.element.SocialElement.to_dict`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Union

from repro.core.element import SocialElement
from repro.core.stream import SocialStream

PathLike = Union[str, Path]


def save_stream_jsonl(stream: Union[SocialStream, Iterable[SocialElement]], path: PathLike) -> int:
    """Write a stream to ``path`` as JSONL; returns the number of elements written."""
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with destination.open("w", encoding="utf-8") as handle:
        for element in stream:
            handle.write(json.dumps(element.to_dict(), separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def load_stream_jsonl(path: PathLike, *, expect_sorted: bool = False) -> SocialStream:
    """Read a JSONL stream written by :func:`save_stream_jsonl`.

    Every error names the offending ``file:line``.  By default a file
    whose lines are out of ``(timestamp, element_id)`` order is tolerated
    — the elements are re-inserted at their sorted positions, so the
    result is identical to loading the sorted file.  ``expect_sorted``
    turns such a violation into a :class:`ValueError` instead: use it
    when the file is supposed to be a canonical :func:`save_stream_jsonl`
    artefact and silent re-sorting would hide corruption.  Raw
    arrival-order events go through
    :meth:`repro.api.engine.KSIREngine.ingest` instead, which re-sorts
    them into buckets under a bounded lateness.
    """
    source = Path(path)
    stream = SocialStream()
    previous_key = None
    with source.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{source}:{line_number}: invalid JSON") from error
            try:
                element = SocialElement.from_dict(payload)
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(
                    f"{source}:{line_number}: invalid element: {error}"
                ) from None
            if expect_sorted:
                key = (element.timestamp, element.element_id)
                if previous_key is not None and key < previous_key:
                    raise ValueError(
                        f"{source}:{line_number}: out-of-order element "
                        f"(timestamp {element.timestamp}, id {element.element_id}) "
                        f"after (timestamp {previous_key[0]}, id {previous_key[1]}); "
                        "the stream format is sorted by (timestamp, element_id) — "
                        "load with expect_sorted=False to re-sort tolerated input"
                    )
                previous_key = key
            try:
                stream.append(element)
            except ValueError as error:
                raise ValueError(f"{source}:{line_number}: {error}") from None
    return stream
