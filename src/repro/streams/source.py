"""Stream sources: pluggable raw-event feeds for the ingestion subsystem.

A :class:`StreamSource` is anything iterable over
:class:`~repro.core.element.SocialElement` values **in arrival order** —
which, unlike every other stream surface in the repository, may differ
from event-time order.  The four built-ins below are named
(:func:`create_source` / :func:`source_names`); any other iterable of
elements can be handed to :meth:`~repro.api.engine.KSIREngine.ingest_source`
as an instance.

Built-ins
---------

``memory``
    Replays an in-memory element sequence, optionally with seeded bounded
    disorder injection (:func:`inject_disorder`) and event-time pacing.
``jsonl``
    Replays a JSONL element file (the :mod:`repro.datasets.loaders`
    format) in file order, with the same disorder/pacing options.
``citations``
    A DBLP-style citation feed: paper records (id, year, title,
    references) become elements whose timestamps derive from publication
    years.  Dumps are id-ordered, so event time arrives naturally out of
    order.
``entities``
    A Wikidata-lite-style entity-tagged dump replay: entity records (id,
    modified time, labels, claims, links) become elements tokenised from
    labels and ``property:value`` claim tags, referencing linked
    entities.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.core.element import SocialElement

PathLike = Union[str, Path]
RecordFeed = Union[PathLike, Iterable[Mapping[str, Any]]]


@runtime_checkable
class StreamSource(Protocol):
    """A raw-event feed: iterable over elements in arrival order."""

    def __iter__(self) -> Iterator[SocialElement]:
        """Yield the feed's elements in arrival order."""
        ...


# -- disorder injection ----------------------------------------------------------------


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


def _pace_arrivals(
    elements: Iterable[SocialElement], pace: Optional[float]
) -> Iterator[SocialElement]:
    """Yield elements, sleeping ``pace`` wall-clock seconds per stream unit.

    Pacing follows the *arrival* sequence's timestamps (clamped at zero,
    since a late element does not travel back in time).  ``None`` or
    ``0`` disables pacing.
    """
    if not pace:
        yield from elements
        return
    previous: Optional[int] = None
    for element in elements:
        if previous is not None and element.timestamp > previous:
            time.sleep((element.timestamp - previous) * pace)
        previous = max(previous, element.timestamp) if previous is not None else (
            element.timestamp
        )
        yield element


# -- built-in sources ------------------------------------------------------------------


class MemorySource:
    """Replays an in-memory element sequence, optionally disordered/paced."""

    name = "memory"

    def __init__(
        self,
        elements: Iterable[SocialElement] = (),
        *,
        bucket_length: int = 1,
        disorder: float = 0.0,
        max_delay_buckets: int = 0,
        seed: int = 0,
        pace: Optional[float] = None,
    ) -> None:
        self._elements = list(elements)
        self._bucket_length = int(bucket_length)
        self._disorder = float(disorder)
        self._max_delay_buckets = int(max_delay_buckets)
        self._seed = int(seed)
        self._pace = pace

    def _arrivals(self) -> List[SocialElement]:
        if self._disorder > 0.0 and self._max_delay_buckets > 0:
            return inject_disorder(
                self._elements,
                bucket_length=self._bucket_length,
                max_delay_buckets=self._max_delay_buckets,
                fraction=self._disorder,
                seed=self._seed,
            )
        return sorted(
            self._elements,
            key=lambda element: (element.timestamp, element.element_id),
        )

    def __iter__(self) -> Iterator[SocialElement]:
        return _pace_arrivals(self._arrivals(), self._pace)


class JsonlReplaySource:
    """Replays a JSONL element file (the dataset-loader format).

    Without disorder injection the file is streamed lazily in file order
    (the arrival order the file records); with injection the file is
    materialised first.
    """

    name = "jsonl"

    def __init__(
        self,
        path: PathLike,
        *,
        bucket_length: int = 1,
        disorder: float = 0.0,
        max_delay_buckets: int = 0,
        seed: int = 0,
        pace: Optional[float] = None,
    ) -> None:
        self._path = Path(path)
        self._bucket_length = int(bucket_length)
        self._disorder = float(disorder)
        self._max_delay_buckets = int(max_delay_buckets)
        self._seed = int(seed)
        self._pace = pace

    def _read(self) -> Iterator[SocialElement]:
        with self._path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as error:
                    raise ValueError(
                        f"{self._path}:{line_number}: invalid JSON"
                    ) from error
                try:
                    yield SocialElement.from_dict(payload)
                except (KeyError, TypeError, ValueError) as error:
                    raise ValueError(
                        f"{self._path}:{line_number}: invalid element: {error}"
                    ) from None

    def __iter__(self) -> Iterator[SocialElement]:
        if self._disorder > 0.0 and self._max_delay_buckets > 0:
            arrivals: Iterable[SocialElement] = inject_disorder(
                self._read(),
                bucket_length=self._bucket_length,
                max_delay_buckets=self._max_delay_buckets,
                fraction=self._disorder,
                seed=self._seed,
            )
        else:
            arrivals = self._read()
        return _pace_arrivals(arrivals, self._pace)


def _iter_records(records: RecordFeed, label: str) -> Iterator[Mapping[str, Any]]:
    """Yield mapping records from a JSONL path or an in-memory iterable."""
    if isinstance(records, (str, Path)):
        path = Path(records)
        with path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as error:
                    raise ValueError(f"{path}:{line_number}: invalid JSON") from error
                if not isinstance(payload, Mapping):
                    raise ValueError(
                        f"{path}:{line_number}: expected a JSON object"
                    )
                yield payload
        return
    for index, record in enumerate(records):
        if not isinstance(record, Mapping):
            raise ValueError(f"{label} record {index} is not a mapping")
        yield record


def _tokenise(text: str) -> List[str]:
    """Lower-cased alphanumeric tokens of a free-text field."""
    tokens: List[str] = []
    word: List[str] = []
    for char in text.lower():
        if char.isalnum():
            word.append(char)
        elif word:
            tokens.append("".join(word))
            word = []
    if word:
        tokens.append("".join(word))
    return tokens


class CitationFeedSource:
    """A DBLP-style citation feed adapter.

    Records carry ``id`` (int), ``year`` (int), ``title`` (str) and
    ``references`` (cited paper ids); optional ``venue`` contributes one
    token.  Timestamps place each paper at
    ``(year − base_year) × seconds_per_year`` (plus a deterministic
    intra-year offset derived from the id, so same-year papers do not all
    collapse onto one instant).  Citation dumps are ordered by paper id,
    not publication time, so the feed arrives out of event-time order —
    exactly the workload the reordering buffer absorbs.
    """

    name = "citations"

    def __init__(
        self,
        records: RecordFeed,
        *,
        seconds_per_year: int = 3600,
        base_year: Optional[int] = None,
        pace: Optional[float] = None,
    ) -> None:
        if seconds_per_year <= 0:
            raise ValueError("seconds_per_year must be positive")
        self._records = records
        self._seconds_per_year = int(seconds_per_year)
        self._base_year = base_year
        self._pace = pace

    def _elements(self) -> List[SocialElement]:
        parsed: List[Tuple[int, int, Mapping[str, Any]]] = []
        for record in _iter_records(self._records, "citation"):
            try:
                paper_id = int(record["id"])
                year = int(record["year"])
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(f"invalid citation record: {error}") from None
            parsed.append((paper_id, year, record))
        if not parsed:
            return []
        base_year = (
            min(year for _, year, _ in parsed)
            if self._base_year is None
            else self._base_year
        )
        elements: List[SocialElement] = []
        for paper_id, year, record in parsed:
            offset = paper_id % self._seconds_per_year
            timestamp = (year - base_year) * self._seconds_per_year + offset
            tokens = _tokenise(str(record.get("title", "")))
            venue = record.get("venue")
            if venue:
                tokens.extend(_tokenise(str(venue)))
            references = tuple(
                int(reference) for reference in record.get("references", ())
            )
            elements.append(
                SocialElement(
                    element_id=paper_id,
                    timestamp=timestamp,
                    tokens=tuple(tokens),
                    references=references,
                    text=str(record.get("title", "")) or None,
                )
            )
        return elements

    def __iter__(self) -> Iterator[SocialElement]:
        # Dump order (paper id), not event-time order: the natural
        # disorder of the feed itself.
        return _pace_arrivals(
            sorted(self._elements(), key=lambda element: element.element_id),
            self._pace,
        )


class EntityDumpSource:
    """A Wikidata-lite-style entity-tagged dump replay.

    Records carry ``id`` (int), ``modified`` (int stream-time units),
    ``labels`` (display strings), ``claims`` (``{property: [values]}``,
    emitted as ``property:value`` tags so queries can target structured
    facets) and ``links`` (referenced entity ids).  Dumps are id-ordered,
    so modification times arrive out of order.
    """

    name = "entities"

    def __init__(self, records: RecordFeed, *, pace: Optional[float] = None) -> None:
        self._records = records
        self._pace = pace

    def _elements(self) -> List[SocialElement]:
        elements: List[SocialElement] = []
        for record in _iter_records(self._records, "entity"):
            try:
                entity_id = int(record["id"])
                modified = int(record.get("modified", record.get("ts")))  # type: ignore[arg-type]
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(f"invalid entity record: {error}") from None
            tokens: List[str] = []
            for label in record.get("labels", ()):
                tokens.extend(_tokenise(str(label)))
            claims = record.get("claims", {})
            if isinstance(claims, Mapping):
                for prop in sorted(claims):
                    values = claims[prop]
                    if isinstance(values, (list, tuple)):
                        tokens.extend(
                            f"{prop}:{value}".lower() for value in values
                        )
                    else:
                        tokens.append(f"{prop}:{values}".lower())
            references = tuple(int(link) for link in record.get("links", ()))
            labels = record.get("labels", ())
            elements.append(
                SocialElement(
                    element_id=entity_id,
                    timestamp=modified,
                    tokens=tuple(tokens),
                    references=references,
                    text=str(labels[0]) if labels else None,
                )
            )
        return elements

    def __iter__(self) -> Iterator[SocialElement]:
        return _pace_arrivals(
            sorted(self._elements(), key=lambda element: element.element_id),
            self._pace,
        )


#: The source each canonical name builds.
_SOURCES: Dict[str, Callable[..., StreamSource]] = {
    "memory": MemorySource,
    "jsonl": JsonlReplaySource,
    "citations": CitationFeedSource,
    "entities": EntityDumpSource,
}


def source_names() -> Tuple[str, ...]:
    """The canonical source names, sorted."""
    return tuple(sorted(_SOURCES))


def create_source(name: str, **options: Any) -> StreamSource:
    """Instantiate the source named ``name`` (case-insensitive)."""
    try:
        factory = _SOURCES[name.strip().lower()]
    except KeyError as error:
        raise ValueError(
            f"unknown stream source {name!r}; available: {', '.join(source_names())}"
        ) from error
    return factory(**options)
