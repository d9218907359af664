"""JSON payload (de)serialisation of the serving tier.

One module owns the wire shapes, shared by the ASGI app, the in-process
test client and the load generator: request payloads are validated here
(raising :class:`PayloadError` with a client-worthy message), responses are
built from the library's own ``to_dict`` forms so the HTTP surface can
never drift from the checkpoint format.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.element import SocialElement
from repro.core.query import QueryResult
from repro.service.engine import StandingResult
from repro.service.registry import StandingQuery


class PayloadError(ValueError):
    """A malformed request payload (maps to HTTP 400/422)."""


#: The range of the store's int64 columns, which hold ids and timestamps.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _int64(value: Any, name: str) -> int:
    """``value`` as an integer within int64, or :class:`PayloadError`.

    ``int(inf)`` raises ``OverflowError``, which is not a ``ValueError``,
    and an integer past int64 would reach the store (a far-future
    timestamp seals every empty bucket up to it).  JSON ``true`` is not a
    number, although ``int(True)`` is 1.
    """
    if isinstance(value, bool):
        raise PayloadError(f"'{name}' must be an integer")
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        raise PayloadError(f"'{name}' must be an integer") from None
    if not _INT64_MIN <= number <= _INT64_MAX:
        raise PayloadError(f"'{name}' must be an integer within int64")
    return number


def _element(entry: Any, where: str) -> SocialElement:
    """One element object of a request body, or :class:`PayloadError`."""
    if not isinstance(entry, Mapping):
        raise PayloadError(f"{where} must be a JSON object")
    fields = dict(entry)
    for name in ("element_id", "timestamp"):
        if name in fields:
            fields[name] = _int64(fields[name], f"{where}.{name}")
    try:
        return SocialElement.from_dict(fields)
    except (KeyError, TypeError, ValueError, OverflowError) as error:
        raise PayloadError(f"{where} is invalid: {error}") from None


def require_mapping(payload: Any, where: str) -> Mapping[str, Any]:
    """The payload as a mapping, or :class:`PayloadError`."""
    if not isinstance(payload, Mapping):
        raise PayloadError(f"{where} must be a JSON object")
    return payload


def parse_query_spec(
    payload: Mapping[str, Any], default_k: Optional[int] = None
) -> Tuple[Optional[List[str]], Optional[List[float]], int]:
    """Parse the shared query shape: keywords xor a topic vector, plus k.

    Returns ``(keywords, vector, k)`` with exactly one of the first two
    non-None.
    """
    keywords = payload.get("keywords")
    vector = payload.get("vector")
    if (keywords is None) == (vector is None):
        raise PayloadError("provide exactly one of 'keywords' or 'vector'")
    k_raw = payload.get("k", default_k)
    if k_raw is None:
        raise PayloadError("'k' is required")
    k = _int64(k_raw, "k")
    if k < 1:
        raise PayloadError("'k' must be positive")
    if keywords is not None:
        if (
            not isinstance(keywords, Sequence)
            or isinstance(keywords, (str, bytes))
            or not keywords
            or not all(isinstance(word, str) for word in keywords)
        ):
            raise PayloadError("'keywords' must be a non-empty list of strings")
        return list(keywords), None, k
    if not isinstance(vector, Sequence) or isinstance(vector, (str, bytes)):
        raise PayloadError("'vector' must be a list of numbers")
    try:
        values = [float(value) for value in vector]
    except (TypeError, ValueError):
        raise PayloadError("'vector' must be a list of numbers") from None
    return None, values, k


def parse_registration(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Parse a ``POST /queries`` body into keyword arguments."""
    keywords, vector, k = parse_query_spec(payload)
    options: Dict[str, Any] = {
        "keywords": keywords,
        "vector": vector,
        "k": k,
        "query_id": None,
        "algorithm": None,
        "epsilon": None,
        "ttl_buckets": None,
    }
    if payload.get("query_id") is not None:
        query_id = str(payload["query_id"])
        # ``/queries/{query_id}`` matches one non-empty path segment, so any
        # other id would register a query no route can read or delete.
        if not query_id or "/" in query_id:
            raise PayloadError("'query_id' must be non-empty and contain no '/'")
        options["query_id"] = query_id
    if payload.get("algorithm") is not None:
        options["algorithm"] = str(payload["algorithm"])
    if payload.get("epsilon") is not None:
        try:
            options["epsilon"] = float(payload["epsilon"])
        except (TypeError, ValueError):
            raise PayloadError("'epsilon' must be a number") from None
    if payload.get("ttl_buckets") is not None:
        options["ttl_buckets"] = _int64(payload["ttl_buckets"], "ttl_buckets")
    unknown = set(payload) - {
        "keywords", "vector", "k", "query_id", "algorithm", "epsilon", "ttl_buckets",
    }
    if unknown:
        raise PayloadError(f"unknown fields: {', '.join(sorted(unknown))}")
    return options


def parse_ingest(payload: Mapping[str, Any]) -> Tuple[List[SocialElement], int]:
    """Parse a ``POST /ingest/bucket`` body into elements and end time."""
    if "end_time" not in payload:
        raise PayloadError("'end_time' is required")
    end_time = _int64(payload["end_time"], "end_time")
    raw_elements = payload.get("elements", [])
    if not isinstance(raw_elements, Sequence) or isinstance(raw_elements, (str, bytes)):
        raise PayloadError("'elements' must be a list of element objects")
    elements = [
        _element(entry, f"elements[{index}]") for index, entry in enumerate(raw_elements)
    ]
    return elements, end_time


def parse_events(payload: Mapping[str, Any]) -> Tuple[List[SocialElement], bool]:
    """Parse a ``POST /ingest`` body into raw events plus a flush flag.

    Unlike :func:`parse_ingest` there is no ``end_time``: the events are
    raw, possibly out-of-order arrivals, and bucketing is the engine's
    job (the watermark decides what commits).  ``flush`` (default false)
    asks the engine to seal everything up to the event-time high-water
    mark after accepting the batch — the end-of-stream signal.
    """
    raw_elements = payload.get("events", payload.get("elements"))
    if raw_elements is None:
        raise PayloadError("'events' is required")
    if not isinstance(raw_elements, Sequence) or isinstance(raw_elements, (str, bytes)):
        raise PayloadError("'events' must be a list of element objects")
    elements = [
        _element(entry, f"events[{index}]") for index, entry in enumerate(raw_elements)
    ]
    flush = payload.get("flush", False)
    if not isinstance(flush, bool):
        raise PayloadError("'flush' must be a boolean")
    unknown = set(payload) - {"events", "elements", "flush"}
    if unknown:
        raise PayloadError(f"unknown fields: {', '.join(sorted(unknown))}")
    return elements, flush


# -- response shapes -------------------------------------------------------------------


def element_to_json(element: SocialElement) -> Dict[str, Any]:
    """The wire form of one element (the JSONL stream format)."""
    return dict(element.to_dict())


def result_to_json(result: QueryResult) -> Dict[str, Any]:
    """The wire form of an ad-hoc query result."""
    return dict(result.to_dict())


def standing_to_json(standing: StandingQuery) -> Dict[str, Any]:
    """The wire form of a registered standing query (vector omitted by size)."""
    return {
        "query_id": standing.query_id,
        "k": standing.query.k,
        "keywords": list(standing.query.keywords),
        "topics": list(standing.topics),
        "algorithm": standing.algorithm,
        "epsilon": standing.epsilon,
        "ttl_buckets": standing.ttl_buckets,
        "registered_at_bucket": standing.registered_at_bucket,
    }


def standing_result_to_json(standing_result: StandingResult) -> Dict[str, Any]:
    """The wire form of a cached standing answer with staleness."""
    return {
        "query_id": standing_result.query_id,
        "result": result_to_json(standing_result.result),
        "evaluated_at_bucket": standing_result.evaluated_at_bucket,
        "evaluated_at_time": standing_result.evaluated_at_time,
        "evaluations": standing_result.evaluations,
        "staleness_buckets": standing_result.staleness_buckets,
        "fresh": standing_result.fresh,
    }
