"""Array (de)serialisation helpers for checkpointed state.

Window and ranked-list state is checkpointed as NumPy arrays — id
vectors, ``(N, 2)`` pair matrices and CSR ``(parents, indptr,
followers)`` triples — which the checkpoint layer extracts into an
``.npz`` member instead of JSON.  Small id sets that stay in JSON
(``touched_by_expiry``, ``dirty_topics``) are plain lists, so
:func:`decode_id_list` alone accepts both shapes.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Set, Tuple

import numpy as np
import numpy.typing as npt


def encode_id_array(ids: Iterable[int]) -> npt.NDArray[np.int64]:
    """Ascending id vector (the array form of a sorted id list)."""
    return np.asarray(sorted(int(i) for i in ids), dtype=np.int64)


def decode_id_list(value: object) -> List[int]:
    """Id list from either a JSON list or an id vector."""
    if isinstance(value, np.ndarray):
        return [int(i) for i in value.tolist()]
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"an id list must be a list or an array, got {type(value).__name__}")
    return [int(i) for i in value]


def encode_pairs(pairs: Mapping[int, int]) -> npt.NDArray[np.int64]:
    """``(N, 2)`` matrix of ``(id, value)`` rows, ascending by id."""
    ordered = sorted(pairs.items())
    if not ordered:
        return np.zeros((0, 2), dtype=np.int64)
    return np.asarray(ordered, dtype=np.int64)


def decode_pairs(value: object) -> List[Tuple[int, int]]:
    """``(id, value)`` pairs from an ``(N, 2)`` matrix."""
    if not isinstance(value, np.ndarray) or value.ndim != 2 or value.shape[1] != 2:
        raise ValueError(f"pairs must be an (N, 2) array, got {value!r:.80}")
    return [(int(row[0]), int(row[1])) for row in value.tolist()]


def encode_followers_csr(
    followers: Mapping[int, Iterable[int]]
) -> Dict[str, npt.NDArray[np.int64]]:
    """CSR-encode a follower table (parents ascending, segments sorted)."""
    parents = sorted(followers)
    indptr = np.zeros(len(parents) + 1, dtype=np.int64)
    flat: List[int] = []
    for position, parent in enumerate(parents):
        segment = sorted(int(f) for f in followers[parent])
        flat.extend(segment)
        indptr[position + 1] = indptr[position] + len(segment)
    return {
        "parents": np.asarray(parents, dtype=np.int64),
        "indptr": indptr,
        "followers": np.asarray(flat, dtype=np.int64),
    }


def decode_followers(value: object) -> Dict[int, Set[int]]:
    """Follower table from a CSR triple (checked by :func:`_checked_csr`)."""
    arrays = _checked_csr(value, {"parents": np.int64}, {"followers": np.int64})
    parents, indptr, flat = arrays["parents"], arrays["indptr"], arrays["followers"]
    table: Dict[int, Set[int]] = {}
    for position, parent in enumerate(parents.tolist()):
        start, stop = int(indptr[position]), int(indptr[position + 1])
        table[int(parent)] = {int(f) for f in flat[start:stop].tolist()}
    return table


def encode_ranked_entries(
    entries: Iterable[Tuple[int, int, Iterable[Tuple[int, float]]]]
) -> Dict[str, npt.NDArray[Any]]:
    """CSR-encode ``(element_id, activity_time, [(topic, score)…])`` records.

    One slice per element over flat topic/score arrays, in the order given
    (callers pass ascending ids with ascending topics).
    """
    ids: List[int] = []
    activity: List[int] = []
    indptr: List[int] = [0]
    topics: List[int] = []
    scores: List[float] = []
    for element_id, activity_time, pairs in entries:
        ids.append(element_id)
        activity.append(activity_time)
        for topic, score in pairs:
            topics.append(topic)
            scores.append(score)
        indptr.append(len(topics))
    return {
        "ids": np.asarray(ids, dtype=np.int64),
        "activity": np.asarray(activity, dtype=np.int64),
        "indptr": np.asarray(indptr, dtype=np.int64),
        "topics": np.asarray(topics, dtype=np.int64),
        "scores": np.asarray(scores, dtype=np.float64),
    }


def decode_ranked_entries(value: object) -> Iterator[Tuple[int, int, Dict[int, float]]]:
    """Inverse of :func:`encode_ranked_entries`: ``(id, activity, topic → score)``.

    The arrays are checked (:func:`_checked_csr`) before the first entry is
    yielded, so a corrupt member loads nothing.
    """
    arrays = _checked_csr(
        value,
        {"ids": np.int64, "activity": np.int64},
        {"topics": np.int64, "scores": np.float64},
    )
    ids, activity, indptr, topics, scores = (
        arrays[key].tolist() for key in ("ids", "activity", "indptr", "topics", "scores")
    )
    for position, element_id in enumerate(ids):
        start, stop = indptr[position], indptr[position + 1]
        yield (
            int(element_id),
            int(activity[position]),
            {int(t): float(s) for t, s in zip(topics[start:stop], scores[start:stop])},
        )


def _checked_csr(
    value: object, rows: Mapping[str, npt.DTypeLike], flat: Mapping[str, npt.DTypeLike]
) -> Dict[str, npt.NDArray[Any]]:
    """A CSR member's arrays, converted and checked: ``indptr`` starts at 0
    and never decreases, each of ``rows`` has ``len(indptr) − 1`` entries and
    each of ``flat`` ``indptr[-1]``.  Anything else — a slice past the end, a
    short column ``zip`` would truncate — raises :class:`ValueError` naming
    the key instead of dropping entries without a word."""
    if not isinstance(value, Mapping):
        raise ValueError(f"a CSR member must be a mapping, got {type(value).__name__}")
    arrays = {
        key: np.asarray(value[key], dtype=dtype)
        for key, dtype in {"indptr": np.int64, **rows, **flat}.items()
    }
    indptr = arrays["indptr"]
    if indptr.ndim != 1 or len(indptr) == 0 or indptr[0] != 0 or np.any(np.diff(indptr) < 0):
        raise ValueError("CSR 'indptr' must be a vector that starts at 0 and never decreases")
    for key in (*rows, *flat):
        expected = len(indptr) - 1 if key in rows else int(indptr[-1])
        if arrays[key].shape != (expected,):
            raise ValueError(
                f"CSR {key!r} has shape {arrays[key].shape}, 'indptr' implies ({expected},)"
            )
    return arrays
