"""Query and result types for k-SIR processing.

A :class:`KSIRQuery` bundles the result-size bound ``k`` and the query vector
``x`` (optionally remembering the raw keywords it was inferred from and the
time it should be evaluated at).  A :class:`QueryResult` carries the selected
elements, their representativeness score and the execution statistics the
experiment harness aggregates (query time, evaluated elements, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.validation import require_positive


@dataclass(frozen=True)
class KSIRQuery:
    """A k-SIR query ``q_t(k, x)``.

    Parameters
    ----------
    k:
        Maximum result size (``|S| ≤ k``).
    vector:
        The query vector ``x`` over topics; it is validated to be finite
        and non-negative and normalised to sum to one (the paper's convention)
        unless it sums to zero, which is rejected.
    time:
        Optional query timestamp; ``None`` means "the processor's current
        time" (ad-hoc queries issued against the live window).
    keywords:
        Optional raw keywords the vector was inferred from (kept for
        reporting and for the keyword-based baselines).
    """

    k: int
    vector: np.ndarray
    time: Optional[int] = None
    keywords: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        require_positive(self.k, "k")
        vector = np.asarray(self.vector, dtype=float)
        if vector.ndim != 1:
            raise ValueError("query vector must be one-dimensional")
        if not np.isfinite(vector).all():
            raise ValueError("query vector entries must be finite")
        if np.any(vector < 0):
            raise ValueError("query vector entries must be non-negative")
        total = float(vector.sum())
        if total <= 0.0:
            raise ValueError("query vector must have positive mass")
        object.__setattr__(self, "vector", vector / total)
        object.__setattr__(self, "keywords", tuple(self.keywords))

    @classmethod
    def coerce(
        cls,
        query: Union["KSIRQuery", np.ndarray, Sequence[float]],
        k: Optional[int] = None,
    ) -> "KSIRQuery":
        """Normalise a query argument: pass instances through, wrap vectors.

        Raw vectors require ``k``; every query-accepting surface (processor,
        cluster coordinator) shares this coercion.
        """
        if isinstance(query, KSIRQuery):
            return query
        if k is None:
            raise ValueError("k must be provided when passing a raw query vector")
        return cls(k=k, vector=np.asarray(query, dtype=float))

    @property
    def num_topics(self) -> int:
        """Dimensionality ``z`` of the query vector."""
        return int(self.vector.shape[0])

    @property
    def nonzero_topics(self) -> Tuple[int, ...]:
        """Indices of topics with positive interest (``d`` of them)."""
        return tuple(int(i) for i in np.nonzero(self.vector > 0.0)[0])

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable dictionary (used by the checkpoint layer)."""
        return {
            "k": self.k,
            "vector": [float(value) for value in self.vector],
            "time": self.time,
            "keywords": list(self.keywords),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "KSIRQuery":
        """Inverse of :meth:`to_dict`."""
        time = payload.get("time")
        return cls(
            k=int(payload["k"]),
            vector=np.asarray(payload["vector"], dtype=float),
            time=None if time is None else int(time),
            keywords=tuple(str(word) for word in payload.get("keywords", ())),
        )


def require_query_topics(query: KSIRQuery, num_topics: int) -> None:
    """Reject a query whose vector does not hold one entry per topic of a
    ``num_topics``-topic model (``ValueError``), whatever the algorithm."""
    if query.num_topics != num_topics:
        raise ValueError(
            f"query vector has {query.num_topics} topics, the processor's "
            f"model has {num_topics}"
        )


@dataclass
class QueryResult:
    """The outcome of processing one k-SIR query with one algorithm.

    Attributes
    ----------
    element_ids:
        The selected elements in selection order (``|S| ≤ k``).
    score:
        ``f(S, x)`` of the returned set.
    algorithm:
        Name of the algorithm that produced the result.
    elapsed_ms:
        Wall-clock processing time in milliseconds.
    evaluated_elements:
        Number of distinct active elements whose score was evaluated.
    active_elements:
        ``n_t`` at query time, so ``evaluated_elements / active_elements`` is
        the ratio plotted in Figure 10.
    extras:
        Algorithm-specific counters (candidates kept, rounds, buffer size...).
    """

    element_ids: Tuple[int, ...]
    score: float
    algorithm: str
    elapsed_ms: float = 0.0
    evaluated_elements: int = 0
    active_elements: int = 0
    extras: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.element_ids = tuple(self.element_ids)

    def __len__(self) -> int:
        return len(self.element_ids)

    def __iter__(self):
        return iter(self.element_ids)

    @property
    def evaluation_ratio(self) -> float:
        """Fraction of active elements evaluated (0.0 when the window is empty)."""
        if self.active_elements <= 0:
            return 0.0
        return self.evaluated_elements / self.active_elements

    def summary(self) -> str:
        """One-line human-readable description."""
        return (
            f"{self.algorithm}: |S|={len(self.element_ids)} score={self.score:.4f} "
            f"time={self.elapsed_ms:.2f}ms evaluated={self.evaluated_elements}"
            f"/{self.active_elements}"
        )

    def copy(self) -> "QueryResult":
        """An independent copy (own ``extras`` dict).

        The serving layer hands result objects across its cache boundary
        through here, so callers can never mutate cached state.
        """
        return QueryResult(
            element_ids=self.element_ids,
            score=self.score,
            algorithm=self.algorithm,
            elapsed_ms=self.elapsed_ms,
            evaluated_elements=self.evaluated_elements,
            active_elements=self.active_elements,
            extras=dict(self.extras),
        )

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable dictionary (used by the checkpoint layer)."""
        return {
            "element_ids": list(self.element_ids),
            "score": float(self.score),
            "algorithm": self.algorithm,
            "elapsed_ms": float(self.elapsed_ms),
            "evaluated_elements": int(self.evaluated_elements),
            "active_elements": int(self.active_elements),
            "extras": {str(key): float(value) for key, value in self.extras.items()},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "QueryResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            element_ids=tuple(int(eid) for eid in payload["element_ids"]),
            score=float(payload["score"]),
            algorithm=str(payload["algorithm"]),
            elapsed_ms=float(payload.get("elapsed_ms", 0.0)),
            evaluated_elements=int(payload.get("evaluated_elements", 0)),
            active_elements=int(payload.get("active_elements", 0)),
            extras=dict(payload.get("extras", {})),
        )
