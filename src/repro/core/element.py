"""The social element data model.

Section 3.1 of the paper: a social element is a triple ``⟨ts, doc, ref⟩`` —
the posting timestamp, the textual content as a bag of words, and the set of
elements it refers to (retweets, citations, comment parents...).  The
reference relation ``e' ∈ e.ref`` means *e' influences e* (``e' ⇝ e``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class SocialElement:
    """An immutable social element ``⟨ts, doc, ref⟩``.

    Parameters
    ----------
    element_id:
        A unique identifier within its stream.  Integer ids keep the indices
        compact, but any hashable value works.
    timestamp:
        The posting time ``e.ts``.  Timestamps are integers in stream time
        units (the paper uses seconds; the synthetic generator uses seconds
        as well).
    tokens:
        ``e.doc`` after preprocessing: the bag of words as an ordered tuple
        (duplicates preserved — word frequency ``γ(w, e)`` matters for the
        semantic weights).
    references:
        ``e.ref``: ids of the elements this element refers to.  Empty for
        original content.
    topic_distribution:
        Optional topic vector ``(p_1(e), ..., p_z(e))``.  When absent, the
        stream processor infers it with the configured topic model at
        ingestion time.
    text:
        Optional raw text, retained for display in examples and reports.
    author:
        Optional author identifier (unused by the objective, handy for
        datasets and baselines such as Sumblr's author PageRank variant).
    """

    element_id: int
    timestamp: int
    tokens: Tuple[str, ...]
    references: Tuple[int, ...] = ()
    topic_distribution: Optional[np.ndarray] = None
    text: Optional[str] = None
    author: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "references", tuple(self.references))
        if self.topic_distribution is not None:
            vector = np.asarray(self.topic_distribution, dtype=float)
            object.__setattr__(self, "topic_distribution", vector)

    # -- derived views -------------------------------------------------------

    @property
    def distinct_words(self) -> Tuple[str, ...]:
        """``V_e``: the distinct words of the document, in first-seen order."""
        seen: Dict[str, None] = {}
        for token in self.tokens:
            seen.setdefault(token, None)
        return tuple(seen)

    @property
    def word_frequencies(self) -> Dict[str, int]:
        """``γ(w, e)`` for every distinct word ``w`` of the document."""
        frequencies: Dict[str, int] = {}
        for token in self.tokens:
            frequencies[token] = frequencies.get(token, 0) + 1
        return frequencies

    @property
    def is_original(self) -> bool:
        """Whether the element refers to nothing (``e.ref = ∅``)."""
        return not self.references

    def with_topic_distribution(self, distribution: np.ndarray) -> "SocialElement":
        """Return a copy carrying the given topic distribution."""
        return SocialElement(
            element_id=self.element_id,
            timestamp=self.timestamp,
            tokens=self.tokens,
            references=self.references,
            topic_distribution=np.asarray(distribution, dtype=float),
            text=self.text,
            author=self.author,
        )

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable dictionary (used by the dataset loaders)."""
        payload: Dict[str, object] = {
            "element_id": self.element_id,
            "timestamp": self.timestamp,
            "tokens": list(self.tokens),
            "references": list(self.references),
        }
        if self.topic_distribution is not None:
            payload["topic_distribution"] = [float(v) for v in self.topic_distribution]
        if self.text is not None:
            payload["text"] = self.text
        if self.author is not None:
            payload["author"] = self.author
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SocialElement":
        """Inverse of :meth:`to_dict`.

        ``tokens`` must be a list of strings: a bare string would otherwise
        be split into its characters.
        """
        distribution = payload.get("topic_distribution")
        tokens = payload.get("tokens", ())
        if isinstance(tokens, str) or not all(isinstance(token, str) for token in tokens):
            raise ValueError("'tokens' must be a list of strings")
        return cls(
            element_id=int(payload["element_id"]),
            timestamp=int(payload["timestamp"]),
            tokens=tuple(tokens),
            references=tuple(int(r) for r in payload.get("references", ())),
            topic_distribution=(
                np.asarray(distribution, dtype=float) if distribution is not None else None
            ),
            text=payload.get("text"),
            author=payload.get("author"),
        )
