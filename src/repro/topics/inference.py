"""Topic inference for unseen documents and for query keyword sets.

The paper's query paradigm (Section 3.2): users provide keywords, the
keywords are treated as a pseudo-document, and the query vector is the
pseudo-document's topic distribution inferred from the trained model.  New
stream elements get their topic vector the same way before entering the
active window (Figure 4's "Topic Inference" box).

Two inference procedures are provided:

* ``method="gibbs"`` — fold-in collapsed Gibbs sampling, holding the
  topic-word matrix fixed and resampling only the document's own topic
  assignments (the standard LDA fold-in, also cited by the paper).
* ``method="expectation"`` — a fast deterministic approximation that
  iterates the mean-field update
  ``q(i | w) ∝ p_i(w) * theta_i`` / ``theta_i ∝ alpha + Σ_w q(i | w)``;
  it is what the stream processor uses by default because it is an order of
  magnitude faster and deterministic, which keeps experiments reproducible.

Inference runs once per sealed bucket: the processor and the cluster
coordinator hand the bucket to :meth:`TopicInferencer.with_topics`, and the
expectation method iterates every document of the batch on one stacked
array.  A single document (a query's keywords) is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.topics.model import TopicModel
from repro.utils.rng import SeedLike, make_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.element import SocialElement


@dataclass
class TopicInferencer:
    """Infers topic distributions for token lists against a trained model.

    :meth:`infer_many` is the one body (:meth:`infer` is a batch of one,
    :meth:`with_topics` a bucket of elements); the vector a document gets
    does not depend on what it was batched with.

    Parameters
    ----------
    model:
        The trained :class:`repro.topics.model.TopicModel` oracle.
    alpha:
        Document-topic Dirichlet prior used during inference; ``None``
        defaults to the paper's ``50 / z``.
    iterations:
        Gibbs sweeps (``method="gibbs"``) or fixed-point iterations
        (``method="expectation"``).
    method:
        ``"expectation"`` (default) or ``"gibbs"``.
    sparsity_threshold:
        Posterior entries below this value are truncated to zero and the
        vector re-normalised.  The paper observes that real elements sit on
        fewer than two topics on average; truncation keeps inferred vectors
        similarly sparse, which is what the ranked lists exploit.
    seed:
        Seed or generator for the Gibbs variant.
    """

    model: TopicModel
    alpha: Optional[float] = None
    iterations: int = 30
    method: str = "expectation"
    sparsity_threshold: float = 0.0
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.method not in ("expectation", "gibbs"):
            raise ValueError("method must be 'expectation' or 'gibbs'")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if not (0.0 <= self.sparsity_threshold < 1.0):
            raise ValueError("sparsity_threshold must lie in [0, 1)")
        self._alpha = (
            float(self.alpha)
            if self.alpha is not None
            else 50.0 / self.model.num_topics
        )
        self._rng = make_rng(self.seed)

    # -- public API -------------------------------------------------------------

    def infer(self, tokens: Sequence[str]) -> np.ndarray:
        """Return the topic distribution of a token list.

        Unknown tokens are ignored.  Empty (or fully out-of-vocabulary)
        documents get the uniform distribution, matching the "no information"
        prior.  This is :meth:`infer_many` on a batch of one.
        """
        return self.infer_many([tokens])[0]

    def infer_many(self, documents: Sequence[Sequence[str]]) -> np.ndarray:
        """The inferred distributions of many documents, one row each.

        The whole batch is one stacked fixed-point iteration (a sealed
        bucket is inferred in one call); a row's bits depend neither on its
        batch mates nor on its position.  ``method="gibbs"`` draws from the
        inferencer's generator one document at a time, in document order.
        """
        z = self.model.num_topics
        encode = self.model.vocabulary.encode
        encoded = [encode(tokens) for tokens in documents]
        distributions = np.full((len(encoded), z), 1.0 / z)
        known = [row for row, word_ids in enumerate(encoded) if word_ids]
        if not known:
            return distributions
        word_ids = [encoded[row] for row in known]
        if self.method == "gibbs":
            inferred = np.array([self._infer_gibbs(ids) for ids in word_ids])
        else:
            inferred = self._infer_expectation(word_ids)
        distributions[known] = self._sparsify(inferred)
        return distributions

    def with_topics(self, elements: Sequence[SocialElement]) -> List[SocialElement]:
        """``elements`` in order, those without a topic distribution inferred.

        One :meth:`infer_many` call covers every element that carries none;
        elements that already carry one pass through untouched, so the call
        is idempotent.
        """
        prepared = list(elements)
        missing = [
            position
            for position, element in enumerate(prepared)
            if element.topic_distribution is None
        ]
        if missing:
            rows = self.infer_many([prepared[position].tokens for position in missing])
            for position, row in zip(missing, rows):
                prepared[position] = prepared[position].with_topic_distribution(row)
        return prepared

    # -- inference procedures ------------------------------------------------------

    def _infer_expectation(self, word_ids: Sequence[Sequence[int]]) -> np.ndarray:
        """Mean-field ``theta`` of every (non-empty) id list, stacked.

        The layout keeps each row bit-identical to iterating that document
        alone: ``phi`` (gathered from the transposed matrix, no copy of it)
        and the work buffer are C-contiguous ``(docs, tokens, z)``, so a
        token's total is NumPy's pairwise sum over the contiguous topic axis
        and ``theta`` accumulates token after token; documents shorter than
        the longest are padded with all-zero tokens, which only add ``+0.0``
        at the tail of that sequential sum.
        """
        z = self.model.num_topics
        lengths = np.array([len(ids) for ids in word_ids])
        padded = np.zeros((len(word_ids), lengths.max()), dtype=np.intp)
        for row, ids in zip(padded, word_ids):
            row[: len(ids)] = ids
        phi = self.model.topic_word_matrix.T[padded]
        phi[np.arange(padded.shape[1]) >= lengths[:, None]] = 0.0
        theta = np.full((len(word_ids), z), 1.0 / z)
        # One C-ordered buffer for the whole iteration: it fixes the
        # reduction layout, and bucket-sized temporaries are what the
        # serving process's heap would otherwise churn 60 times a bucket.
        responsibilities = np.empty(phi.shape)
        for _ in range(self.iterations):
            # responsibilities of each topic for each token
            np.multiply(phi, theta[:, None, :], out=responsibilities)
            token_totals = responsibilities.sum(axis=2, keepdims=True)
            token_totals[token_totals == 0.0] = 1.0
            responsibilities /= token_totals
            theta = self._alpha + responsibilities.sum(axis=1)
            theta /= theta.sum(axis=1, keepdims=True)
        return theta

    def _infer_gibbs(self, word_ids: Sequence[int]) -> np.ndarray:
        phi = self.model.topic_word_matrix
        z = self.model.num_topics
        assignments = self._rng.integers(0, z, size=len(word_ids))
        counts = np.bincount(assignments, minlength=z).astype(float)
        accumulated = np.zeros(z)
        burn_in = max(1, self.iterations // 3)
        for sweep in range(self.iterations):
            for position, word_id in enumerate(word_ids):
                old_topic = assignments[position]
                counts[old_topic] -= 1
                weights = (counts + self._alpha) * phi[:, word_id]
                total = weights.sum()
                if total <= 0:
                    new_topic = int(self._rng.integers(0, z))
                else:
                    new_topic = int(
                        np.searchsorted(np.cumsum(weights), self._rng.random() * total)
                    )
                    if new_topic >= z:
                        new_topic = z - 1
                assignments[position] = new_topic
                counts[new_topic] += 1
            if sweep >= burn_in:
                accumulated += counts
        if accumulated.sum() == 0:
            accumulated = counts
        theta = accumulated + self._alpha
        return theta / theta.sum()

    def _sparsify(self, distributions: np.ndarray) -> np.ndarray:
        """Truncate every row below the threshold and re-normalise it."""
        if self.sparsity_threshold <= 0.0:
            return distributions
        truncated = np.where(distributions >= self.sparsity_threshold, distributions, 0.0)
        totals = truncated.sum(axis=1, keepdims=True)
        emptied = np.flatnonzero(totals[:, 0] <= 0.0)
        if emptied.size:
            # Keep only the single best topic rather than returning zeros.
            truncated[emptied, distributions[emptied].argmax(axis=1)] = 1.0
            totals[emptied] = 1.0
        return truncated / totals


def infer_query_vector(
    model: TopicModel,
    keywords: Sequence[str],
    inferencer: Optional[TopicInferencer] = None,
) -> np.ndarray:
    """Infer a k-SIR query vector from user keywords.

    This is the paper's query-by-keyword transformation: the keywords form a
    pseudo-document whose topic distribution (inferred against ``model``)
    becomes the normalised query vector ``x``.
    """
    if inferencer is None:
        inferencer = TopicInferencer(model)
    return inferencer.infer(list(keywords))


def infer_document_query_vector(
    model: TopicModel,
    document_tokens: Sequence[str],
    inferencer: Optional[TopicInferencer] = None,
) -> np.ndarray:
    """Infer a query vector from a whole document (query-by-document).

    Section 3.2 mentions the query-by-document paradigm of Zhang et al.
    (TOIS 2017): the user supplies a document (e.g. a news article) and wants
    representative social elements about it.  The transformation is the same
    fold-in inference as for keywords, but documented separately because the
    inputs are typically much longer.
    """
    if inferencer is None:
        inferencer = TopicInferencer(model)
    return inferencer.infer(list(document_tokens))


def infer_personalized_vector(
    model: TopicModel,
    recent_documents: Sequence[Sequence[str]],
    inferencer: Optional[TopicInferencer] = None,
    decay: float = 0.8,
) -> np.ndarray:
    """Infer a personalised query vector from a user's recent posts.

    The paper's personalised-search paradigm (Li et al., ICDE 2015) derives
    the query vector from the user's own recent activity.  Each of the user's
    recent documents is inferred independently and the distributions are
    combined with exponential recency weighting (the last document in
    ``recent_documents`` is the most recent and gets weight 1, the one before
    it ``decay``, and so on), then renormalised.
    """
    if not (0.0 < decay <= 1.0):
        raise ValueError("decay must lie in (0, 1]")
    if inferencer is None:
        inferencer = TopicInferencer(model)
    documents = list(recent_documents)
    if not documents:
        return np.full(model.num_topics, 1.0 / model.num_topics)
    combined = np.zeros(model.num_topics)
    weight = 1.0
    for distribution in inferencer.infer_many(documents[::-1]):  # most recent first
        combined += weight * distribution
        weight *= decay
    total = combined.sum()
    if total <= 0.0:
        return np.full(model.num_topics, 1.0 / model.num_topics)
    return combined / total
