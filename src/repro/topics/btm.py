"""Biterm Topic Model (BTM) for short texts, trained by collapsed Gibbs sampling.

The paper trains BTM (Yan et al., WWW 2013) on the Twitter corpus because the
word co-occurrence signal of LDA collapses on very short documents.  BTM
models the generation of unordered word *pairs* (biterms) drawn from the
whole corpus: each biterm picks a topic from a corpus-level mixture, then
both words are drawn from that topic.

Training is collapsed Gibbs sampling over biterm topic assignments:

``P(topic = i | b=(w1, w2)) ∝ (n_i + alpha) *
  (n_{i,w1} + beta)(n_{i,w2} + beta) / (n_i·2 + beta·|V|)^2``

Document-topic inference follows the original paper:
``p(i | d) = Σ_b p(i | b) p(b | d)`` over the biterms of the document.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.topics.model import TopicModel
from repro.topics.vocabulary import Vocabulary
from repro.utils.rng import SeedLike, make_rng


def extract_biterms(word_ids: Sequence[int], window: Optional[int] = None) -> List[Tuple[int, int]]:
    """All unordered word-id pairs of a document (within an optional window).

    Short texts use the whole document as the co-occurrence window, which is
    the BTM default and what we do when ``window`` is ``None``.
    """
    pairs: List[Tuple[int, int]] = []
    n = len(word_ids)
    for left in range(n):
        right_limit = n if window is None else min(n, left + window + 1)
        for right in range(left + 1, right_limit):
            a, b = word_ids[left], word_ids[right]
            if a == b:
                continue
            pairs.append((a, b) if a < b else (b, a))
    return pairs


@dataclass
class BTMTrainingReport:
    """Summary of one BTM training run."""

    iterations: int
    num_biterms: int
    log_likelihood_trace: List[float]


class BitermTopicModel(TopicModel):
    """The Biterm Topic Model with collapsed Gibbs sampling.

    Parameters mirror :class:`repro.topics.lda.LatentDirichletAllocation`;
    ``alpha`` defaults to the paper's ``50 / z`` and ``beta`` to ``0.01``.
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        num_topics: int,
        alpha: Optional[float] = None,
        beta: float = 0.01,
        iterations: int = 100,
        burn_in: int = 20,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(vocabulary, num_topics)
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        if burn_in < 0 or burn_in >= iterations:
            raise ValueError("burn_in must lie in [0, iterations)")
        self.alpha = float(alpha) if alpha is not None else 50.0 / num_topics
        self.beta = float(beta)
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        self.iterations = int(iterations)
        self.burn_in = int(burn_in)
        self._rng = make_rng(seed)
        self._topic_word: Optional[np.ndarray] = None
        self._topic_mixture: Optional[np.ndarray] = None

    # -- training --------------------------------------------------------------

    def fit(self, documents: Sequence[Sequence[str]]) -> BTMTrainingReport:
        """Train on a corpus of token lists and return a training report."""
        vocab_size = len(self._vocabulary)
        z = self._num_topics
        if vocab_size == 0:
            raise ValueError("cannot train BTM with an empty vocabulary")

        biterms: List[Tuple[int, int]] = []
        for tokens in documents:
            word_ids = self._vocabulary.encode(tokens)
            biterms.extend(extract_biterms(word_ids))
        if not biterms:
            raise ValueError(
                "the corpus produced no biterms; documents need >= 2 distinct "
                "in-vocabulary words"
            )

        topic_counts = np.zeros(z, dtype=np.int64)
        topic_word_counts = np.zeros((z, vocab_size), dtype=np.int64)
        assignments = self._rng.integers(0, z, size=len(biterms))
        for (w1, w2), topic in zip(biterms, assignments):
            topic_counts[topic] += 1
            topic_word_counts[topic, w1] += 1
            topic_word_counts[topic, w2] += 1

        accumulated_topic_word = np.zeros((z, vocab_size), dtype=np.float64)
        accumulated_topic = np.zeros(z, dtype=np.float64)
        accumulation_steps = 0
        log_likelihoods: List[float] = []
        beta_sum = self.beta * vocab_size

        for sweep in range(self.iterations):
            for index, (w1, w2) in enumerate(biterms):
                old_topic = assignments[index]
                topic_counts[old_topic] -= 1
                topic_word_counts[old_topic, w1] -= 1
                topic_word_counts[old_topic, w2] -= 1

                denominator = 2.0 * topic_counts + beta_sum
                weights = (
                    (topic_counts + self.alpha)
                    * (topic_word_counts[:, w1] + self.beta)
                    * (topic_word_counts[:, w2] + self.beta)
                    / (denominator * denominator)
                )
                total = weights.sum()
                new_topic = int(
                    np.searchsorted(np.cumsum(weights), self._rng.random() * total)
                )
                if new_topic >= z:
                    new_topic = z - 1

                assignments[index] = new_topic
                topic_counts[new_topic] += 1
                topic_word_counts[new_topic, w1] += 1
                topic_word_counts[new_topic, w2] += 1

            log_likelihoods.append(
                self._joint_log_likelihood(topic_counts, topic_word_counts)
            )
            if sweep >= self.burn_in:
                accumulated_topic_word += topic_word_counts
                accumulated_topic += topic_counts
                accumulation_steps += 1

        if accumulation_steps == 0:
            accumulated_topic_word = topic_word_counts.astype(float)
            accumulated_topic = topic_counts.astype(float)
            accumulation_steps = 1

        topic_word = (accumulated_topic_word / accumulation_steps) + self.beta
        topic_word /= topic_word.sum(axis=1, keepdims=True)
        mixture = (accumulated_topic / accumulation_steps) + self.alpha
        mixture /= mixture.sum()

        self._topic_word = topic_word
        self._topic_mixture = mixture
        return BTMTrainingReport(self.iterations, len(biterms), log_likelihoods)

    def _joint_log_likelihood(
        self, topic_counts: np.ndarray, topic_word_counts: np.ndarray
    ) -> float:
        """Unnormalised joint log-likelihood used to monitor convergence."""
        vocab_size = topic_word_counts.shape[1]
        phi = (topic_word_counts + self.beta) / (
            topic_word_counts.sum(axis=1, keepdims=True) + self.beta * vocab_size
        )
        theta = (topic_counts + self.alpha) / (
            topic_counts.sum() + self.alpha * self._num_topics
        )
        return float(
            np.sum(topic_word_counts * np.log(phi))
            + np.sum(topic_counts * np.log(theta))
        )

    # -- document inference ------------------------------------------------------

    def infer_document(self, tokens: Sequence[str]) -> np.ndarray:
        """Topic mixture of a (short) document via biterm posterior averaging."""
        if self._topic_word is None or self._topic_mixture is None:
            raise RuntimeError("BitermTopicModel has not been fitted yet")
        word_ids = self._vocabulary.encode(tokens)
        biterms = extract_biterms(word_ids)
        z = self._num_topics
        if not biterms:
            # Fall back to single-word posterior, or uniform for empty docs.
            if not word_ids:
                return np.full(z, 1.0 / z)
            posterior = np.zeros(z)
            for word_id in word_ids:
                weights = self._topic_mixture * self._topic_word[:, word_id]
                total = weights.sum()
                if total > 0:
                    posterior += weights / total
            total = posterior.sum()
            return posterior / total if total > 0 else np.full(z, 1.0 / z)

        posterior = np.zeros(z)
        for w1, w2 in biterms:
            weights = (
                self._topic_mixture
                * self._topic_word[:, w1]
                * self._topic_word[:, w2]
            )
            total = weights.sum()
            if total > 0:
                posterior += weights / total
        total = posterior.sum()
        return posterior / total if total > 0 else np.full(z, 1.0 / z)

    # -- oracle interface ----------------------------------------------------------

    @property
    def topic_word_matrix(self) -> np.ndarray:
        if self._topic_word is None:
            raise RuntimeError("BitermTopicModel has not been fitted yet")
        return self._topic_word

    @property
    def topic_mixture(self) -> np.ndarray:
        """The corpus-level topic mixture ``p(i)``."""
        if self._topic_mixture is None:
            raise RuntimeError("BitermTopicModel has not been fitted yet")
        return self._topic_mixture

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._topic_word is not None
