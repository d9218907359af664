"""Latent Dirichlet Allocation trained with collapsed Gibbs sampling.

The paper trains LDA (via PLDA) on the AMiner and Reddit corpora with
Dirichlet priors ``alpha = 50 / z`` and ``beta = 0.01`` (Section 5.1).  This
module provides a from-scratch single-process implementation of the same
model with the same defaults, exposing the trained topic-word matrix through
the :class:`repro.topics.model.TopicModel` oracle interface along with the
per-training-document topic mixtures.

The sampler is the standard collapsed Gibbs sampler (Griffiths & Steyvers):
for each token occurrence with current topic assignment ``t`` we remove it
from the count matrices, compute the full conditional

``P(topic = i) ∝ (n_{d,i} + alpha) * (n_{i,w} + beta) / (n_i + beta * |V|)``

and resample.  Everything is vectorised per token over the topic dimension
with numpy, which keeps laptop-scale corpora (tens of thousands of short
documents) tractable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.topics.model import TopicModel
from repro.topics.vocabulary import Vocabulary
from repro.utils.rng import SeedLike, make_rng


@dataclass
class LDATrainingReport:
    """Summary of one training run (used by tests and examples)."""

    iterations: int
    log_likelihood_trace: List[float]


class LatentDirichletAllocation(TopicModel):
    """LDA with collapsed Gibbs sampling.

    Parameters
    ----------
    vocabulary:
        The working vocabulary; documents are encoded against it, dropping
        out-of-vocabulary tokens.
    num_topics:
        Number of latent topics ``z``.
    alpha:
        Symmetric document-topic Dirichlet prior.  ``None`` uses the paper's
        ``50 / z``.
    beta:
        Symmetric topic-word Dirichlet prior (paper: ``0.01``).
    iterations:
        Number of Gibbs sweeps over the corpus.
    burn_in:
        Sweeps ignored before accumulating the posterior estimate.
    seed:
        Seed or generator controlling the sampler.
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
        self._document_topic: Optional[np.ndarray] = None

    # -- training ------------------------------------------------------------

    def fit(self, documents: Sequence[Sequence[str]]) -> LDATrainingReport:
        """Train on a corpus of token lists and return a training report."""
        encoded = [self._vocabulary.encode(tokens) for tokens in documents]
        num_docs = len(encoded)
        vocab_size = len(self._vocabulary)
        z = self._num_topics
        if vocab_size == 0:
            raise ValueError("cannot train LDA with an empty vocabulary")
        if num_docs == 0:
            raise ValueError("cannot train LDA on an empty corpus")

        doc_topic_counts = np.zeros((num_docs, z), dtype=np.int64)
        topic_word_counts = np.zeros((z, vocab_size), dtype=np.int64)
        topic_counts = np.zeros(z, dtype=np.int64)

        assignments: List[np.ndarray] = []
        for doc_index, word_ids in enumerate(encoded):
            topics = self._rng.integers(0, z, size=len(word_ids))
            assignments.append(topics)
            for word_id, topic in zip(word_ids, topics):
                doc_topic_counts[doc_index, topic] += 1
                topic_word_counts[topic, word_id] += 1
                topic_counts[topic] += 1

        accumulated_topic_word = np.zeros((z, vocab_size), dtype=np.float64)
        accumulated_doc_topic = np.zeros((num_docs, z), dtype=np.float64)
        accumulation_steps = 0
        log_likelihoods: List[float] = []

        beta_sum = self.beta * vocab_size
        for sweep in range(self.iterations):
            for doc_index, word_ids in enumerate(encoded):
                topics = assignments[doc_index]
                doc_counts = doc_topic_counts[doc_index]
                for position, word_id in enumerate(word_ids):
                    old_topic = topics[position]
                    doc_counts[old_topic] -= 1
                    topic_word_counts[old_topic, word_id] -= 1
                    topic_counts[old_topic] -= 1

                    weights = (doc_counts + self.alpha) * (
                        topic_word_counts[:, word_id] + self.beta
                    ) / (topic_counts + beta_sum)
                    total = weights.sum()
                    new_topic = int(
                        np.searchsorted(
                            np.cumsum(weights), self._rng.random() * total
                        )
                    )
                    if new_topic >= z:
                        new_topic = z - 1

                    topics[position] = new_topic
                    doc_counts[new_topic] += 1
                    topic_word_counts[new_topic, word_id] += 1
                    topic_counts[new_topic] += 1

            log_likelihoods.append(
                self._joint_log_likelihood(topic_word_counts, doc_topic_counts)
            )
            if sweep >= self.burn_in:
                accumulated_topic_word += topic_word_counts
                accumulated_doc_topic += doc_topic_counts
                accumulation_steps += 1

        if accumulation_steps == 0:
            accumulated_topic_word = topic_word_counts.astype(float)
            accumulated_doc_topic = doc_topic_counts.astype(float)
            accumulation_steps = 1

        topic_word = (accumulated_topic_word / accumulation_steps) + self.beta
        topic_word /= topic_word.sum(axis=1, keepdims=True)
        doc_topic = (accumulated_doc_topic / accumulation_steps) + self.alpha
        doc_topic /= doc_topic.sum(axis=1, keepdims=True)

        self._topic_word = topic_word
        self._document_topic = doc_topic
        return LDATrainingReport(self.iterations, log_likelihoods)

    def _joint_log_likelihood(
        self, topic_word_counts: np.ndarray, doc_topic_counts: np.ndarray
    ) -> float:
        """Unnormalised joint log-likelihood used to monitor convergence."""
        vocab_size = topic_word_counts.shape[1]
        phi = (topic_word_counts + self.beta) / (
            topic_word_counts.sum(axis=1, keepdims=True) + self.beta * vocab_size
        )
        theta = (doc_topic_counts + self.alpha) / (
            doc_topic_counts.sum(axis=1, keepdims=True)
            + self.alpha * self._num_topics
        )
        return float(
            np.sum(topic_word_counts * np.log(phi))
            + np.sum(doc_topic_counts * np.log(theta))
        )

    # -- oracle interface ------------------------------------------------------

    @property
    def topic_word_matrix(self) -> np.ndarray:
        if self._topic_word is None:
            raise RuntimeError("LatentDirichletAllocation has not been fitted yet")
        return self._topic_word

    @property
    def document_topic_matrix(self) -> np.ndarray:
        """Posterior topic mixtures of the training documents."""
        if self._document_topic is None:
            raise RuntimeError("LatentDirichletAllocation has not been fitted yet")
        return self._document_topic

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._topic_word is not None
