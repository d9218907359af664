"""A bucket inferred as one stacked iteration equals one document at a time.

``TopicInferencer.infer_many`` runs the mean-field update of a whole batch on
one ``(docs, tokens, z)`` array.  Every comparison with the per-document
reference (:func:`tests.oracle.reference_infer`) is ``==`` on the floats: the
stacked layout is built so that NumPy reduces in the reference's order —
pairwise over the contiguous topic axis, token after token for ``theta`` —
and a padded token only adds ``+0.0`` at the tail.  The test therefore
depends on NumPy's reduction order *by design*; it carries no environment
skip, and a leg where it fails has found a NumPy whose order differs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.element import SocialElement
from repro.topics.inference import TopicInferencer, infer_personalized_vector
from repro.topics.model import MatrixTopicModel
from repro.topics.vocabulary import Vocabulary
from tests.oracle import reference_infer

#: Out-of-vocabulary tokens a document may carry.
UNKNOWN = ("zzz", "qqq")


def build_model(seed, num_topics, vocab_size, layout, zero_columns):
    """A topic model whose matrix has the asked memory layout."""
    rng = np.random.default_rng(seed)
    matrix = rng.dirichlet(np.full(vocab_size, 0.2), size=num_topics)
    matrix[:, list(zero_columns)] = 0.0  # words no topic emits
    if layout == "F":
        matrix = np.asfortranarray(matrix)
    elif layout == "strided":
        wide = np.zeros((num_topics, 2 * vocab_size))
        wide[:, ::2] = matrix
        matrix = wide[:, ::2]
    vocabulary = Vocabulary([f"w{i}" for i in range(vocab_size)])
    return MatrixTopicModel(vocabulary, matrix, normalize=False)


@st.composite
def documents(draw, vocab_size):
    """Empty, all-unknown, repeated-token and long documents, mixed."""
    words = [f"w{i}" for i in range(vocab_size)]
    kind = draw(st.sampled_from(["empty", "unknown", "repeated", "short", "long"]))
    if kind == "empty":
        return []
    if kind == "unknown":
        return draw(st.lists(st.sampled_from(UNKNOWN), min_size=1, max_size=4))
    if kind == "repeated":
        return [draw(st.sampled_from(words))] * draw(st.integers(1, 40))
    # Lengths 1-200 cross NumPy's 8- and 128-element pairwise blocks.
    length = draw(st.integers(1, 20) if kind == "short" else st.integers(1, 200))
    seed = draw(st.integers(0, 2**16))
    picks = np.random.default_rng(seed).integers(0, vocab_size + 1, size=length)
    return [words[p] if p < vocab_size else UNKNOWN[0] for p in picks]


@st.composite
def cases(draw):
    num_topics = draw(st.sampled_from([1, 2, 5, 8, 9, 50, 130]))
    vocab_size = draw(st.integers(1, 30))
    model = build_model(
        draw(st.integers(0, 1000)),
        num_topics,
        vocab_size,
        draw(st.sampled_from(["C", "F", "strided"])),
        draw(st.sets(st.integers(0, vocab_size - 1), max_size=3)),
    )
    settings_ = dict(
        alpha=draw(st.sampled_from([None, 0.05, 1.0])),
        iterations=draw(st.sampled_from([1, 3, 30])),
        sparsity_threshold=draw(st.sampled_from([0.0, 0.0, 0.05, 0.3, 0.9])),
    )
    batch = draw(st.lists(documents(vocab_size), min_size=0, max_size=8))
    return model, settings_, batch


class TestStackedIterationEqualsReference:
    @given(case=cases())
    @settings(max_examples=300, deadline=None)
    def test_every_row_has_the_reference_bits(self, case):
        model, options, batch = case
        stacked = TopicInferencer(model, **options).infer_many(batch)
        assert stacked.shape == (len(batch), model.num_topics)
        for row, tokens in zip(stacked, batch):
            expected = reference_infer(model, tokens, **options)
            assert row.tolist() == expected.tolist()

    @given(case=cases(), order_seed=st.integers(0, 100))
    @settings(max_examples=100, deadline=None)
    def test_a_row_depends_on_neither_mates_nor_position(self, case, order_seed):
        model, options, batch = case
        inferencer = TopicInferencer(model, **options)
        together = inferencer.infer_many(batch)
        order = np.random.default_rng(order_seed).permutation(len(batch))
        shuffled = inferencer.infer_many([batch[i] for i in order])
        for position, source in enumerate(order):
            assert shuffled[position].tolist() == together[source].tolist()
        for row, tokens in zip(together, batch):
            assert inferencer.infer(tokens).tolist() == row.tolist()
            assert inferencer.infer_many([tokens, tokens])[1].tolist() == row.tolist()

    def test_benchmark_shaped_bucket(self):
        """z = 50, 25 short documents, the serve path's inference settings."""
        model = build_model(3, 50, 400, "C", ())
        rng = np.random.default_rng(4)
        bucket = [
            [f"w{i}" for i in rng.integers(0, 400, size=int(length))]
            for length in rng.integers(1, 14, size=25)
        ]
        options = dict(alpha=0.05, sparsity_threshold=0.05)
        stacked = TopicInferencer(model, **options).infer_many(bucket)
        for row, tokens in zip(stacked, bucket):
            assert row.tolist() == reference_infer(model, tokens, **options).tolist()

    def test_the_three_layouts_are_three_layouts(self):
        flags = {
            layout: build_model(0, 5, 12, layout, ()).topic_word_matrix.flags
            for layout in ("C", "F", "strided")
        }
        assert flags["C"].c_contiguous and not flags["C"].f_contiguous
        assert flags["F"].f_contiguous and not flags["F"].c_contiguous
        assert not flags["strided"].c_contiguous and not flags["strided"].f_contiguous

    def test_zeroing_the_pad_tokens_leaves_the_matrix_alone(self):
        model = build_model(0, 5, 12, "C", ())
        before = model.topic_word_matrix.copy()
        TopicInferencer(model).infer_many([["w1", "w2"], ["w0"], ["w3", "w0", "w0"]])
        assert (model.topic_word_matrix == before).all()


class TestDegenerateBatches:
    def test_no_documents_is_an_empty_matrix(self, paper_topic_model):
        for method in ("expectation", "gibbs"):
            out = TopicInferencer(paper_topic_model, method=method).infer_many([])
            assert out.shape == (0, paper_topic_model.num_topics)

    @pytest.mark.parametrize("method", ["expectation", "gibbs"])
    def test_nothing_known_never_enters_the_iteration(
        self, paper_topic_model, method, monkeypatch
    ):
        inferencer = TopicInferencer(
            paper_topic_model, method=method, sparsity_threshold=0.9, seed=1
        )

        def unreachable(*args):
            raise AssertionError("iterated over a batch with no known token")

        monkeypatch.setattr(TopicInferencer, "_infer_expectation", unreachable)
        monkeypatch.setattr(TopicInferencer, "_infer_gibbs", unreachable)
        out = inferencer.infer_many([[], ["zzz"], ["qqq", "zzz"]])
        # Uniform rows, not sparsified (0.5 < 0.9 would have emptied them).
        assert out.tolist() == [[0.5, 0.5]] * 3
        assert inferencer.infer([]).tolist() == [0.5, 0.5]

    def test_sparsify_keeps_the_best_topic_of_an_emptied_row(self):
        model = build_model(1, 50, 20, "C", ())
        options = dict(alpha=5.0, sparsity_threshold=0.5)  # prior flattens theta
        batch = [["w1"], ["w2", "w3"], []]
        out = TopicInferencer(model, **options).infer_many(batch)
        assert sorted(out[0].tolist())[-2:] == [0.0, 1.0]
        for row, tokens in zip(out, batch):
            assert row.tolist() == reference_infer(model, tokens, **options).tolist()


class TestGibbsDrawsInDocumentOrder:
    @given(seed=st.integers(0, 50), case=cases())
    @settings(max_examples=25, deadline=None)
    def test_batch_equals_sequential_calls_from_the_same_seed(self, seed, case):
        model, options, batch = case
        options = dict(options, iterations=3, method="gibbs")
        batch = [tokens[:12] for tokens in batch]
        together = TopicInferencer(model, seed=seed, **options).infer_many(batch)
        sequential = TopicInferencer(model, seed=seed, **options)
        for row, tokens in zip(together, batch):
            assert row.tolist() == sequential.infer(tokens).tolist()

    def test_personalized_vector_draws_most_recent_first(self, paper_topic_model):
        posts = [["pl", "champion"], ["lebron", "cavs"], ["manutd"]]
        ours = infer_personalized_vector(
            paper_topic_model,
            posts,
            inferencer=TopicInferencer(paper_topic_model, method="gibbs", seed=9),
        )
        inferencer = TopicInferencer(paper_topic_model, method="gibbs", seed=9)
        combined, weight = np.zeros(2), 1.0
        for tokens in reversed(posts):
            combined += weight * inferencer.infer(tokens)
            weight *= 0.8
        assert ours.tolist() == (combined / combined.sum()).tolist()


class TestWithTopics:
    def elements(self):
        given_vector = np.array([0.25, 0.75])
        return [
            SocialElement(1, 1, ("lebron", "cavs")),
            SocialElement(2, 2, ("pl",), topic_distribution=given_vector),
            SocialElement(3, 3, ()),
            SocialElement(4, 4, ("champion", "zzz", "champion")),
        ]

    def test_order_kept_and_inferred_elements_untouched(self, paper_topic_model):
        inferencer = TopicInferencer(paper_topic_model, alpha=0.05)
        elements = self.elements()
        prepared = inferencer.with_topics(elements)
        assert [e.element_id for e in prepared] == [1, 2, 3, 4]
        assert prepared[1] is elements[1]
        for before, after in zip(elements, prepared):
            if before is after:
                continue
            expected = reference_infer(paper_topic_model, before.tokens, alpha=0.05)
            assert after.topic_distribution.tolist() == expected.tolist()
            assert (after.tokens, after.timestamp) == (before.tokens, before.timestamp)
        assert elements[0].topic_distribution is None  # the input is not modified
        again = inferencer.with_topics(prepared)
        assert all(a is b for a, b in zip(again, prepared))  # idempotent

    def test_one_call_per_bucket(self, paper_topic_model, monkeypatch):
        calls = []
        original = TopicInferencer.infer_many

        def counting(self, documents):
            calls.append(len(documents))
            return original(self, documents)

        monkeypatch.setattr(TopicInferencer, "infer_many", counting)
        inferencer = TopicInferencer(paper_topic_model)
        inferencer.with_topics(self.elements())
        assert calls == [3]
        inferencer.with_topics([self.elements()[1]])
        inferencer.with_topics([])
        assert calls == [3]  # nothing to infer, nothing called
