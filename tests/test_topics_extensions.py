"""Tests for topic-model persistence and the query paradigms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topics.inference import (
    TopicInferencer,
    infer_document_query_vector,
    infer_personalized_vector,
    infer_query_vector,
)
from repro.topics.model import MatrixTopicModel


class TestModelPersistence:
    def test_save_and_load_roundtrip(self, paper_topic_model, tmp_path):
        path = paper_topic_model.save(tmp_path / "model.npz")
        assert path.exists()
        loaded = MatrixTopicModel.load(path)
        assert loaded.num_topics == paper_topic_model.num_topics
        assert loaded.vocabulary.words == paper_topic_model.vocabulary.words
        np.testing.assert_allclose(
            loaded.topic_word_matrix, paper_topic_model.topic_word_matrix
        )

    def test_save_appends_npz_suffix(self, paper_topic_model, tmp_path):
        path = paper_topic_model.save(tmp_path / "model")
        assert path.suffix == ".npz"
        loaded = MatrixTopicModel.load(tmp_path / "model")
        assert loaded.validate() or loaded.num_topics == 2

    def test_loaded_model_usable_for_inference(self, paper_topic_model, tmp_path):
        path = paper_topic_model.save(tmp_path / "model.npz")
        loaded = MatrixTopicModel.load(path)
        vector = infer_query_vector(loaded, ["lebron", "nbaplayoffs"])
        assert int(np.argmax(vector)) == 0


class TestQueryParadigms:
    def test_query_by_document(self, paper_topic_model):
        document = ["cavs", "defeat", "raptors", "nbaplayoffs", "lebron", "point"]
        vector = infer_document_query_vector(paper_topic_model, document)
        assert vector.shape == (2,)
        assert vector.sum() == pytest.approx(1.0)
        assert vector[0] > vector[1]

    def test_personalized_vector_prefers_recent_posts(self, paper_topic_model):
        inferencer = TopicInferencer(paper_topic_model, alpha=0.05)
        old_posts = [["pl", "champion", "manutd"]] * 3
        recent_post = [["lebron", "nbaplayoffs", "cavs"]]
        vector = infer_personalized_vector(
            paper_topic_model, old_posts + recent_post, inferencer=inferencer, decay=0.3
        )
        # The most recent (basketball) post dominates under strong decay.
        assert vector[0] > vector[1]
        balanced = infer_personalized_vector(
            paper_topic_model, old_posts + recent_post, inferencer=inferencer, decay=1.0
        )
        # Without decay the three soccer posts outweigh the single basketball one.
        assert balanced[1] > balanced[0]

    def test_personalized_vector_empty_history_is_uniform(self, paper_topic_model):
        vector = infer_personalized_vector(paper_topic_model, [])
        np.testing.assert_allclose(vector, 0.5)

    def test_personalized_vector_invalid_decay(self, paper_topic_model):
        with pytest.raises(ValueError):
            infer_personalized_vector(paper_topic_model, [["pl"]], decay=0.0)
        with pytest.raises(ValueError):
            infer_personalized_vector(paper_topic_model, [["pl"]], decay=1.5)
