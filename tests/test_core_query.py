"""Tests for the query / result value objects."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import KSIRQuery, QueryResult


class TestKSIRQuery:
    def test_vector_is_normalised(self):
        query = KSIRQuery(k=5, vector=np.array([2.0, 2.0]))
        np.testing.assert_allclose(query.vector, [0.5, 0.5])

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KSIRQuery(k=0, vector=np.array([1.0]))

    def test_invalid_vectors(self):
        with pytest.raises(ValueError):
            KSIRQuery(k=1, vector=np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            KSIRQuery(k=1, vector=np.array([-0.5, 1.5]))
        with pytest.raises(ValueError):
            KSIRQuery(k=1, vector=np.array([0.0, 0.0]))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_vectors(self, entry):
        # NaN compares false with everything and inf / inf is NaN, so
        # neither is caught by the sign and mass checks.
        with pytest.raises(ValueError, match="finite"):
            KSIRQuery(k=1, vector=np.array([entry, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            KSIRQuery(k=1, vector=np.array([entry, 0.0]))

    def test_nonzero_topics(self):
        query = KSIRQuery(k=3, vector=np.array([0.0, 0.7, 0.0, 0.3]))
        assert query.nonzero_topics == (1, 3)
        assert query.num_topics == 4

    def test_keywords_stored_as_tuple(self):
        query = KSIRQuery(k=3, vector=np.array([1.0]), keywords=["a", "b"])
        assert query.keywords == ("a", "b")

    def test_time_defaults_to_none(self):
        assert KSIRQuery(k=1, vector=np.array([1.0])).time is None


class TestQueryResult:
    def make_result(self, **kwargs):
        defaults = dict(
            element_ids=(3, 1),
            score=0.65,
            algorithm="mttd",
            elapsed_ms=1.5,
            evaluated_elements=4,
            active_elements=8,
        )
        defaults.update(kwargs)
        return QueryResult(**defaults)

    def test_basic_accessors(self):
        result = self.make_result()
        assert len(result) == 2
        assert list(result) == [3, 1]
        assert result.score == 0.65

    def test_evaluation_ratio(self):
        assert self.make_result().evaluation_ratio == pytest.approx(0.5)
        assert self.make_result(active_elements=0).evaluation_ratio == 0.0

    def test_summary_mentions_algorithm_and_score(self):
        text = self.make_result().summary()
        assert "mttd" in text
        assert "0.65" in text

    def test_extras_default_empty(self):
        assert self.make_result().extras == {}
