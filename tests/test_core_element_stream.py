"""Tests for the social element and social stream data model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.element import SocialElement
from repro.core.stream import SocialStream, replay_stream


def make_element(element_id=1, timestamp=10, tokens=("a", "b", "a"), references=(), **kwargs):
    return SocialElement(
        element_id=element_id,
        timestamp=timestamp,
        tokens=tokens,
        references=references,
        **kwargs,
    )


class TestSocialElement:
    def test_basic_fields(self):
        element = make_element()
        assert element.element_id == 1
        assert element.timestamp == 10
        assert element.tokens == ("a", "b", "a")
        assert element.references == ()
        assert element.is_original

    def test_distinct_words_preserve_first_seen_order(self):
        element = make_element(tokens=("b", "a", "b", "c", "a"))
        assert element.distinct_words == ("b", "a", "c")

    def test_word_frequencies(self):
        element = make_element(tokens=("a", "b", "a"))
        assert element.word_frequencies == {"a": 2, "b": 1}

    def test_references_make_element_non_original(self):
        element = make_element(references=(5, 6))
        assert not element.is_original
        assert element.references == (5, 6)

    def test_topic_distribution_is_numpy_array(self):
        element = make_element(topic_distribution=[0.25, 0.75])
        assert isinstance(element.topic_distribution, np.ndarray)
        assert element.topic_distribution.tolist() == [0.25, 0.75]

    def test_with_topic_distribution_returns_copy(self):
        element = make_element()
        updated = element.with_topic_distribution(np.array([0.1, 0.9]))
        assert element.topic_distribution is None
        assert updated.topic_distribution is not None
        assert updated.element_id == element.element_id

    def test_to_dict_roundtrip(self):
        element = make_element(
            topic_distribution=[0.5, 0.5], references=(2,), text="raw text", author=7
        )
        payload = element.to_dict()
        restored = SocialElement.from_dict(payload)
        assert restored.element_id == element.element_id
        assert restored.tokens == element.tokens
        assert restored.references == element.references
        assert restored.text == "raw text"
        assert restored.author == 7
        np.testing.assert_allclose(restored.topic_distribution, element.topic_distribution)

    def test_to_dict_without_optionals(self):
        payload = make_element().to_dict()
        assert "topic_distribution" not in payload
        assert "text" not in payload
        restored = SocialElement.from_dict(payload)
        assert restored.topic_distribution is None

    @pytest.mark.parametrize("tokens", ["abc", ["a", 1], [None]])
    def test_from_dict_rejects_tokens_that_are_not_a_list_of_strings(self, tokens):
        payload = {"element_id": 1, "timestamp": 10, "tokens": tokens}
        with pytest.raises(ValueError, match="'tokens' must be a list of strings"):
            SocialElement.from_dict(payload)


class TestSocialStream:
    def test_append_in_order(self):
        stream = SocialStream()
        stream.append(make_element(element_id=1, timestamp=1))
        stream.append(make_element(element_id=2, timestamp=2))
        assert len(stream) == 2
        assert stream.start_time == 1
        assert stream.end_time == 2

    def test_out_of_order_appends_are_sorted(self):
        stream = SocialStream()
        stream.append(make_element(element_id=2, timestamp=5))
        stream.append(make_element(element_id=1, timestamp=1))
        assert [element.element_id for element in stream] == [1, 2]

    def test_out_of_order_build_matches_in_order_build(self):
        # The append contract: any arrival permutation yields a stream
        # identical to one built in (timestamp, element_id) order.
        elements = [
            make_element(element_id=i, timestamp=ts)
            for i, ts in enumerate([7, 2, 9, 2, 5, 11, 1, 5])
        ]
        in_order = SocialStream(
            sorted(elements, key=lambda e: (e.timestamp, e.element_id))
        )
        arrival = SocialStream([elements[i] for i in (3, 6, 0, 7, 5, 1, 4, 2)])
        assert [e.element_id for e in arrival] == [e.element_id for e in in_order]

    def test_timestamp_ties_order_by_element_id(self):
        # Ties are deterministic regardless of arrival order.
        for arrival_ids in ((3, 1, 2), (2, 3, 1), (1, 2, 3)):
            stream = SocialStream(
                make_element(element_id=i, timestamp=5) for i in arrival_ids
            )
            assert [e.element_id for e in stream] == [1, 2, 3]

    def test_late_append_lands_between_existing_ties(self):
        stream = SocialStream(
            [
                make_element(element_id=1, timestamp=5),
                make_element(element_id=4, timestamp=5),
                make_element(element_id=5, timestamp=9),
            ]
        )
        stream.append(make_element(element_id=3, timestamp=5))
        assert [e.element_id for e in stream] == [1, 3, 4, 5]

    def test_duplicate_ids_rejected(self):
        stream = SocialStream([make_element(element_id=1)])
        with pytest.raises(ValueError):
            stream.append(make_element(element_id=1))

    def test_get_and_contains(self):
        stream = SocialStream([make_element(element_id=4, timestamp=3)])
        assert 4 in stream
        assert 9 not in stream
        assert stream.get(4).timestamp == 3
        with pytest.raises(KeyError):
            stream.get(9)

    def test_empty_stream_properties_raise(self):
        stream = SocialStream()
        with pytest.raises(ValueError):
            _ = stream.start_time
        with pytest.raises(ValueError):
            _ = stream.end_time

    def test_elements_between(self):
        stream = SocialStream(
            [make_element(element_id=i, timestamp=i * 10) for i in range(1, 6)]
        )
        between = stream.elements_between(20, 40)
        assert [element.element_id for element in between] == [2, 3, 4]

    def test_getitem_indexing(self):
        stream = SocialStream(
            [make_element(element_id=i, timestamp=i) for i in range(1, 4)]
        )
        assert stream[0].element_id == 1
        assert stream[-1].element_id == 3

    def test_buckets_cover_whole_stream(self):
        stream = SocialStream(
            [make_element(element_id=i, timestamp=i) for i in range(1, 11)]
        )
        buckets = list(stream.buckets(bucket_length=3))
        total = sum(len(bucket) for bucket in buckets)
        assert total == 10
        # Bucket end times advance by the bucket length.
        ends = [bucket.end_time for bucket in buckets]
        assert ends == sorted(ends)
        assert all(b - a == 3 for a, b in zip(ends, ends[1:]))

    def test_buckets_elements_respect_boundaries(self):
        stream = SocialStream(
            [make_element(element_id=i, timestamp=i) for i in range(1, 8)]
        )
        for bucket in stream.buckets(bucket_length=2):
            for element in bucket:
                assert element.timestamp <= bucket.end_time
                assert element.timestamp > bucket.end_time - 2

    def test_buckets_include_empty_periods(self):
        stream = SocialStream(
            [
                make_element(element_id=1, timestamp=1),
                make_element(element_id=2, timestamp=10),
            ]
        )
        buckets = list(stream.buckets(bucket_length=2))
        assert any(len(bucket) == 0 for bucket in buckets)
        assert sum(len(bucket) for bucket in buckets) == 2

    def test_buckets_invalid_length(self):
        stream = SocialStream([make_element()])
        with pytest.raises(ValueError):
            list(stream.buckets(bucket_length=0))

    def test_buckets_empty_stream(self):
        assert list(SocialStream().buckets(bucket_length=5)) == []

    def test_bucket_repr(self):
        stream = SocialStream([make_element(element_id=1, timestamp=1)])
        bucket = next(iter(stream.buckets(bucket_length=5)))
        assert "StreamBucket" in repr(bucket)


class TestBucketEdgeCases:
    def test_empty_stream_yields_no_buckets_even_with_anchor(self):
        assert list(SocialStream().buckets(bucket_length=5)) == []
        assert list(SocialStream().buckets(bucket_length=5, start_time=100)) == []

    def test_single_element_exactly_on_bucket_boundary(self):
        # Buckets cover (t - L, t]: an element at the bucket end belongs
        # to that bucket, and exactly one bucket is emitted.
        stream = SocialStream([make_element(element_id=1, timestamp=5)])
        buckets = list(stream.buckets(bucket_length=3, start_time=3))
        assert [(b.end_time, len(b)) for b in buckets] == [(5, 1)]

    def test_single_element_one_past_boundary_opens_second_bucket(self):
        stream = SocialStream([make_element(element_id=1, timestamp=6)])
        buckets = list(stream.buckets(bucket_length=3, start_time=3))
        assert [(b.end_time, len(b)) for b in buckets] == [(5, 0), (8, 1)]

    def test_start_time_after_last_element_folds_stream_into_first_bucket(self):
        # Documented contract: the first bucket absorbs every element at
        # or before its end, including ones stamped before the anchor.
        stream = SocialStream(
            [make_element(element_id=i, timestamp=i) for i in range(1, 5)]
        )
        buckets = list(stream.buckets(bucket_length=5, start_time=100))
        assert len(buckets) == 1
        assert buckets[0].end_time == 104
        assert [e.element_id for e in buckets[0]] == [1, 2, 3, 4]

    def test_replay_until_mid_bucket_excludes_the_partial_bucket(self):
        # replay_stream compares `until` against bucket *end* times: a
        # bucket whose end lies past `until` is not processed, so a
        # mid-bucket cutoff stops cleanly at the previous boundary.
        stream = SocialStream(
            [make_element(element_id=i, timestamp=i) for i in range(1, 11)]
        )
        seen = []
        replay_stream(
            stream,
            3,
            lambda elements, end_time: seen.append(
                (end_time, tuple(e.element_id for e in elements))
            ),
            until=7,  # mid-bucket: buckets end at 3, 6, 9, 12
        )
        assert seen == [(3, (1, 2, 3)), (6, (4, 5, 6))]

    def test_replay_until_on_boundary_includes_that_bucket(self):
        stream = SocialStream(
            [make_element(element_id=i, timestamp=i) for i in range(1, 11)]
        )
        seen = []
        replay_stream(
            stream, 3, lambda elements, end_time: seen.append(end_time), until=6
        )
        assert seen == [3, 6]
