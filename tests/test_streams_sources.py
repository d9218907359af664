"""Stream sources: the named sources, disorder injection and the adapters."""

from __future__ import annotations

import json

import pytest

from repro.core.element import SocialElement
from repro.datasets.loaders import save_stream_jsonl
from repro.streams import create_source, inject_disorder, source_names
from repro.streams.source import (
    CitationFeedSource,
    EntityDumpSource,
    JsonlReplaySource,
    MemorySource,
)


def make_element(element_id: int, timestamp: int) -> SocialElement:
    return SocialElement(
        element_id=element_id,
        timestamp=timestamp,
        tokens=("w",),
        references=(),
    )


class TestRegistry:
    def test_builtins_are_registered(self):
        assert source_names() == ("citations", "entities", "jsonl", "memory")

    def test_create_source_resolves_case_insensitively(self):
        source = create_source("  MEMORY ", elements=[make_element(1, 5)])
        assert isinstance(source, MemorySource)
        assert [element.element_id for element in source] == [1]

    def test_unknown_source_lists_available_names(self):
        with pytest.raises(ValueError, match="unknown stream source 'nope'"):
            create_source("nope")


class TestInjectDisorder:
    ELEMENTS = [make_element(i, 1 + 2 * i) for i in range(50)]

    def test_zero_delay_is_event_time_order(self):
        arrivals = inject_disorder(
            self.ELEMENTS, bucket_length=5, max_delay_buckets=0
        )
        assert arrivals == sorted(
            self.ELEMENTS, key=lambda e: (e.timestamp, e.element_id)
        )

    def test_same_seed_is_deterministic(self):
        first = inject_disorder(
            self.ELEMENTS, bucket_length=5, max_delay_buckets=2, seed=11
        )
        second = inject_disorder(
            self.ELEMENTS, bucket_length=5, max_delay_buckets=2, seed=11
        )
        assert first == second

    def test_different_seeds_differ(self):
        first = inject_disorder(
            self.ELEMENTS, bucket_length=5, max_delay_buckets=2, seed=1
        )
        second = inject_disorder(
            self.ELEMENTS, bucket_length=5, max_delay_buckets=2, seed=2
        )
        assert first != second

    def test_displacement_is_bounded_by_horizon(self):
        horizon = 2 * 5
        arrivals = inject_disorder(
            self.ELEMENTS, bucket_length=5, max_delay_buckets=2, seed=3
        )
        # No element arrives after one stamped more than the horizon later.
        high_water = arrivals[0].timestamp
        for element in arrivals:
            assert element.timestamp > high_water - horizon - 1
            high_water = max(high_water, element.timestamp)
        assert sorted(e.element_id for e in arrivals) == sorted(
            e.element_id for e in self.ELEMENTS
        )

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="bucket_length"):
            inject_disorder(self.ELEMENTS, bucket_length=0, max_delay_buckets=1)
        with pytest.raises(ValueError, match="max_delay_buckets"):
            inject_disorder(self.ELEMENTS, bucket_length=5, max_delay_buckets=-1)
        with pytest.raises(ValueError, match="fraction"):
            inject_disorder(
                self.ELEMENTS, bucket_length=5, max_delay_buckets=1, fraction=1.5
            )


class TestMemorySource:
    def test_default_replay_is_event_time_order(self):
        elements = [make_element(2, 9), make_element(1, 3), make_element(3, 9)]
        source = MemorySource(elements)
        assert [e.element_id for e in source] == [1, 2, 3]

    def test_disorder_injection_is_seeded(self):
        elements = [make_element(i, 1 + i) for i in range(30)]
        source = MemorySource(
            elements, bucket_length=5, disorder=1.0, max_delay_buckets=2, seed=4
        )
        first = [e.element_id for e in source]
        second = [e.element_id for e in source]
        assert first == second
        assert first != [e.element_id for e in elements]


class TestJsonlReplaySource:
    def test_replays_file_in_file_order(self, tmp_path):
        # File order is arrival order — deliberately not sorted.
        path = tmp_path / "feed.jsonl"
        save_stream_jsonl(
            [make_element(1, 9), make_element(2, 3)], path
        )  # save sorts nothing: iterable order is written
        source = JsonlReplaySource(path)
        assert [e.element_id for e in source] == [1, 2]

    def test_invalid_json_names_file_and_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"element_id": 1, "timestamp": 2, "tokens": []}\n{oops\n')
        with pytest.raises(ValueError, match=r"broken\.jsonl:2: invalid JSON"):
            list(JsonlReplaySource(path))

    def test_invalid_element_names_file_and_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"timestamp": 2, "tokens": []}\n')
        with pytest.raises(ValueError, match=r"broken\.jsonl:1: invalid element"):
            list(JsonlReplaySource(path))


class TestCitationFeedSource:
    RECORDS = [
        {"id": 3, "year": 2001, "title": "Streaming Queries", "references": [1]},
        {"id": 1, "year": 2000, "title": "Social Influence", "venue": "EDBT"},
        {"id": 2, "year": 2001, "title": "Sliding Windows", "references": [1]},
    ]

    def test_feed_arrives_in_id_order_not_event_time(self):
        source = CitationFeedSource(self.RECORDS, seconds_per_year=100)
        arrivals = list(source)
        assert [e.element_id for e in arrivals] == [1, 2, 3]
        # Year 2000 anchors time 0; 2001 papers land in the next year span.
        by_id = {e.element_id: e for e in arrivals}
        assert by_id[1].timestamp == 1
        assert by_id[2].timestamp == 102
        assert by_id[3].timestamp == 103
        assert by_id[3].references == (1,)
        assert "streaming" in by_id[3].tokens
        assert "edbt" in by_id[1].tokens

    def test_reads_records_from_jsonl_path(self, tmp_path):
        path = tmp_path / "citations.jsonl"
        path.write_text(
            "\n".join(json.dumps(record) for record in self.RECORDS) + "\n"
        )
        source = CitationFeedSource(path, seconds_per_year=100)
        assert [e.element_id for e in source] == [1, 2, 3]

    def test_invalid_record_is_an_error(self):
        with pytest.raises(ValueError, match="invalid citation record"):
            list(CitationFeedSource([{"id": 1, "title": "no year"}]))

    def test_seconds_per_year_validation(self):
        with pytest.raises(ValueError, match="seconds_per_year"):
            CitationFeedSource([], seconds_per_year=0)


class TestEntityDumpSource:
    RECORDS = [
        {
            "id": 2,
            "modified": 50,
            "labels": ["Ada Lovelace"],
            "claims": {"occupation": ["mathematician"]},
            "links": [1],
        },
        {"id": 1, "modified": 80, "labels": ["Charles Babbage"]},
    ]

    def test_dump_order_with_claim_tags_and_links(self):
        arrivals = list(EntityDumpSource(self.RECORDS))
        assert [e.element_id for e in arrivals] == [1, 2]
        by_id = {e.element_id: e for e in arrivals}
        assert by_id[2].timestamp == 50
        assert by_id[2].references == (1,)
        assert "ada" in by_id[2].tokens
        assert "occupation:mathematician" in by_id[2].tokens
        assert by_id[2].text == "Ada Lovelace"

    def test_invalid_record_is_an_error(self):
        with pytest.raises(ValueError, match="invalid entity record"):
            list(EntityDumpSource([{"labels": ["no id"]}]))

    def test_non_mapping_record_is_an_error(self):
        with pytest.raises(ValueError, match="entity record 1 is not a mapping"):
            list(EntityDumpSource([{"id": 1, "modified": 2}, "oops"]))
