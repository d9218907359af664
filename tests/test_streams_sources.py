"""Seeded disorder injection: the arrival orders the event-time path replays."""

from __future__ import annotations

import pytest

from repro.core.element import SocialElement
from repro.streams import inject_disorder


def make_element(element_id: int, timestamp: int) -> SocialElement:
    return SocialElement(
        element_id=element_id,
        timestamp=timestamp,
        tokens=("w",),
        references=(),
    )


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
