"""Shared utilities used across the k-SIR reproduction.

The helpers in this package are deliberately small and dependency-free:

* :mod:`repro.utils.rng` — seeded random-number helpers so every experiment
  is reproducible end to end.
* :mod:`repro.utils.timing` — wall-clock accumulators used by the
  experiment harness to report per-query and per-update CPU time.
* :mod:`repro.utils.sorted_list` — the score map, sorted at its first read
  after a change, that backs each per-topic ranked list.
* :mod:`repro.utils.validation` — argument validation helpers shared by the
  public API.
* :mod:`repro.utils.config` — the dict round-trip every frozen config
  dataclass derives from its fields.
"""

from repro.utils.rng import derive_seed, make_rng
from repro.utils.sorted_list import DescendingSortedList
from repro.utils.timing import StopWatch, TimingStats
from repro.utils.validation import (
    require_in_range,
    require_non_negative,
    require_positive,
    require_probability,
)

__all__ = [
    "DescendingSortedList",
    "StopWatch",
    "TimingStats",
    "derive_seed",
    "make_rng",
    "require_in_range",
    "require_non_negative",
    "require_positive",
    "require_probability",
]
