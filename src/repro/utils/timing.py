"""Wall-clock measurement helpers used by the experiment harness.

The paper reports average CPU time per query (Figures 7, 9, 12, 13) and per
stream update (Figure 14).  :class:`StopWatch` measures a single interval and
:class:`TimingStats` accumulates many intervals in bounded memory: an exact
running count, total and extremes (what the figures' means and the shard
statistics read) plus the :data:`RECENT_SAMPLES` most recent samples (what the
median, the deviation and the serving layer's latency percentiles describe).
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterator, Optional


class StopWatch:
    """A minimal context-manager stopwatch with millisecond readouts."""

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self._elapsed: float = 0.0

    def __enter__(self) -> "StopWatch":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def start(self) -> None:
        """Start (or restart) the stopwatch."""
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Stop the stopwatch and return the elapsed time in seconds."""
        if self._start is None:
            raise RuntimeError("StopWatch.stop() called before start()")
        self._elapsed = time.perf_counter() - self._start
        self._start = None
        return self._elapsed

    @property
    def seconds(self) -> float:
        """Elapsed time of the last completed interval, in seconds."""
        return self._elapsed

    @property
    def milliseconds(self) -> float:
        """Elapsed time of the last completed interval, in milliseconds."""
        return self._elapsed * 1000.0


#: How many of its most recent samples a :class:`TimingStats` keeps, so a
#: timer's memory does not grow with the life of the process.
RECENT_SAMPLES = 2048


@dataclass
class TimingStats:
    """Running count, total and extremes of timing samples (milliseconds,
    0.0 when empty), plus the :data:`RECENT_SAMPLES` most recent samples."""

    name: str = "timer"
    samples_ms: Deque[float] = field(
        default_factory=lambda: deque(maxlen=RECENT_SAMPLES)
    )
    count: int = 0
    total_ms: float = 0.0
    min_ms: float = 0.0
    max_ms: float = 0.0

    def add(self, seconds: float) -> None:
        """Record one interval measured in seconds."""
        self._record(seconds * 1000.0, 1)

    def add_ms(self, milliseconds: float) -> None:
        """Record one interval measured in milliseconds."""
        self._record(float(milliseconds), 1)

    def add_many(self, seconds: float, operations: int) -> None:
        """Record ``operations`` equal shares of one interval of ``seconds``.

        The count grows by ``operations`` and the total by the interval, so
        ``mean_ms`` stays a per-operation mean; the recent samples gain one
        entry, at that mean.
        """
        if operations > 0:
            self._record(seconds * 1000.0, operations)

    def _record(self, span_ms: float, operations: int) -> None:
        sample_ms = span_ms / operations
        self.min_ms = sample_ms if self.count == 0 else min(self.min_ms, sample_ms)
        self.max_ms = max(self.max_ms, sample_ms)
        self.count += operations
        self.total_ms += span_ms
        self.samples_ms.append(sample_ms)

    def extend(self, other: "TimingStats") -> None:
        """Merge the totals and recent samples of ``other`` into this one."""
        if other.count:
            low = other.min_ms if self.count == 0 else min(self.min_ms, other.min_ms)
            self.min_ms, self.max_ms = low, max(self.max_ms, other.max_ms)
            self.count += other.count
            self.total_ms += other.total_ms
            self.samples_ms.extend(other.samples_ms)

    def measure(self) -> "_TimingContext":
        """Return a context manager that records its duration on exit."""
        return _TimingContext(self)

    def __len__(self) -> int:
        return len(self.samples_ms)

    def __iter__(self) -> Iterator[float]:
        return iter(self.samples_ms)

    @property
    def mean_ms(self) -> float:
        """Average sample in milliseconds (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total_ms / self.count

    @property
    def median_ms(self) -> float:
        """Median of the recent samples in milliseconds (0.0 when empty)."""
        if not self.samples_ms:
            return 0.0
        ordered = sorted(self.samples_ms)
        mid = len(ordered) // 2
        if len(ordered) % 2 == 1:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    @property
    def stdev_ms(self) -> float:
        """Population standard deviation of the recent samples (0.0 when < 2)."""
        if len(self.samples_ms) < 2:
            return 0.0
        mean = sum(self.samples_ms) / len(self.samples_ms)
        variance = sum((s - mean) ** 2 for s in self.samples_ms) / len(self.samples_ms)
        return math.sqrt(variance)

    def summary(self) -> str:
        """A one-line human-readable summary."""
        return (
            f"{self.name}: n={self.count} mean={self.mean_ms:.3f}ms "
            f"median={self.median_ms:.3f}ms max={self.max_ms:.3f}ms"
        )


class _TimingContext:
    """Context manager produced by :meth:`TimingStats.measure`."""

    def __init__(self, stats: TimingStats) -> None:
        self._stats = stats
        self._watch = StopWatch()

    def __enter__(self) -> "_TimingContext":
        self._watch.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stats.add(self._watch.stop())
