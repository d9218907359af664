"""Service-level metrics for the standing-query engine.

The serving engine distinguishes *opportunities* (query × bucket pairs: every
registered standing query could be re-evaluated after every ingested bucket)
from *evaluations* (the pairs actually re-run).  The gap between the two is
what re-evaluating only the queries a bucket's dirty topics reach buys, so
the report centres on:

* the **re-eval ratio** — evaluations / opportunities;
* the **result-cache hit rate** — the complementary fraction of pairs served
  from the per-query result cache (with staleness metadata);
* **latency percentiles** (p50/p99) of individual query evaluations — over
  the evaluation timer's most recent samples, see
  :data:`~repro.utils.timing.RECENT_SAMPLES` — and the sustained
  **maintenance throughput** in pairs per second.

How often the per-bucket scoring snapshot was built is the processor's
counter (``engine.stats()["snapshot_builds"]``), not a service metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Sequence

from repro.utils.timing import TimingStats


def timer_summary(stats: TimingStats) -> Dict[str, float]:
    """A plain-JSON summary of one :class:`TimingStats` accumulator.

    Counters and percentiles only (the raw samples stay private), so the
    serving tier can expose timers over ``/metrics`` and ``/telemetry``
    without reaching into sample lists.  Count, total, mean and max cover
    the timer's whole life; the percentiles cover its recent samples.
    """
    samples = stats.samples_ms
    return {
        "count": float(stats.count),
        "total_ms": float(stats.total_ms),
        "mean_ms": float(stats.mean_ms),
        "p50_ms": percentile(samples, 0.50),
        "p95_ms": percentile(samples, 0.95),
        "p99_ms": percentile(samples, 0.99),
        "max_ms": float(stats.max_ms),
    }


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (0.0 when empty).

    ``fraction`` is in ``[0, 1]``; ``percentile(xs, 0.5)`` is the median
    under the nearest-rank convention.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


@dataclass
class ServiceMetrics:
    """Counters and timers accumulated by :class:`~repro.service.engine.ServiceEngine`.

    Attributes
    ----------
    eval_latency:
        Per-evaluation wall-clock times (one sample per re-run pair).
    maintenance_timer:
        Per-bucket standing-query maintenance times (evaluation phase only;
        stream ingestion is tracked by the processor's own timer).
    buckets:
        Buckets ingested while serving.
    evaluations:
        Query × bucket pairs actually re-evaluated.
    reused:
        Query × bucket pairs served from the per-query result cache.
    expired_queries:
        Standing queries dropped because their TTL elapsed.
    """

    eval_latency: TimingStats = field(
        default_factory=lambda: TimingStats(name="eval-latency")
    )
    maintenance_timer: TimingStats = field(
        default_factory=lambda: TimingStats(name="bucket-maintenance")
    )
    buckets: int = 0
    evaluations: int = 0
    reused: int = 0
    expired_queries: int = 0

    # -- derived rates ----------------------------------------------------------------

    @property
    def opportunities(self) -> int:
        """Query × bucket pairs the engine was responsible for."""
        return self.evaluations + self.reused

    @property
    def reeval_ratio(self) -> float:
        """Fraction of pairs actually re-evaluated."""
        if self.opportunities == 0:
            return 0.0
        return self.evaluations / self.opportunities

    @property
    def result_cache_hit_rate(self) -> float:
        """Fraction of pairs served from the per-query result cache."""
        if self.opportunities == 0:
            return 0.0
        return self.reused / self.opportunities

    @property
    def latency_p50_ms(self) -> float:
        """Median evaluation latency in milliseconds."""
        return percentile(self.eval_latency.samples_ms, 0.50)

    @property
    def latency_p99_ms(self) -> float:
        """99th-percentile evaluation latency in milliseconds."""
        return percentile(self.eval_latency.samples_ms, 0.99)

    @property
    def maintenance_seconds(self) -> float:
        """Total standing-query maintenance time in seconds."""
        return self.maintenance_timer.total_ms / 1000.0

    @property
    def queries_per_sec(self) -> float:
        """Standing-query results maintained per second of maintenance time.

        Counts every query × bucket pair (cached pairs included: keeping a
        result fresh *or* provably unchanged is the service's unit of work).
        """
        seconds = self.maintenance_seconds
        if seconds <= 0.0:
            return 0.0
        return self.opportunities / seconds

    @property
    def evaluations_per_sec(self) -> float:
        """Re-evaluated pairs per second of maintenance time."""
        seconds = self.maintenance_seconds
        if seconds <= 0.0:
            return 0.0
        return self.evaluations / seconds

    # -- snapshot export -------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable snapshot of every counter and derived rate.

        Plain ints/floats only (timers are exported as percentile
        summaries, never as raw sample lists), so ``/metrics`` and
        ``/telemetry`` can serialise the serving state without touching
        private fields.  The snapshot is a value copy: mutating the
        returned dictionary never affects the live metrics.
        """
        return {
            "buckets": self.buckets,
            "evaluations": self.evaluations,
            "reused": self.reused,
            "opportunities": self.opportunities,
            "expired_queries": self.expired_queries,
            "reeval_ratio": float(self.reeval_ratio),
            "result_cache_hit_rate": float(self.result_cache_hit_rate),
            "queries_per_sec": float(self.queries_per_sec),
            "evaluations_per_sec": float(self.evaluations_per_sec),
            "maintenance_seconds": float(self.maintenance_seconds),
            "eval_latency": timer_summary(self.eval_latency),
            "maintenance_timer": timer_summary(self.maintenance_timer),
        }

    # -- reporting -------------------------------------------------------------------------

    def render(self) -> str:
        """The metrics report printed by ``repro-ksir serve``."""
        lines = [
            "service metrics",
            f"  buckets ingested     {self.buckets}",
            (
                f"  query-bucket pairs   {self.opportunities}"
                f" (re-eval ratio {self.reeval_ratio:.3f},"
                f" result-cache hit rate {self.result_cache_hit_rate * 100.0:.1f}%)"
            ),
            (
                f"  evaluations          {self.evaluations}"
                f" ({self.expired_queries} queries expired by TTL)"
            ),
            (
                f"  eval latency         p50 {self.latency_p50_ms:.3f} ms"
                f" | p99 {self.latency_p99_ms:.3f} ms"
                f" | mean {self.eval_latency.mean_ms:.3f} ms"
            ),
            (
                f"  throughput           {self.queries_per_sec:.1f} pairs/sec"
                f" ({self.evaluations_per_sec:.1f} evals/sec,"
                f" maintenance {self.maintenance_seconds:.3f} s)"
            ),
        ]
        return "\n".join(lines)
