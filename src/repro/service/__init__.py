"""repro.service — continuous multi-query serving over the k-SIR processor.

The serving layer turns the one-shot query processor into a standing-query
system: many registered :class:`~repro.service.registry.StandingQuery` users
share one sliding window, one scoring snapshot per bucket and an incremental
maintenance loop that re-evaluates only the queries whose topic support
actually changed.

* :class:`QueryRegistry` / :class:`StandingQuery` — the registered queries
  with per-query algorithm/ε/TTL options and a topic-inverted index;
* :class:`IncrementalScheduler` / :class:`SchedulePlan` — maps the ranked
  lists' per-topic dirty sets to the affected queries, falling back to full
  re-evaluation on window-expiry churn;
* :class:`ServiceEngine` / :class:`StandingResult` — the façade wiring it
  all to the per-bucket evaluation loop, a per-query result cache with staleness
  metadata and :class:`ServiceMetrics`.
"""

from repro.service.engine import ServiceEngine, ServiceUpdate, StandingResult
from repro.service.metrics import ServiceMetrics, percentile, timer_summary
from repro.service.registry import QueryRegistry, StandingQuery
from repro.service.scheduler import IncrementalScheduler, SchedulePlan

__all__ = [
    "IncrementalScheduler",
    "QueryRegistry",
    "SchedulePlan",
    "ServiceEngine",
    "ServiceMetrics",
    "ServiceUpdate",
    "StandingQuery",
    "StandingResult",
    "percentile",
    "timer_summary",
]
