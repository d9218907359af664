"""repro.service — continuous multi-query serving over the k-SIR processor.

The serving layer turns the one-shot query processor into a standing-query
system: many registered :class:`~repro.service.registry.StandingQuery` users
share one sliding window, one scoring snapshot per bucket and one
maintenance rule: after a bucket, re-evaluate exactly the queries whose
topic support meets the topics whose ranked lists changed (``f(S, x)`` sums
over the query's non-zero topics only, so no other answer can move).

* :class:`QueryRegistry` / :class:`StandingQuery` — the registered queries
  with per-query algorithm/ε/TTL options and a topic-inverted index that
  maps the ranked lists' dirty topics to the affected queries;
* :class:`ServiceEngine` / :class:`StandingResult` — the façade wiring it
  all to the per-bucket evaluation loop, a per-query result cache with staleness
  metadata and :class:`ServiceMetrics`.
"""

from repro.service.engine import ServiceEngine, ServiceUpdate, StandingResult
from repro.service.metrics import ServiceMetrics, percentile, timer_summary
from repro.service.registry import QueryRegistry, StandingQuery

__all__ = [
    "QueryRegistry",
    "ServiceEngine",
    "ServiceMetrics",
    "ServiceUpdate",
    "StandingQuery",
    "StandingResult",
    "percentile",
    "timer_summary",
]
