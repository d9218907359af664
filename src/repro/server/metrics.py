"""The serving tier's telemetry: in-process counts and their Prometheus text.

:class:`HttpTelemetry` holds what the HTTP layer counts — requests per
endpoint and status, per-endpoint latency histograms, refused WebSocket
sessions — for the life of the process.  The counts start from zero at
every start, which Prometheus' ``rate()`` and ``increase()`` expect of a
counter.  Everything else ``/metrics`` exports is read from its owner at
scrape time: the push hub, the engine, the serving engine and the
event-time ingestor.

Exposition format 0.0.4: ``# HELP``/``# TYPE`` headers, histogram buckets
with *cumulative* counts per ``le`` bound (the histograms keep per-bucket
counts, so the renderer cumulates), and every engine/service counter
flattened into ``ksir_*`` gauges.  No client library — the format is a few
lines of text and this tier keeps zero hard dependencies.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.server.hub import PushHub

#: Histogram bucket upper bounds in milliseconds (log-spaced; +Inf implied).
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 10000.0,
)

#: The Prometheus ``le`` label of every bucket, ``+Inf`` last.
_LE_LABELS: Tuple[str, ...] = tuple(f"{bound:g}" for bound in LATENCY_BUCKETS_MS) + (
    "+Inf",
)


@dataclass
class _Histogram:
    """One endpoint's latencies: a count per bucket (zeros included)."""

    counts: List[int] = field(default_factory=lambda: [0] * len(_LE_LABELS))
    total_ms: float = 0.0


class HttpTelemetry:
    """Request counters and per-endpoint latency histograms of one process.

    One lock guards every read and write: the ASGI app writes from its
    event loop, and a reader may sit on any thread.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[str, int]] = {}
        self._latency: Dict[str, _Histogram] = {}

    def increment(self, name: str, label: str = "", by: int = 1) -> None:
        """Add ``by`` to the counter ``name{label}``."""
        with self._lock:
            labelled = self._counters.setdefault(name, {})
            labelled[label] = labelled.get(label, 0) + by

    def observe_latency(self, endpoint: str, milliseconds: float) -> None:
        """Record one request latency into the endpoint's histogram."""
        value = float(milliseconds)
        bucket = bisect_left(LATENCY_BUCKETS_MS, value)  # first bound >= value
        with self._lock:
            histogram = self._latency.get(endpoint)
            if histogram is None:
                histogram = self._latency[endpoint] = _Histogram()
            histogram.counts[bucket] += 1
            histogram.total_ms += value

    def counters(self) -> Dict[str, Dict[str, int]]:
        """``{counter name: {label: value}}``."""
        with self._lock:
            return {
                name: dict(sorted(labelled.items()))
                for name, labelled in sorted(self._counters.items())
            }

    def histograms(self) -> Dict[str, Dict[str, Any]]:
        """Per-endpoint latency histograms with totals and estimated percentiles."""
        with self._lock:
            copies = {
                endpoint: (list(histogram.counts), histogram.total_ms)
                for endpoint, histogram in sorted(self._latency.items())
            }
        result: Dict[str, Dict[str, Any]] = {}
        for endpoint, (counts, total_ms) in copies.items():
            count = sum(counts)  # >= 1: a histogram exists once observed
            result[endpoint] = {
                "buckets": dict(zip(_LE_LABELS, counts)),
                "total_ms": total_ms,
                "count": count,
                "mean_ms": total_ms / count,
                "p50_ms": _estimate_percentile(counts, 0.50),
                "p95_ms": _estimate_percentile(counts, 0.95),
            }
        return result

    def snapshot(self) -> Dict[str, Any]:
        """The ``runtime`` section of ``/telemetry``."""
        return {"counters": self.counters(), "latency": self.histograms()}


def _estimate_percentile(counts: Sequence[int], fraction: float) -> float:
    """Percentile estimate from per-bucket counts (at least one observation).

    Prometheus' ``histogram_quantile``: linear interpolation inside the
    bucket that holds the rank, from that bucket's lower bound (0 for the
    first); a rank in the +Inf bucket reports the highest finite bound.
    Every bucket has a count, empty ones too, so the lower bound is the
    previous bound, never the previous *observed* one.
    """
    rank = fraction * sum(counts)
    cumulative = 0
    lower = 0.0
    for upper, count in zip(LATENCY_BUCKETS_MS, counts):
        # cumulative < rank here, so a bucket that reaches it is non-empty.
        if cumulative + count >= rank:
            return lower + (upper - lower) * (rank - cumulative) / count
        cumulative += count
        lower = upper
    return lower


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _sanitise(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)


def _emit_numeric(
    lines: List[str], prefix: str, payload: Mapping[str, Any]
) -> None:
    """Flatten numeric (possibly nested) mapping entries into gauges."""
    for key, value in sorted(payload.items()):
        metric = f"{prefix}_{_sanitise(str(key))}"
        if isinstance(value, bool):
            lines.append(f"{metric} {int(value)}")
        elif isinstance(value, (int, float)):
            lines.append(f"{metric} {value}")
        elif isinstance(value, Mapping):
            _emit_numeric(lines, metric, value)


def render_prometheus(
    telemetry: HttpTelemetry,
    hub: PushHub,
    engine_stats: Mapping[str, Any],
    service_metrics: Mapping[str, Any],
    stream_metrics: Optional[Mapping[str, Any]] = None,
) -> str:
    """The ``/metrics`` document."""
    lines: List[str] = []

    counters = telemetry.counters()
    lines.append(
        "# HELP ksir_http_requests_total Requests served, by endpoint and status."
    )
    lines.append("# TYPE ksir_http_requests_total counter")
    for label, value in counters.get("http_requests", {}).items():
        endpoint, _, status = label.partition("|")
        lines.append(
            "ksir_http_requests_total"
            f'{{endpoint="{_escape_label(endpoint)}",status="{status or "?"}"}}'
            f" {value}"
        )

    lines.append(
        "# HELP ksir_http_request_duration_ms Request latency histogram "
        "per endpoint."
    )
    lines.append("# TYPE ksir_http_request_duration_ms histogram")
    for endpoint, histogram in telemetry.histograms().items():
        tag = _escape_label(endpoint)
        cumulative = 0
        for label, count in histogram["buckets"].items():
            cumulative += count
            lines.append(
                "ksir_http_request_duration_ms_bucket"
                f'{{endpoint="{tag}",le="{label}"}} {cumulative}'
            )
        lines.append(
            f'ksir_http_request_duration_ms_sum{{endpoint="{tag}"}} '
            f'{histogram["total_ms"]}'
        )
        lines.append(
            f'ksir_http_request_duration_ms_count{{endpoint="{tag}"}} '
            f'{histogram["count"]}'
        )

    lines.append("# HELP ksir_ws_sessions_total WebSocket sessions opened.")
    lines.append("# TYPE ksir_ws_sessions_total counter")
    lines.append(f"ksir_ws_sessions_total {hub.sessions}")
    lines.append("# HELP ksir_ws_pushes_total Deltas pushed to subscribers.")
    lines.append("# TYPE ksir_ws_pushes_total counter")
    lines.append(f"ksir_ws_pushes_total {hub.pushes}")
    lines.append(
        "# HELP ksir_ws_dropped_total Pushes a full subscriber queue dropped "
        "(oldest first)."
    )
    lines.append("# TYPE ksir_ws_dropped_total counter")
    lines.append(f"ksir_ws_dropped_total {hub.dropped}")
    lines.append("# HELP ksir_ws_subscribers Live WebSocket subscriptions.")
    lines.append("# TYPE ksir_ws_subscribers gauge")
    lines.append(f"ksir_ws_subscribers {hub.subscriber_count()}")

    for name, labelled in counters.items():
        if name == "http_requests":
            continue
        metric = f"ksir_runtime_{_sanitise(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        for label, value in labelled.items():
            if label:
                lines.append(
                    f'{metric}{{label="{_escape_label(label)}"}} {value}'
                )
            else:
                lines.append(f"{metric} {value}")

    # The kernel layer gets its own ``ksir_kernel_*`` namespace (labelled
    # per kernel) instead of being flattened into the engine gauges.
    kernel_stats = engine_stats.get("kernels")
    engine_stats = {
        key: value for key, value in engine_stats.items() if key != "kernels"
    }

    engine_lines: List[str] = []
    _emit_numeric(engine_lines, "ksir_engine", engine_stats)
    if engine_lines:
        lines.append("# HELP ksir_engine_* Engine backend counters.")
        lines.extend(engine_lines)

    if isinstance(kernel_stats, Mapping):
        per_kernel = kernel_stats.get("per_kernel")
        if isinstance(per_kernel, Mapping):
            lines.append(
                "# HELP ksir_kernel_calls_total Calls per hot-path kernel."
            )
            lines.append("# TYPE ksir_kernel_calls_total counter")
            lines.append(
                "# HELP ksir_kernel_time_ns_total Cumulative nanoseconds "
                "per hot-path kernel."
            )
            lines.append("# TYPE ksir_kernel_time_ns_total counter")
            for name, counters in sorted(per_kernel.items()):
                if not isinstance(counters, Mapping):
                    continue
                tag = _escape_label(_sanitise(str(name)))
                lines.append(
                    f'ksir_kernel_calls_total{{kernel="{tag}"}} '
                    f'{int(counters.get("calls", 0))}'
                )
                lines.append(
                    f'ksir_kernel_time_ns_total{{kernel="{tag}"}} '
                    f'{int(counters.get("total_ns", 0))}'
                )

    service_lines: List[str] = []
    _emit_numeric(service_lines, "ksir_service", service_metrics)
    if service_lines:
        lines.append("# HELP ksir_service_* Incremental-serving metrics.")
        lines.extend(service_lines)

    if stream_metrics is not None:
        stream_lines: List[str] = []
        _emit_numeric(stream_lines, "ksir_streams", stream_metrics)
        if stream_lines:
            lines.append(
                "# HELP ksir_streams_* Event-time ingest lateness/watermark "
                "gauges."
            )
            lines.extend(stream_lines)

    return "\n".join(lines) + "\n"
