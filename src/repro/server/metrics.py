"""Prometheus text-format rendering of the serving tier's telemetry.

Exposition format 0.0.4: ``# HELP``/``# TYPE`` headers, histogram buckets
with *cumulative* counts per ``le`` bound (the store keeps per-bucket
counts, so the renderer cumulates), and every engine/service counter the
runtime exposes flattened into ``ksir_*`` gauges.  No client library — the
format is a few lines of text and this tier keeps zero hard dependencies.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.server.runtime_store import LATENCY_BUCKETS_MS, RuntimeStore


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
    store: RuntimeStore,
    engine_stats: Mapping[str, Any],
    service_metrics: Mapping[str, Any],
    ws_subscribers: int,
    stream_metrics: Optional[Mapping[str, Any]] = None,
) -> str:
    """The ``/metrics`` document."""
    lines: List[str] = []

    counters = store.counters()
    lines.append(
        "# HELP ksir_http_requests_total Requests served, by endpoint and status."
    )
    lines.append("# TYPE ksir_http_requests_total counter")
    for label, value in sorted(counters.get("http_requests", {}).items()):
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
    bounds: Tuple[float, ...] = LATENCY_BUCKETS_MS + (float("inf"),)
    for endpoint, histogram in sorted(store.histograms().items()):
        buckets: Dict[str, int] = dict(histogram["buckets"])  # type: ignore[arg-type]
        tag = _escape_label(endpoint)
        cumulative = 0
        for bound in bounds:
            label = "+Inf" if bound == float("inf") else f"{bound:g}"
            cumulative += int(buckets.get(label, 0))
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

    ws = store.ws_stats()
    lines.append(
        "# HELP ksir_ws_sessions_total WebSocket sessions opened "
        "(all restarts)."
    )
    lines.append("# TYPE ksir_ws_sessions_total counter")
    lines.append(f"ksir_ws_sessions_total {ws['sessions_total']}")
    lines.append("# HELP ksir_ws_pushes_total Deltas pushed to subscribers.")
    lines.append("# TYPE ksir_ws_pushes_total counter")
    lines.append(f"ksir_ws_pushes_total {ws['pushes_total']}")
    lines.append("# HELP ksir_ws_subscribers Live WebSocket subscriptions.")
    lines.append("# TYPE ksir_ws_subscribers gauge")
    lines.append(f"ksir_ws_subscribers {ws_subscribers}")

    for name, labelled in sorted(counters.items()):
        if name == "http_requests":
            continue
        metric = f"ksir_runtime_{_sanitise(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        for label, value in sorted(labelled.items()):
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
