"""In-memory spans around the system's public callables.

The benchmark does not edit the program to trace it: :func:`install`
wraps the layer entry points listed in :data:`TARGETS` from the outside,
for the traced pass only.  A span is ``(layer, start_ns, end_ns, parent,
thread, tag)``; spans nest per thread, a layer's *self time* is its
spans' duration minus what their child spans cover, and everything stays
in a list until the run ends (:func:`write_chrome_trace`).

A target that no longer resolves (renamed or removed callable) is
recorded in :attr:`Tracer.missing` and reported as such — the benchmark
keeps running, and its end-to-end metrics never depend on this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from bisect import bisect_right
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (layer, module, dotted attribute).  Several callables may feed one layer;
#: nested calls within a layer are handled by the self-time subtraction.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("api.overhead", "repro.api.engine", "KSIREngine.ingest_bucket"),
    ("api.overhead", "repro.api.engine", "KSIREngine.query"),
    ("topics.infer", "repro.topics.inference", "TopicInferencer.infer"),
    ("topics.infer", "repro.topics.inference", "TopicInferencer.infer_many"),
    ("streams.push", "repro.streams.watermark", "StreamIngestor.push_many"),
    ("streams.push", "repro.streams.watermark", "StreamIngestor.flush"),
    ("core.process_bucket", "repro.core.processor", "KSIRProcessor.process_bucket"),
    ("core.profile_build", "repro.core.scoring", "ProfileBuilder.build_many"),
    ("core.ranked_update", "repro.core.ranked_list", "RankedListIndex.bulk_update"),
    ("store.advance", "repro.store.window", "ColumnarWindow.advance_to"),
    ("store.insert", "repro.store.window", "ColumnarWindow.insert_many"),
    ("core.snapshot", "repro.core.processor", "KSIRProcessor.snapshot"),
    ("core.query", "repro.core.processor", "KSIRProcessor.query"),
    ("service.ingest", "repro.service.engine", "ServiceEngine.ingest_bucket"),
    ("server.decode", "repro.server.json_codec", "parse_events"),
    ("server.hub", "repro.server.hub", "PushHub.on_update"),
    ("cluster.scatter", "repro.cluster.coordinator", "ClusterCoordinator.process_bucket"),
    ("cluster.query", "repro.cluster.coordinator", "ClusterCoordinator.query"),
    ("cluster.merge", "repro.cluster.merge", "merge_candidate_pools"),
)

#: Every layer a span can carry (``core.query`` splits by answer algorithm).
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(
        [layer for layer, _, _ in TARGETS if layer != "core.query"]
        + ["core.query_mtts", "core.query_mttd", "core.query_other"]
    )
)

#: Layers whose spans the load generator opens itself.
EXTRA_LAYERS: Tuple[str, ...] = (
    "server.http", "loadgen.prepare", "loadgen.idle", "loadgen.calibrate"
)

#: The four hot-path kernels ``repro.kernels.kernel_stats()`` counts.
KERNELS: Tuple[str, ...] = (
    "delta_topic_sums", "ranked_merge", "window_scan", "positive_counts",
)

Span = Tuple[str, int, int, int, int, object]


class Tracer:
    """Collects spans; one instance per process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        #: Stamped on every root span: the load generator sets it to the
        #: bucket or query it is about to issue.
        self.tag: object = None
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str) -> int:
        """Open a span on this thread; returns its index for :meth:`end`."""
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(
            (layer, perf_counter_ns(), 0, stack[-1] if stack else -1,
             threading.get_ident(), None if stack else self.tag)
        )
        stack.append(index)
        return index

    def end(self, index: int, layer: Optional[str] = None) -> None:
        """Close the span opened by :meth:`begin` (optionally renaming it)."""
        finished = perf_counter_ns()
        name, start, _, parent, thread, tag = self.spans[index]
        self.spans[index] = (layer or name, start, finished, parent, thread, tag)
        self._stack().pop()

    def wrap(self, layer: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """``function`` with a span around every call."""
        split_by_algorithm = layer == "core.query"

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.begin(layer)
            final = None
            try:
                result = function(*args, **kwargs)
                if split_by_algorithm:
                    algorithm = getattr(result, "algorithm", "")
                    final = (
                        f"core.query_{algorithm}"
                        if algorithm in ("mtts", "mttd")
                        else "core.query_other"
                    )
                return result
            finally:
                self.end(index, final)

        return traced


def _resolve(module_name: str, dotted: str) -> Tuple[object, str, Callable[..., Any]]:
    owner: object = importlib.import_module(module_name)
    *path, attribute = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute, getattr(owner, attribute)


def install(tracer: Tracer) -> None:
    """Wrap every resolvable target; call before the engine is built."""
    for layer, module_name, dotted in TARGETS:
        try:
            owner, attribute, original = _resolve(module_name, dotted)
        except (ImportError, AttributeError):
            tracer.missing.append(f"{module_name}:{dotted}")
            continue
        wrapped = tracer.wrap(layer, original)
        setattr(owner, attribute, wrapped)
        if "." not in dotted:
            # A module-level function may have been imported by name into
            # other modules of the package; rebind those references too.
            for name, module in list(sys.modules.items()):
                if name.startswith("repro.") and getattr(module, attribute, None) is original:
                    setattr(module, attribute, wrapped)


def clip(spans: Sequence[Span], start_ns: int, end_ns: int) -> List[Span]:
    """The spans that lie inside ``[start_ns, end_ns]`` (the timed phase)."""
    kept: List[Span] = []
    position: Dict[int, int] = {}
    for index, (layer, start, end, parent, thread, tag) in enumerate(spans):
        if start >= start_ns and 0 < end <= end_ns:
            position[index] = len(kept)
            kept.append((layer, start, end, position.get(parent, -1), thread, tag))
    return kept


def adopt(own: Sequence[Span], host_layer: str, children: Iterable[Span]) -> List[Span]:
    """Merge another process's spans under the ``host_layer`` spans containing them.

    ``own`` are this process's spans, of which the ``host_layer`` ones are
    client-side request round trips; a root span of ``children`` that lies
    inside one of them — both clocks are the system's monotonic clock —
    becomes its child, so the round trip's self time is the part the other
    process cannot explain.
    """
    merged = list(own)
    hosts = sorted(
        (start, end, index)
        for index, (layer, start, end, _, _, _) in enumerate(own)
        if layer == host_layer
    )
    starts = [host[0] for host in hosts]
    offset = len(merged)
    for layer, start, end, parent, thread, tag in children:
        if parent >= 0:
            parent += offset
        else:
            position = bisect_right(starts, start) - 1
            if position >= 0 and hosts[position][1] >= end:
                parent = hosts[position][2]
        merged.append((layer, start, end, parent, thread, tag))
    return merged


def self_times(spans: Sequence[Span]) -> Dict[str, Tuple[float, int]]:
    """``layer → (self milliseconds, calls)`` over ``spans``."""
    child_time = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, Tuple[float, int]] = {}
    for index, (layer, start, end, _, _, _) in enumerate(spans):
        self_ns = max(0, end - start - child_time[index])
        previous = totals.get(layer, (0.0, 0))
        totals[layer] = (previous[0] + self_ns / 1e6, previous[1] + 1)
    return totals


def write_chrome_trace(path: Path, spans: Sequence[Span]) -> None:
    """Write ``spans`` in the Chrome trace-event format (``chrome://tracing``)."""
    origin = min((span[1] for span in spans), default=0)
    events = []
    for index, (layer, start, end, parent, thread, tag) in enumerate(spans):
        events.append(
            {
                "name": layer,
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 0,
                "tid": thread,
                "args": {"id": index, "parent": parent, "tag": tag},
            }
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def layer_metrics(
    spans: Sequence[Span], missing: Sequence[str], elapsed_s: float
) -> Dict[str, float]:
    """``<layer>_ms`` / ``<layer>_calls`` for every layer, plus coverage.

    A layer none of whose targets resolved reads −1 (``missing``), a layer
    that simply did no work on this workload reads 0.  ``trace.coverage``
    is the share of the traced elapsed time the self times account for.
    """
    totals = self_times(spans)
    unresolved = {
        layer
        for layer, module_name, dotted in TARGETS
        if f"{module_name}:{dotted}" in missing
    }
    resolved = {
        layer
        for layer, module_name, dotted in TARGETS
        if f"{module_name}:{dotted}" not in missing
    }
    metrics: Dict[str, float] = {}
    for layer in LAYERS + EXTRA_LAYERS:
        base = "core.query" if layer.startswith("core.query_") else layer
        if base in unresolved and base not in resolved:
            self_ms, calls = -1.0, -1
        else:
            self_ms, calls = totals.get(layer, (0.0, 0))
        metrics[f"{layer}_ms"] = self_ms
        metrics[f"{layer}_calls"] = float(calls)
    explained = sum(self_ms for self_ms, _ in totals.values())
    metrics["trace.coverage"] = explained / (elapsed_s * 1e3)
    return metrics


def kernel_metrics(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """Per-kernel milliseconds and calls between two ``kernel_stats()`` reads."""
    metrics: Dict[str, float] = {
        "kernels.backend": 1.0 if after.get("backend") == "numba" else 0.0
    }
    for name in KERNELS:
        new = after.get("per_kernel", {}).get(name)
        if new is None:
            metrics[f"kernels.{name}_ms"] = metrics[f"kernels.{name}_calls"] = -1.0
            continue
        old = before.get("per_kernel", {}).get(name, {"calls": 0, "total_ns": 0})
        metrics[f"kernels.{name}_ms"] = (new["total_ns"] - old["total_ns"]) / 1e6
        metrics[f"kernels.{name}_calls"] = float(new["calls"] - old["calls"])
    return metrics
