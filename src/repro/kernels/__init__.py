"""The four hot-path kernels: NumPy functions, each behind a call timer.

======================  ==============================================
kernel                  hot path it backs
======================  ==============================================
``delta_topic_sums``    touched-parent δ-recompute (gather + segmented
                        reduce over the store's ``P[rows, z]`` matrix)
``ranked_merge``        the first read of a changed ranked list
                        (``DescendingSortedList.columns`` order)
``window_scan``         window-expiry mask + free-row recycling scan
``positive_counts``     per-topic candidate counting in the profile
                        builder (thresholded segmented reduce)
======================  ==============================================

The bodies live in :mod:`repro.kernels.numpy_impl`; this module wraps each
once in a ``perf_counter_ns`` timer, and the call sites import the wrapped
names.  :func:`kernel_stats` reads the counters: it is the payload behind
``KSIREngine.stats()["kernels"]`` and the ``ksir_kernel_*`` Prometheus
counters.
"""

from __future__ import annotations

from functools import wraps
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, TypeVar, cast

from repro.kernels import numpy_impl
from repro.kernels.segments import segment_sums

_F = TypeVar("_F", bound=Callable[..., Any])

#: Kernel name → ``[calls, total_ns]``, process-wide.
_COUNTERS: Dict[str, List[int]] = {}


def _timed(kernel: _F) -> _F:
    """``kernel`` counting its calls and nanoseconds into ``_COUNTERS``."""
    counters = _COUNTERS[kernel.__name__] = [0, 0]

    @wraps(kernel)
    def timed(*args: Any) -> Any:
        started = perf_counter_ns()
        try:
            return kernel(*args)
        finally:
            counters[0] += 1
            counters[1] += perf_counter_ns() - started

    return cast(_F, timed)


delta_topic_sums = _timed(numpy_impl.delta_topic_sums)
ranked_merge = _timed(numpy_impl.ranked_merge)
window_scan = _timed(numpy_impl.window_scan)
positive_counts = _timed(numpy_impl.positive_counts)


def kernel_stats() -> Dict[str, Any]:
    """Cumulative per-kernel calls and nanoseconds since the process started::

        {"backend": "numpy",
         "per_kernel": {"ranked_merge": {"calls": 12, "total_ns": 83210}, ...}}

    Counters are process-wide and only grow: every engine in the process
    shares them, so a caller measures a span as the difference of two reads.
    """
    per_kernel = {
        name: {"calls": calls, "total_ns": total_ns}
        for name, (calls, total_ns) in sorted(_COUNTERS.items())
    }
    return {"backend": "numpy", "per_kernel": per_kernel}


__all__ = [
    "delta_topic_sums",
    "kernel_stats",
    "positive_counts",
    "ranked_merge",
    "segment_sums",
    "window_scan",
]
