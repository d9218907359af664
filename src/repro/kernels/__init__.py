"""Native-speed hot-path kernels behind a registry seam.

The kernel layer gives every hot inner loop of the reproduction two
interchangeable implementations — a pure-NumPy reference and an optional
Numba-compiled variant — behind one :func:`get_kernel` lookup, mirroring
the execution-backend, transport and stream-source registries:

======================  ==============================================
kernel                  hot path it backs
======================  ==============================================
``delta_topic_sums``    touched-parent δ-recompute (gather + segmented
                        reduce over the store's ``P[rows, z]`` matrix)
``ranked_merge``        ``DescendingSortedList.bulk_insert`` /
                        ``RankedListIndex.bulk_update`` merge order
``window_scan``         window-expiry mask + free-row recycling scan
``positive_counts``     per-topic candidate counting in the profile
                        builder (thresholded segmented reduce)
======================  ==============================================

Selection is process-wide via :func:`configure_kernels` (driven by the
``kernels`` section of :class:`~repro.api.config.EngineConfig` and the
``--kernels`` CLI flag): ``auto`` compiles when Numba is importable and
silently falls back otherwise, so the package keeps zero new hard
dependencies.  Every call is timed into :func:`kernel_stats`, the
payload behind ``KSIREngine.stats()["kernels"]`` and the
``ksir_kernel_*`` Prometheus gauges.

Custom kernels register exactly like custom backends::

    from repro.kernels import register_kernel

    register_kernel("my_kernel", my_numpy_reference, my_compiled_variant)
"""

from repro.kernels import numpy_impl
from repro.kernels.registry import (
    KERNEL_CHOICES,
    KernelHandle,
    active_kernel_backend,
    configure_kernels,
    get_kernel,
    kernel_mode,
    kernel_names,
    kernel_stats,
    numba_available,
    register_kernel,
    reset_kernel_stats,
    use_kernels,
)
from repro.kernels.segments import segment_sums

register_kernel("delta_topic_sums", numpy_impl.delta_topic_sums)
register_kernel("ranked_merge", numpy_impl.ranked_merge)
register_kernel("window_scan", numpy_impl.window_scan)
register_kernel("positive_counts", numpy_impl.positive_counts)

__all__ = [
    "KERNEL_CHOICES",
    "KernelHandle",
    "active_kernel_backend",
    "configure_kernels",
    "get_kernel",
    "kernel_mode",
    "kernel_names",
    "kernel_stats",
    "numba_available",
    "register_kernel",
    "reset_kernel_stats",
    "segment_sums",
    "use_kernels",
]
