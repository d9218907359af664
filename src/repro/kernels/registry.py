"""The process-wide kernel registry and backend selection.

Every hot inner loop of the reproduction — the touched-parent
δ-recompute, ranked-list merging, window-expiry scanning, profile
thresholding — runs behind a named :class:`KernelHandle` resolved
through this registry, mirroring the execution-backend, transport and
stream-source registries.  Each handle carries two implementations:

* a **pure-NumPy reference** (always present, always correct), and
* an optional **compiled** variant (Numba ``@njit``), attached lazily
  the first time the compiled path is requested and the ``numba``
  package is importable.

Selection is process-wide (kernels sit far below the per-engine
configuration layers) and driven by :func:`configure_kernels` with one
of three modes:

``auto``
    Use the compiled implementation when Numba is importable, silently
    fall back to the reference otherwise.  The default — zero new hard
    dependencies.
``numba``
    Require the compiled path; raises :class:`ValueError` when Numba is
    not installed.
``numpy``
    Force the reference implementations (useful for A/B benchmarking
    and equivalence testing).

Every call through a handle is timed (``time.perf_counter_ns``) into
per-kernel cumulative counters surfaced by :func:`kernel_stats` — the
payload behind ``KSIREngine.stats()["kernels"]`` and the server's
``ksir_kernel_*`` gauges.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

#: Kernel selection modes accepted by :func:`configure_kernels`.
KERNEL_CHOICES: Tuple[str, ...] = ("auto", "numba", "numpy")

#: A kernel implementation: pure array in, array out.
KernelImpl = Callable[..., Any]


class KernelHandle:
    """One named kernel: reference + optional compiled impl, with timers.

    Handles are created by :func:`register_kernel` and looked up with
    :func:`get_kernel`; their identity is stable across re-registration,
    so call sites may cache the handle at module import time.  Calling
    the handle dispatches to the active implementation and accumulates
    wall-time nanoseconds and call counts.
    """

    __slots__ = ("name", "numpy_impl", "numba_impl", "calls", "total_ns")

    def __init__(self, name: str, numpy_impl: KernelImpl) -> None:
        self.name = name
        self.numpy_impl = numpy_impl
        self.numba_impl: Optional[KernelImpl] = None
        self.calls = 0
        self.total_ns = 0

    @property
    def backend(self) -> str:
        """The implementation this handle would dispatch to right now."""
        if _compiled_active() and self.numba_impl is not None:
            return "numba"
        return "numpy"

    def __call__(self, *args: Any) -> Any:
        if _compiled_active() and self.numba_impl is not None:
            impl = self.numba_impl
        else:
            impl = self.numpy_impl
        started = perf_counter_ns()
        try:
            return impl(*args)
        finally:
            self.calls += 1
            self.total_ns += perf_counter_ns() - started

    def reset(self) -> None:
        """Zero this kernel's timing counters."""
        self.calls = 0
        self.total_ns = 0

    def __repr__(self) -> str:
        return (
            f"KernelHandle({self.name!r}, backend={self.backend!r}, "
            f"calls={self.calls}, total_ns={self.total_ns})"
        )


_REGISTRY: Dict[str, KernelHandle] = {}

#: The configured selection mode (one of :data:`KERNEL_CHOICES`).
_MODE: str = "auto"

#: Tri-state Numba probe: ``None`` = not yet attempted.
_NUMBA_READY: Optional[bool] = None


def register_kernel(
    name: str, numpy_impl: KernelImpl, numba_impl: Optional[KernelImpl] = None
) -> KernelHandle:
    """Register (or re-register) a kernel under a canonical name.

    Re-registering an existing name swaps the implementations **in
    place** — the handle object is reused, so call sites that cached it
    pick up the replacement (useful for tests and instrumented builds).
    """
    key = name.strip().lower()
    if not key:
        raise ValueError("kernel names must be non-empty")
    handle = _REGISTRY.get(key)
    if handle is None:
        handle = KernelHandle(key, numpy_impl)
        _REGISTRY[key] = handle
    else:
        handle.numpy_impl = numpy_impl
    if numba_impl is not None:
        handle.numba_impl = numba_impl
    return handle


def attach_numba(name: str, numba_impl: KernelImpl) -> None:
    """Attach a compiled implementation to an already-registered kernel."""
    get_kernel(name).numba_impl = numba_impl


def get_kernel(name: str) -> KernelHandle:
    """Look up a registered kernel handle by name."""
    key = name.strip().lower()
    try:
        return _REGISTRY[key]
    except KeyError as error:
        available = ", ".join(sorted(_REGISTRY)) or "<none registered>"
        raise KeyError(
            f"unknown kernel {name!r}; registered: {available}"
        ) from error


def kernel_names() -> Tuple[str, ...]:
    """The registered kernel names, sorted."""
    return tuple(sorted(_REGISTRY))


# -- backend selection ----------------------------------------------------------------


def _numba_ready() -> bool:
    """Probe (once) whether compiled kernels can be installed."""
    global _NUMBA_READY
    if _NUMBA_READY is None:
        try:
            from repro.kernels import numba_impl

            numba_impl.install()
        except Exception:
            _NUMBA_READY = False
        else:
            _NUMBA_READY = True
    return _NUMBA_READY


def _compiled_active() -> bool:
    return _MODE != "numpy" and _numba_ready()


def configure_kernels(mode: str) -> str:
    """Select the process-wide kernel backend; returns the resolved backend.

    ``mode`` is one of :data:`KERNEL_CHOICES`.  ``"numba"`` raises
    :class:`ValueError` when Numba is not importable; ``"auto"`` falls
    back to the NumPy reference silently.  The return value is the
    backend actually in effect (``"numba"`` or ``"numpy"``).
    """
    global _MODE
    key = mode.strip().lower()
    if key not in KERNEL_CHOICES:
        available = ", ".join(KERNEL_CHOICES)
        raise ValueError(f"unknown kernel mode {mode!r}; available: {available}")
    if key == "numba" and not _numba_ready():
        raise ValueError(
            "kernel mode 'numba' requires the numba package "
            "(pip install 'repro-ksir[kernels]'); use 'auto' to fall back "
            "to the NumPy reference when it is absent"
        )
    _MODE = key
    return active_kernel_backend()


def kernel_mode() -> str:
    """The configured selection mode (``auto``/``numba``/``numpy``)."""
    return _MODE


def active_kernel_backend() -> str:
    """The backend actually dispatching right now: ``numba`` or ``numpy``."""
    return "numba" if _compiled_active() else "numpy"


def numba_available() -> bool:
    """Whether compiled kernels can be (or have been) installed."""
    return _numba_ready()


@contextmanager
def use_kernels(mode: str) -> Iterator[str]:
    """Temporarily select a kernel mode (tests and A/B benchmarks)."""
    previous = _MODE
    resolved = configure_kernels(mode)
    try:
        yield resolved
    finally:
        configure_kernels(previous)


# -- profiling -------------------------------------------------------------------------


def kernel_stats() -> Dict[str, Any]:
    """Cumulative per-kernel timing since the last reset.

    The mapping feeds ``KSIREngine.stats()["kernels"]`` and the server's
    ``ksir_kernel_*`` gauges::

        {"backend": "numpy",
         "per_kernel": {"ranked_merge": {"calls": 12, "total_ns": 83210}, ...}}

    Counters are process-wide: every engine in the process shares the
    kernel layer, exactly like the registry itself.
    """
    per_kernel: Dict[str, Dict[str, int]] = {
        name: {"calls": handle.calls, "total_ns": handle.total_ns}
        for name, handle in sorted(_REGISTRY.items())
    }
    return {"backend": active_kernel_backend(), "per_kernel": per_kernel}


def reset_kernel_stats() -> None:
    """Zero every kernel's timing counters."""
    for handle in _REGISTRY.values():
        handle.reset()
