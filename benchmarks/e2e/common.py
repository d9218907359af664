"""Shared pieces of the benchmark: the metric contract, checks, statistics.

``BENCHMARK.json`` at the repository root is the single list of workload
and metric names, units, directions and bounds; this module loads it so
the runner, the comparison and the smoke test cannot drift from it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

import gen
from repro import ProcessorConfig
from repro.kernels import kernel_stats

E2E_DIR = Path(__file__).resolve().parent
ROOT = E2E_DIR.parents[1]
OUT_DIR = E2E_DIR / "out"

#: How many fixed queries the after-timing quality check runs per algorithm.
VERIFY_QUERIES = 40
#: ``score_ratio`` below this fails the run (MTTS/MTTD promise ≥ (1/2 − ε)
#: of the optimum; against CELF on real windows they sit near 1).
MIN_SCORE_RATIO = 0.9


# ``archive_windows=1``: with the default of 8 the archive keeps filling for
# 864 buckets and only then starts to be trimmed, so no affordable prefill
# reaches a steady state; at 1 the 96-bucket prefill does, and every timed
# bucket pays the trim as a long-running engine would.
PROCESSOR = ProcessorConfig(
    window_length=gen.WINDOW_LENGTH,
    bucket_length=gen.BUCKET_LENGTH,
    archive_windows=1,
)


# -- host speed ------------------------------------------------------------------
#
# The reference box is a few cores of a shared host whose speed moves by
# 25-55 % within minutes (the same bucket of the same stream: 27 ms, then
# 43 ms), so raw times of identical work spread 16-26 % between runs, at or
# past the widest regression bound the benchmark may state.  Every pass
# therefore times a small fixed kernel of its own (interpreter work plus
# NumPy gather, sort and scan, the engine's mix) between operations, and
# every timed sample is divided by the speed index around it: the median
# kernel time of the nearest calibrations over ``CALIBRATION_NOMINAL_S``.  An
# index of 1.25 says the host ran the kernel 25 % slower than nominal just
# then; "ms" then means ms on a host at nominal speed.  Measured on identical
# work this halves the run-to-run spread (to 5-12 %).  The pass's median
# index is in every report (``speed_index``, per-layer ``host.speed_index``).

#: About what one ``calibrate()`` takes on the reference box (0.8-1.2 ms).
CALIBRATION_NOMINAL_S = 1.0e-3
_CALIBRATION_SIZE = 32_768
_CALIBRATION_VALUES = np.random.default_rng(0).random(_CALIBRATION_SIZE)
_CALIBRATION_ORDER = np.random.default_rng(1).integers(0, _CALIBRATION_SIZE, _CALIBRATION_SIZE)
_CALIBRATION_OUT = np.empty(_CALIBRATION_SIZE)


def calibrate() -> float:
    """Seconds the fixed calibration kernel took just now."""
    started = perf_counter()
    total = 0
    for value in range(9_000):
        total += value * value
    np.take(_CALIBRATION_VALUES, _CALIBRATION_ORDER, out=_CALIBRATION_OUT)
    _CALIBRATION_OUT.sort()
    np.cumsum(_CALIBRATION_OUT, out=_CALIBRATION_OUT)
    return perf_counter() - started


#: A sample is scaled by the median of this many calibration samples around it
#: (about a second of a closed loop): the host also moves within a run, in
#: bursts that a whole-run index leaves in every p95.
LOCAL_CALIBRATIONS = 11
#: Calibration samples taken on each side of a set-up, which is scaled by
#: their median.
SETUP_CALIBRATIONS = 15


class HostSpeed:
    """Calibration samples of one phase and the speed indexes they give."""

    def __init__(self, samples: Iterable[float] = (), times: Iterable[float] = ()) -> None:
        self.samples: List[float] = list(samples)
        self.times: List[float] = list(times)

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(calibrate())
            self.times.append(perf_counter())

    @property
    def index(self) -> float:
        """Median kernel time of the whole phase ÷ nominal."""
        return statistics.median(self.samples) / CALIBRATION_NOMINAL_S

    def index_at(self, times: Sequence[float]) -> np.ndarray:
        """The index around each of ``times`` (``perf_counter`` readings)."""
        values = np.asarray(self.samples) / CALIBRATION_NOMINAL_S
        if values.shape[0] <= LOCAL_CALIBRATIONS:
            return np.full(len(times), float(np.median(values)))
        medians = np.median(
            np.lib.stride_tricks.sliding_window_view(values, LOCAL_CALIBRATIONS), axis=1
        )
        first = np.searchsorted(np.asarray(self.times), np.asarray(times))
        return medians[np.clip(first - LOCAL_CALIBRATIONS // 2, 0, medians.shape[0] - 1)]


def load_contract() -> Dict[str, object]:
    """The parsed ``BENCHMARK.json``."""
    with (ROOT / "BENCHMARK.json").open() as handle:
        return json.load(handle)


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 − Q1) ÷ median, the run-to-run spread the contract uses."""
    if len(values) < 2:
        return 0.0
    first, median, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(median) if median else float("inf")


def rss_mb(pid: Optional[int] = None) -> float:
    """Resident set size of a process in MiB (Linux ``/proc``)."""
    with open(f"/proc/{pid or os.getpid()}/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


def host_rss_mb() -> float:
    """RSS of this process plus every child process it has started."""
    total = rss_mb()
    for child in multiprocessing.active_children():
        if child.pid is not None:
            try:
                total += rss_mb(child.pid)
            except OSError:  # the child exited between listing and reading
                pass
    return total


def environment() -> Dict[str, object]:
    """The environment block recorded with every report."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "kernel_backend": kernel_stats()["backend"],
        "argv": sys.argv[1:],
    }


@dataclass
class Checker:
    """Counts attempted and failed operations; keeps the first messages."""

    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)

    def ok(self, condition: bool, message: str) -> bool:
        """Record one attempted operation; ``message`` explains a failure."""
        self.attempted += 1
        if not condition:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return bool(condition)

    @property
    def ok_share(self) -> float:
        return 1.0 - self.failed / max(1, self.attempted)


def check_answer(
    check: Checker, element_ids: Iterable[int], k: int, oldest_id: int, newest_id: int, where: str
) -> None:
    """An answer is 1..k distinct ids of elements that can still be active."""
    ids = list(element_ids)
    check.ok(
        0 < len(ids) <= k
        and len(set(ids)) == len(ids)
        and all(oldest_id <= element_id <= newest_id for element_id in ids),
        f"{where}: malformed answer {ids[:8]} (k={k}, active ids {oldest_id}..{newest_id})",
    )


@dataclass
class PassResult:
    """Everything one pass (one workload, traced or not) measured."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    input_sha256: str
    elapsed_s: float
    end_to_end: Dict[str, float]
    samples: Dict[str, int]
    per_layer: Dict[str, float]
    check: Checker
    info: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "traced": self.traced,
            "input_sha256": self.input_sha256,
            "elapsed_s": self.elapsed_s,
            "end_to_end": self.end_to_end,
            "samples": self.samples,
            "per_layer": self.per_layer,
            "attempted": self.check.attempted,
            "failed": self.check.failed,
            "failures": self.check.messages,
            "info": self.info,
        }


def timing_metrics(
    prefix: str,
    seconds: Sequence[float],
    speed_index: np.ndarray,
    into: Dict[str, float],
    samples: Dict[str, int],
    segments: int = 1,
) -> None:
    """``<prefix>_p50`` and ``<prefix>_p95`` in nominal-speed ms, with their n.

    ``speed_index`` holds one index per sample.  With ``segments`` > 1 the
    samples are cut into that many consecutive runs and the median of the
    runs' percentiles is reported.
    """
    scaled = np.asarray(seconds) * 1e3 / speed_index
    for q in (50, 95):
        parts = [np.percentile(part, q) for part in np.array_split(scaled, segments)]
        into[f"{prefix}_p{q}"] = float(np.median(parts))
    samples[f"{prefix}_p50"] = samples[f"{prefix}_p95"] = len(seconds)
