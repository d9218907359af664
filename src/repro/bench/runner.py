"""Artefact regeneration: run one tier of a spec, check it, report it.

:func:`run_spec` regenerates one tier of a
:class:`~repro.bench.spec.BenchSpec` and runs the spec's shape check, which
flips ``checks_passed`` on assertion failure rather than aborting the run
(CI still fails through the exit code, but the report and the rendered
artefact are always written).

Nothing here measures speed: the wall-clock figures carry the times the
experiments took inside their panels, ``elapsed_s`` is how long the
regeneration took, and a speed claim is made on the end-to-end benchmark
(``benchmarks/e2e/README.md``), never on these reports.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from repro.bench.spec import BenchSpec
from repro.kernels import active_kernel_backend, numba_available


@dataclass
class BenchReport:
    """One artefact's regeneration record for one tier.

    :meth:`save` writes every field but ``artefact`` to
    ``BENCH_<benchmark>.json`` and the rendered artefact itself to
    ``<benchmark>.txt`` next to it.
    """

    benchmark: str
    tier: str
    seed: int
    params: Dict[str, Any]
    environment: Dict[str, Any]
    created_unix: float
    elapsed_s: float
    checks_passed: bool = True
    check_error: Optional[str] = None
    artefact: str = field(default="", compare=False, repr=False)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-serialisable form (everything but the artefact text)."""
        data = asdict(self)
        del data["artefact"]
        return data

    def save(self, directory: Path) -> Path:
        """Write the report and its artefact under ``directory``; returns the JSON path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{self.benchmark}.json"
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")
        if self.artefact:
            (directory / f"{self.benchmark}.txt").write_text(
                self.artefact + "\n", encoding="utf-8"
            )
        return path

    @classmethod
    def load(cls, path: Path) -> "BenchReport":
        """Read a report file written by :meth:`save`."""
        return cls(**json.loads(Path(path).read_text(encoding="utf-8")))

    def summary(self) -> str:
        """One line: what ran and whether its shape checks held."""
        return (
            f"{self.benchmark} [{self.tier}] seed={self.seed} "
            f"{self.elapsed_s:.1f}s checks={'ok' if self.checks_passed else 'FAILED'}"
        )


def capture_environment() -> Dict[str, Any]:
    """Machine/interpreter metadata recorded in every report."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "numpy": np.__version__,
        "kernels": active_kernel_backend(),
        "numba_available": numba_available(),
    }


def run_spec(spec: BenchSpec, tier: str = "tiny", seed: int = 2019) -> BenchReport:
    """Regenerate one tier of a spec and run its shape check."""
    params = spec.tiers[tier]
    start = time.perf_counter()
    outcome = spec.run(params, seed)
    elapsed = time.perf_counter() - start
    report = BenchReport(
        benchmark=spec.name,
        tier=tier,
        seed=seed,
        params=dict(params),
        environment=capture_environment(),
        created_unix=time.time(),
        elapsed_s=elapsed,
        artefact=outcome.artefact,
    )
    try:
        spec.check(outcome.value, tier)
    except AssertionError as failure:
        report.checks_passed = False
        report.check_error = str(failure) or failure.__class__.__name__
    return report
