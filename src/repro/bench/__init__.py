"""Paper-artefact regeneration: registry, runner, reports.

Quick tour:

* :mod:`repro.bench.spec` — declarative :class:`BenchSpec` definitions and
  the process-wide registry (``register`` / ``get_spec`` / ``iter_specs``).
* :mod:`repro.bench.runner` — ``run_spec`` regenerates one tier of a spec,
  runs its shape check and returns the :class:`BenchReport` whose ``save``
  writes ``BENCH_<name>.json`` plus the rendered ``<name>.txt``.
* :mod:`repro.bench.suites` — the built-in suite: the paper's Figures 7–14,
  Tables 3/5/6 and the two ablations.
* :mod:`repro.bench.scripts` — the uniform ``main()``/pytest wrapper used
  by the thin ``benchmarks/bench_*.py`` shims.

Speed is measured and gated in one place only, the frozen end-to-end
benchmark under ``benchmarks/e2e/`` (``BENCHMARK.json``).
"""

from repro.bench.runner import BenchReport, run_spec
from repro.bench.spec import (
    BenchSpec,
    Outcome,
    get_spec,
    iter_specs,
    register,
    spec_names,
)

__all__ = [
    "BenchReport",
    "BenchSpec",
    "Outcome",
    "get_spec",
    "iter_specs",
    "register",
    "run_spec",
    "spec_names",
]
