"""Figure 7 — MTTS / MTTD query time as the approximation parameter ε varies.

Thin wrapper over the ``fig7_epsilon_time`` spec in the :mod:`repro.bench` registry.
Run as a script (``python benchmarks/bench_fig7_epsilon_time.py [--tier tiny|full] [--seed N]
[--output-dir DIR]``, tiny by default) — the same command as
``repro-ksir bench run fig7_epsilon_time``.  Under pytest the tiny tier is executed as a
smoke test.
"""

from __future__ import annotations

import sys

from repro.bench.scripts import bench_script

main, test_tiny_tier = bench_script("fig7_epsilon_time")

if __name__ == "__main__":
    sys.exit(main())
