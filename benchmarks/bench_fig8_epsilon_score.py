"""Figure 8 — MTTS / MTTD result quality as the approximation parameter ε varies.

Thin wrapper over the ``fig8_epsilon_score`` spec in the :mod:`repro.bench` registry.
Run as a script (``python benchmarks/bench_fig8_epsilon_score.py [--tier tiny|full] [--seed N]
[--output-dir DIR]``, tiny by default) — the same command as
``repro-ksir bench run fig8_epsilon_score``.  Under pytest the tiny tier is executed as a
smoke test.
"""

from __future__ import annotations

import sys

from repro.bench.scripts import bench_script

main, test_tiny_tier = bench_script("fig8_epsilon_score")

if __name__ == "__main__":
    sys.exit(main())
