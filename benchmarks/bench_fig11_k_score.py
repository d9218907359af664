"""Figure 11 — result quality of all five methods as the result size k varies.

Thin wrapper over the ``fig11_k_score`` spec in the :mod:`repro.bench` registry.
Run as a script (``python benchmarks/bench_fig11_k_score.py [--tier tiny|full] [--seed N]
[--output-dir DIR]``, tiny by default) — the same command as
``repro-ksir bench run fig11_k_score``.  Under pytest the tiny tier is executed as a
smoke test.
"""

from __future__ import annotations

import sys

from repro.bench.scripts import bench_script

main, test_tiny_tier = bench_script("fig11_k_score")

if __name__ == "__main__":
    sys.exit(main())
