"""Figure 13 — query time as the sliding-window length T varies.

Thin wrapper over the ``fig13_window_time`` spec in the :mod:`repro.bench` registry.
Run as a script (``python benchmarks/bench_fig13_window_time.py [--tier tiny|full] [--seed N]
[--output-dir DIR]``, tiny by default) — the same command as
``repro-ksir bench run fig13_window_time``.  Under pytest the tiny tier is executed as a
smoke test.
"""

from __future__ import annotations

import sys

from repro.bench.scripts import bench_script

main, test_tiny_tier = bench_script("fig13_window_time")

if __name__ == "__main__":
    sys.exit(main())
