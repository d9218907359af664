"""Figure 14 — per-element ranked-list update time vs z and vs T.

Thin wrapper over the ``fig14_update_time`` spec in the :mod:`repro.bench` registry.
Run as a script (``python benchmarks/bench_fig14_update_time.py [--tier tiny|full] [--seed N]
[--output-dir DIR]``, tiny by default) — the same command as
``repro-ksir bench run fig14_update_time``.  Under pytest the tiny tier is executed as a
smoke test.
"""

from __future__ import annotations

import sys

from repro.bench.scripts import bench_script

main, test_tiny_tier = bench_script("fig14_update_time")

if __name__ == "__main__":
    sys.exit(main())
