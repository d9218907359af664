"""Ablation — MTTD's lazy-heap candidate buffer vs a linear-scan buffer.

Thin wrapper over the ``ablation_lazy_buffer`` spec in the :mod:`repro.bench` registry.
Run as a script (``python benchmarks/bench_ablation_lazy_buffer.py [--tier tiny|full] [--seed N]
[--output-dir DIR]``, tiny by default) — the same command as
``repro-ksir bench run ablation_lazy_buffer``.  Under pytest the tiny tier is executed as a
smoke test.
"""

from __future__ import annotations

import sys

from repro.bench.scripts import bench_script

main, test_tiny_tier = bench_script("ablation_lazy_buffer")

if __name__ == "__main__":
    sys.exit(main())
