"""Ablation — sort-on-read ranked lists vs re-sorting on every change.

Thin wrapper over the ``ablation_ranked_list`` spec in the :mod:`repro.bench` registry.
Run as a script (``python benchmarks/bench_ablation_ranked_list.py [--tier tiny|full] [--seed N]
[--output-dir DIR]``, tiny by default) — the same command as
``repro-ksir bench run ablation_ranked_list``.  Under pytest the tiny tier is executed as a
smoke test.
"""

from __future__ import annotations

import sys

from repro.bench.scripts import bench_script

main, test_tiny_tier = bench_script("ablation_ranked_list")

if __name__ == "__main__":
    sys.exit(main())
