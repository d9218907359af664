"""Table 3 — dataset statistics of the three synthetic stand-in streams.

Thin wrapper over the ``table3_datasets`` spec in the :mod:`repro.bench` registry.
Run as a script (``python benchmarks/bench_table3_datasets.py [--tier tiny|full] [--seed N]
[--output-dir DIR]``, tiny by default) — the same command as
``repro-ksir bench run table3_datasets``.  Under pytest the tiny tier is executed as a
smoke test.
"""

from __future__ import annotations

import sys

from repro.bench.scripts import bench_script

main, test_tiny_tier = bench_script("table3_datasets")

if __name__ == "__main__":
    sys.exit(main())
