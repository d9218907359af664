"""Table 6 — quantitative coverage / influence of every query method.

Thin wrapper over the ``table6_quantitative`` spec in the :mod:`repro.bench` registry.
Run as a script (``python benchmarks/bench_table6_quantitative.py [--tier tiny|full] [--seed N]
[--output-dir DIR]``, tiny by default) — the same command as
``repro-ksir bench run table6_quantitative``.  Under pytest the tiny tier is executed as a
smoke test.
"""

from __future__ import annotations

import sys

from repro.bench.scripts import bench_script

main, test_tiny_tier = bench_script("table6_quantitative")

if __name__ == "__main__":
    sys.exit(main())
