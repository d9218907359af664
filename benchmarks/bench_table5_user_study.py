"""Table 5 — the simulated user study (representativeness / impact ratings).

Thin wrapper over the ``table5_user_study`` spec in the :mod:`repro.bench` registry.
Run as a script (``python benchmarks/bench_table5_user_study.py [--tier tiny|full] [--seed N]
[--output-dir DIR]``, tiny by default) — the same command as
``repro-ksir bench run table5_user_study``.  Under pytest the tiny tier is executed as a
smoke test.
"""

from __future__ import annotations

import sys

from repro.bench.scripts import bench_script

main, test_tiny_tier = bench_script("table5_user_study")

if __name__ == "__main__":
    sys.exit(main())
