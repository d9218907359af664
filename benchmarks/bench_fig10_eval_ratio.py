"""Figure 10 — fraction of active elements evaluated by MTTS / MTTD vs k.

Thin wrapper over the ``fig10_eval_ratio`` spec in the :mod:`repro.bench` registry.
Run as a script (``python benchmarks/bench_fig10_eval_ratio.py [--tier tiny|full] [--seed N]
[--output-dir DIR]``, tiny by default) — the same command as
``repro-ksir bench run fig10_eval_ratio``.  Under pytest the tiny tier is executed as a
smoke test.
"""

from __future__ import annotations

import sys

from repro.bench.scripts import bench_script

main, test_tiny_tier = bench_script("fig10_eval_ratio")

if __name__ == "__main__":
    sys.exit(main())
