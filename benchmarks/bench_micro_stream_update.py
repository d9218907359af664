"""Micro-benchmark — bucket-ingest throughput of the batched ingest path.

Thin wrapper over the ``micro_stream_update`` spec in the :mod:`repro.bench` registry.
Run as a script (``python benchmarks/bench_micro_stream_update.py [--tier tiny|full] [--seed N]
[--output-dir DIR]``; ``--tiny`` is an alias for ``--tier tiny``) or through
``repro-ksir bench run micro_stream_update``.  Under pytest the tiny tier is executed as
a smoke test.
"""

from __future__ import annotations

import sys

from repro.bench.scripts import bench_script

main, test_tiny_tier = bench_script("micro_stream_update")

if __name__ == "__main__":
    sys.exit(main())
