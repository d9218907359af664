"""Hold a traced ``--smoke`` report to the counts that repeat exactly.

    python3 benchmarks/e2e/run.py --smoke --trace 1 --out report.json
    python3 tests/check_e2e_counts.py report.json

``e2e_counts.json`` holds, for the workloads whose queries run in process,
how many MTTS / MTTD queries and snapshot reads the pass makes and which
share of the active elements those queries evaluate (``core.eval_ratio``);
for ``serve_text``, how many MTTS / MTTD queries its server child runs and
which share of the standing queries each bucket re-evaluates
(``service.reeval_ratio``).  They depend on the inputs and on what the
query path evaluates, never on the clock, so a change that makes MTTS or
MTTD look at different elements, or the service re-evaluate other queries,
fails here without anything being timed.  ``core.eval_ratio`` follows from
float comparisons inside the algorithms, so the check runs where the counts
were recorded — CI's perf-smoke job pins that interpreter and NumPy major —
and refuses any other environment instead of passing there.  Re-record
(``--record``) only in a change that means to move them, from its parent
commit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

RECORDED = Path(__file__).with_name("e2e_counts.json")
COUNTS = (
    "core.eval_ratio",
    "core.query_mtts_calls",
    "core.query_mttd_calls",
    "core.snapshot_calls",
)
#: The counts held per workload.
WORKLOADS = {
    "query_mixed": COUNTS,
    "ingest_vec": COUNTS,
    "serve_text": (
        "service.reeval_ratio",
        "core.query_mtts_calls",
        "core.query_mttd_calls",
    ),
}


def float_environment() -> str:
    """What recorded float bits depend on besides this repository: whether
    ``sum()`` of floats is compensated (CPython ≥ 3.12) and NumPy's major."""
    return f"sum={sum([0.1] * 10)!r} numpy={np.__version__.split('.')[0]}"


def read_counts(report: dict) -> dict:
    if not report.get("smoke") or report.get("seed") != 2019:
        raise SystemExit("the counts are recorded for a --smoke report of seed 2019")
    return {
        workload: {
            name: report["workloads"][workload]["per_layer"][name] for name in names
        }
        for workload, names in WORKLOADS.items()
    }


def differences(recorded: dict, report: dict) -> list:
    """``workload name: recorded → read`` for every count that moved."""
    if recorded["float_environment"] != float_environment():
        raise SystemExit(
            f"the counts were recorded under {recorded['float_environment']!r}; "
            f"this is {float_environment()!r}, where nothing can be concluded"
        )
    counts = read_counts(report)
    return [
        f"{workload} {name}: {expected!r} → {counts[workload][name]!r}"
        for workload, names in recorded["counts"].items()
        for name, expected in names.items()
        if counts[workload][name] != expected
    ]


def main(argv: list) -> int:
    record = "--record" in argv
    report = json.loads(Path([a for a in argv if a != "--record"][0]).read_text())
    if record:
        RECORDED.write_text(
            json.dumps(
                {"float_environment": float_environment(), "counts": read_counts(report)},
                indent=1,
            )
            + "\n"
        )
        return 0
    moved = differences(json.loads(RECORDED.read_text()), report)
    for line in moved:
        print(line)
    print(f"{len(moved)} of the recorded counts moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
