"""The uniform entry point behind every ``benchmarks/bench_*.py`` shim.

Each script resolves its spec by name and delegates here.  Script mode *is*
``repro-ksir bench run <name>`` — same arguments (``--tier``, ``--seed``,
``--output-dir``), same defaults, same outputs — and :func:`bench_script`
also returns a pytest test function running the tiny tier, so
``pytest benchmarks/`` smoke-checks every artefact.
"""

from __future__ import annotations

import sys
from typing import Callable, Optional, Sequence, Tuple

from repro.bench.runner import run_spec
from repro.bench.spec import get_spec


def bench_script(name: str) -> Tuple[Callable[[Optional[Sequence[str]]], int], Callable[[], None]]:
    """Build the ``main()`` and tiny-tier pytest test of one benchmark shim."""

    def main(argv: Optional[Sequence[str]] = None) -> int:
        from repro.cli import main as cli_main

        arguments = sys.argv[1:] if argv is None else list(argv)
        return cli_main(["bench", "run", name, *arguments])

    def test_tiny_tier() -> None:
        report = run_spec(get_spec(name), tier="tiny")
        assert report.checks_passed, report.check_error

    return main, test_tiny_tier
