"""The repository's end-to-end benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--runs R] [--trace 1] [--smoke] [--out report.json]
    python3 benchmarks/e2e/run.py compare A.json B.json

With ``--workload`` it runs one pass of one workload in this process and
prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``.  Without it, every workload runs in
a process of its own (``--runs`` times untraced, once more traced when
``--trace 1``) and the collected report is written to ``--out``.
Metric and workload definitions are in ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import common  # noqa: E402 - needs the path set up above
import report  # noqa: E402

DEFAULT_SEED = 2019
#: ``--smoke`` divides the measured work by this (prefill stays full size).
SMOKE_DIVISOR = 20
#: Set-ups per pass; ``setup_s`` is their median.  One when smoking.
SETUPS = 5


def run_pass(workload: str, seed: int, seconds: float, traced: bool, setups: int) -> common.PassResult:
    """One pass of one workload in this process."""
    import tracing

    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    if workload == "serve_text":
        import serve

        result = serve.run(seed, seconds, tracer, setups)
    else:
        import closed

        result = closed.run(workload, seed, seconds, tracer, setups)
    if tracer is not None:
        # A layer metric that does not apply to this workload reads 0.
        for entry in common.load_contract()["per_layer"]:
            result.per_layer.setdefault(entry["name"], 0.0)
        tracing.write_chrome_trace(
            common.OUT_DIR / f"trace_{workload}.json", result.info.pop("spans")
        )
        result.info["trace_file"] = f"trace_{workload}.json"
        result.info["missing_spans"] = list(tracer.missing)
    return result


def contract_line(result: common.PassResult, contract: Dict[str, object]) -> str:
    """The result line the benchmark contract asks for."""
    section = "per_layer" if result.traced else "end_to_end"
    values = result.per_layer if result.traced else result.end_to_end
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in contract[section]
    }
    return json.dumps(
        {
            "correct": result.check.failed == 0,
            "attempted": result.check.attempted,
            "failed": result.check.failed,
            "metrics": metrics,
        }
    )


def _terminated(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def single(args: argparse.Namespace) -> int:
    # A terminated pass unwinds like a failed one, so the workload's
    # ``finally`` blocks still stop the server or the shard workers.
    signal.signal(signal.SIGTERM, _terminated)
    contract = common.load_contract()
    names = [entry["name"] for entry in contract["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    seconds = args.seconds / SMOKE_DIVISOR if args.smoke else args.seconds
    result = run_pass(
        args.workload, args.seed, seconds, bool(args.trace), 1 if args.smoke else SETUPS
    )
    payload = result.to_dict()
    payload["environment"] = common.environment()
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(payload, indent=1))
    print(report.render_pass(payload, contract))
    print(contract_line(result, contract))
    return 0 if result.check.failed == 0 else 1


def _child_pass(workload: str, args: argparse.Namespace, traced: bool, index: int) -> Dict[str, object]:
    out = common.OUT_DIR / f"pass_{workload}_{'traced' if traced else index}.json"
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
        "--out", str(out),
    ]
    if args.smoke:
        command.append("--smoke")
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    if not out.exists():
        raise SystemExit(
            f"{workload}: pass exited {completed.returncode} without a report\n"
            + completed.stdout[-2000:]
        )
    payload = json.loads(out.read_text())
    out.unlink()
    return payload


def everything(args: argparse.Namespace) -> int:
    contract = common.load_contract()
    collected: Dict[str, object] = {
        "schema": "ksir-e2e/1",
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": bool(args.smoke),
        "workloads": {},
    }
    failed = attempted = 0
    for entry in contract["workloads"]:
        workload = entry["name"]
        passes = [_child_pass(workload, args, False, index) for index in range(args.runs)]
        traced = _child_pass(workload, args, True, 0) if args.trace else None
        collected["environment"] = passes[0]["environment"]
        summary = report.summarise(workload, passes, traced)
        collected["workloads"][workload] = summary
        print(report.render_summary(summary, contract))
        for payload in passes + ([traced] if traced else []):
            attempted += payload["attempted"]
            failed += payload["failed"]
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(collected, indent=1))
    metrics = {
        f"{workload}.{name}": {"value": values["median"], "unit": values["unit"]}
        for workload, summary in collected["workloads"].items()
        for name, values in summary["end_to_end"].items()
    }
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("change")
        options = parser.parse_args(argv[1:])
        return report.compare(
            json.loads(Path(options.base).read_text()),
            json.loads(Path(options.change).read_text()),
            common.load_contract(),
        )
    contract = common.load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="1/20 of the measured work")
    parser.add_argument("--runs", type=int, default=1, help="untraced passes per workload")
    parser.add_argument("--out", default=None, help="write the detailed JSON report here")
    args = parser.parse_args(argv)
    if args.workload is not None:
        return single(args)
    return everything(args)


if __name__ == "__main__":
    raise SystemExit(main())
