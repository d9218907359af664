"""Rendering, summarising and comparing benchmark reports."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

import common


def _metric_rows(payload: Dict[str, object], entries: Sequence[Dict[str, object]], section: str) -> List[str]:
    values = payload[section]
    samples = payload.get("samples", {})
    rows = []
    for entry in entries:
        name = entry["name"]
        if name not in values:
            continue
        value = values[name]
        shown = "missing" if section == "per_layer" and value == -1 else f"{value:.6g}"
        count = f"  n={samples[name]}" if name in samples else ""
        rows.append(f"  {name:<34} {shown:>14} {entry['unit']}{count}")
    return rows


def render_pass(payload: Dict[str, object], contract: Dict[str, object]) -> str:
    """Every metric of one pass by name, with unit and sample count."""
    traced = payload["traced"]
    lines = [
        f"== {payload['workload']}  seed={payload['seed']} seconds={payload['seconds']:g} "
        f"{'traced' if traced else 'untraced'}  timed phase {payload['elapsed_s']:.2f} s",
        f"  input_sha256 {payload['input_sha256']}",
    ]
    for key, value in sorted(payload["info"].items()):
        lines.append(f"  {key}: {value}")
    lines += _metric_rows(payload, contract["end_to_end"], "end_to_end")
    if traced:
        lines.append("  -- per layer (self time; -1 = span target missing)")
        lines += _metric_rows(payload, contract["per_layer"], "per_layer")
    lines.append(
        f"  checks: {payload['attempted']} attempted, {payload['failed']} failed"
        f"  (fail_share {payload['failed'] / max(1, payload['attempted']):.6f})"
    )
    lines += [f"  FAILED: {message}" for message in payload["failures"]]
    if payload["info"].get("valid") is False:
        lines.append("  INVALID RUN: the load generator ran more than one period late at p95")
    return "\n".join(lines)


def summarise(workload: str, passes: Sequence[Dict[str, object]], traced: Optional[Dict[str, object]]) -> Dict[str, object]:
    """Fold the passes of one workload into medians, quartiles and counts."""
    contract = common.load_contract()
    digests = {payload["input_sha256"] for payload in passes}
    if traced is not None:
        digests.add(traced["input_sha256"])
    if len(digests) != 1:
        raise SystemExit(f"{workload}: passes disagree on input_sha256: {sorted(digests)}")
    end_to_end: Dict[str, object] = {}
    for entry in contract["end_to_end"]:
        name = entry["name"]
        values = [payload["end_to_end"][name] for payload in passes]
        end_to_end[name] = {
            "unit": entry["unit"],
            "values": values,
            "median": statistics.median(values),
            "quartiles": statistics.quantiles(values, n=4) if len(values) > 1 else None,
            "spread": common.quartile_spread(values),
            "n": passes[0]["samples"].get(name),
        }
    summary: Dict[str, object] = {
        "input_sha256": digests.pop(),
        "info": passes[0]["info"],
        "elapsed_s": [payload["elapsed_s"] for payload in passes],
        "end_to_end": end_to_end,
        "failed": sum(payload["failed"] for payload in passes),
        "failures": [message for payload in passes for message in payload["failures"]],
    }
    if traced is not None:
        untraced = statistics.median(
            payload["info"].get("overhead_base_s", payload["elapsed_s"]) for payload in passes
        )
        traced_elapsed = traced["info"].get("overhead_base_s", traced["elapsed_s"])
        summary["per_layer"] = traced["per_layer"]
        summary["trace"] = {
            "file": traced["info"].get("trace_file"),
            "missing_spans": traced["info"].get("missing_spans", []),
            "traced_elapsed_s": traced_elapsed,
            "trace_overhead_pct": 100.0 * (traced_elapsed / untraced - 1.0),
        }
        summary["failed"] += traced["failed"]
        summary["failures"] += traced["failures"]
    return summary


def render_summary(summary: Dict[str, object], contract: Dict[str, object]) -> str:
    lines = [f"== input_sha256 {summary['input_sha256']}  info {summary['info']}"]
    for entry in contract["end_to_end"]:
        values = summary["end_to_end"][entry["name"]]
        quartiles = values["quartiles"]
        spread = f"  q1..q3 {quartiles[0]:.6g}..{quartiles[2]:.6g}" if quartiles else ""
        count = f"  n={values['n']}" if values["n"] is not None else ""
        lines.append(
            f"  {entry['name']:<16} {values['median']:>14.6g} {entry['unit']}{count}{spread}"
        )
    if "per_layer" in summary:
        trace = summary["trace"]
        lines.append(
            f"  -- per layer; trace_overhead_pct {trace['trace_overhead_pct']:.1f}"
            f"  missing {trace['missing_spans']}"
        )
        for entry in contract["per_layer"]:
            value = summary["per_layer"][entry["name"]]
            shown = "missing" if value == -1 else f"{value:.6g}"
            lines.append(f"  {entry['name']:<34} {shown:>14} {entry['unit']}")
    lines += [f"  FAILED: {message}" for message in summary["failures"]]
    return "\n".join(lines)


def compare(base: Dict[str, object], change: Dict[str, object], contract: Dict[str, object]) -> int:
    """One row per workload × end-to-end metric; non-zero when any regressed.

    ``regressed``: the change's median is worse than the base's by more
    than the metric's bound.  ``unresolved``: it is not, but either side's
    quartile spread is wider than the bound, so the runs cannot tell —
    unless every run of the change beats every run of the base.
    """
    verdicts: List[str] = []
    print(
        f"{'workload':<14} {'metric':<16} {'base':>12} {'change':>12} "
        f"{'change/base':>11} {'bound':>6} {'better':>6}  verdict"
    )
    for entry in contract["workloads"]:
        workload = entry["name"]
        left = base["workloads"].get(workload)
        right = change["workloads"].get(workload)
        if left is None or right is None:
            raise SystemExit(f"{workload}: missing from one of the reports")
        if left["input_sha256"] != right["input_sha256"]:
            raise SystemExit(
                f"{workload}: the reports were fed different inputs "
                f"({left['input_sha256'][:12]} vs {right['input_sha256'][:12]}); "
                "refusing to compare"
            )
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], float(metric["bound"])
            higher = metric["better"] == "higher"
            a, b = left["end_to_end"][name], right["end_to_end"][name]
            ratio = b["median"] / a["median"] if a["median"] else float("inf")
            worse_by = (1.0 - ratio) if higher else (ratio - 1.0)
            if higher:
                dominates = min(b["values"]) > max(a["values"])
            else:
                dominates = max(b["values"]) < min(a["values"])
            if worse_by > bound:
                verdict = "regressed"
            elif max(a["spread"], b["spread"]) > bound and not dominates:
                verdict = "unresolved"
            else:
                verdict = "ok"
            verdicts.append(verdict)
            print(
                f"{workload:<14} {name:<16} {a['median']:>12.6g} {b['median']:>12.6g} "
                f"{ratio:>11.4f} {bound:>6.3f} {metric['better']:>6}  {verdict}"
            )
    print(
        f"{verdicts.count('ok')} ok, {verdicts.count('regressed')} regressed, "
        f"{verdicts.count('unresolved')} unresolved"
    )
    return 1 if "regressed" in verdicts or "unresolved" in verdicts else 0
