"""Command line of the benchmark (``python3 perfbench/run.py``).

``--workload NAME --seed N --seconds S --trace 0|1`` runs one workload in
this process.  With ``--trace 0`` it measures the end-to-end metrics; with
``--trace 1`` a separate traced run reports the per-layer metrics.  Every
metric is printed by name with its unit, the full report (tail
percentiles, sizes, host calibration, the layer map) is written under
``perfbench/out/``, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
``--workload all`` runs the four workloads one after another.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from typing import Any

from .common import ROOT, WORK, BenchmarkError, calibrate_host, require_source_tree, write_report

WORKLOADS = ("oltp_embedded", "analytic_scan", "crowd_expand", "served_oltp")

#: End-to-end metrics and their units; not every metric applies to every
#: workload (writes only to the OLTP mixes, crowd cost only to crowd_expand).
END_TO_END_UNITS = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "read_tail_ms": "ms",
    "write_p50_ms": "ms",
    "write_tail_ms": "ms",
    "throughput_ops_s": "1/s",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
    "platform_calls_per_query": "count",
    "crowd_usd_per_query": "USD",
    "fill_accuracy": "ratio",
}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    if name.endswith(("rate", "share", "per_user_byte")):
        return "ratio"
    return "count"


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool, configs: dict | None = None):
    """Run one workload and return its raw result (metrics, layers, details)."""
    require_source_tree()
    from . import analytic, crowd, oltp

    configs = configs or {}
    runners = {
        "oltp_embedded": lambda: oltp.run_embedded(
            seed, seconds, trace, configs.get("oltp", oltp.Config())
        ),
        "served_oltp": lambda: oltp.run_served(
            seed, seconds, trace, configs.get("oltp", oltp.Config())
        ),
        "analytic_scan": lambda: analytic.run(
            seed, seconds, trace, configs.get("analytic", analytic.Config())
        ),
        "crowd_expand": lambda: crowd.run(
            seed, seconds, trace, configs.get("crowd", crowd.Config())
        ),
    }
    host = calibrate_host()
    try:
        result = runners[name]()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    result["host_calibration"] = host
    return result


def summary_line(result: dict, trace: bool, spec: dict) -> dict[str, Any]:
    """The contract's last line: the spec's end-to-end or per-layer metrics."""
    if trace:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        source = result.get("layers", {})
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        source = result["metrics"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": float(source[name]), "unit": unit} for name, unit in wanted.items()
        },
    }


def _print_metrics(name: str, result: dict, trace: bool) -> None:
    for metric, value in sorted(result["metrics"].items()):
        print(f"{name} {metric} = {value:.6g} {END_TO_END_UNITS[metric]}")
    if trace:
        for metric, value in sorted(result.get("layers", {}).items()):
            print(f"{name} {metric} = {value:.6g} {layer_unit(metric)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        spec = load_spec()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        trace = bool(args.trace)
        lines = []
        for name in names:
            result = run_workload(name, args.seed, args.seconds, trace)
            line = summary_line(result, trace, spec)
            report = {
                "workload": name,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "summary": line,
                **result,
            }
            if trace:
                from .layers import LAYER_MAP

                report["layer_map"] = LAYER_MAP
            path = write_report(f"{name}-seed{args.seed}-trace{args.trace}", report)
            _print_metrics(name, result, trace)
            print(f"{name} report: {path.relative_to(ROOT)}")
            lines.append(line)
    except (BenchmarkError, FileNotFoundError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if len(lines) == 1:
        final = lines[0]
    else:
        final = {
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {
                f"{name}.{metric}": value
                for name, line in zip(names, lines)
                for metric, value in line["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0
