"""Smoke tests of the benchmark itself, at a tiny size.

They check the contract (metric names against ``BENCHMARK.json``), that
every oracle holds, that the crowd cost and quality figures repeat exactly
and survive the tracing proxies, and that the command fails cleanly when
the program is missing.  No assertion depends on wall-clock speed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

from perfbench import bench
from perfbench.common import ROOT, require_source_tree, tail

SEED = 5
SECONDS = 0.6


def _tiny_configs() -> dict:
    require_source_tree()
    from perfbench import analytic, crowd, oltp

    return {
        "oltp": oltp.Config.tiny(),
        "analytic": analytic.Config.tiny(),
        "crowd": crowd.Config.tiny(),
    }


@pytest.fixture(scope="module")
def results() -> dict:
    configs = _tiny_configs()
    return {
        (name, trace): bench.run_workload(name, SEED, SECONDS, trace, configs)
        for name in bench.WORKLOADS
        for trace in (False, True)
    }


@pytest.mark.parametrize("name", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_summary_matches_benchmark_json(results, name, trace):
    spec = bench.load_spec()
    line = bench.summary_line(results[(name, trace)], trace, spec)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [metric["name"] for metric in wanted]
    for metric in wanted:
        value = line["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert math.isfinite(value["value"])
    assert line["attempted"] >= 1
    # Every oracle holds: no operation failed or returned a wrong result.
    assert line["failed"] == 0 and line["correct"]
    json.dumps(line)


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_every_applicable_end_to_end_metric_is_reported(results, name):
    metrics = results[(name, False)]["metrics"]
    expected = {"setup_s", "read_p50_ms", "read_tail_ms", "throughput_ops_s"}
    expected |= {"error_rate", "peak_rss_mb"}
    if name in ("oltp_embedded", "served_oltp"):
        expected |= {"write_p50_ms", "write_tail_ms"}
    if name == "crowd_expand":
        expected |= {"platform_calls_per_query", "crowd_usd_per_query", "fill_accuracy"}
    assert set(metrics) == expected
    assert set(metrics) <= set(bench.END_TO_END_UNITS)
    assert metrics["error_rate"] == 0.0


def test_buffer_pool_sizes(results):
    analytic = results[("analytic_scan", False)]["details"]
    oltp = results[("oltp_embedded", False)]["details"]
    assert analytic["heap_bytes"] > analytic["buffer_pool_bytes"]
    assert oltp["heap_bytes"] < oltp["buffer_pool_bytes"]
    assert results[("analytic_scan", True)]["layers"]["pager.evictions_per_stmt"] > 0
    assert results[("oltp_embedded", True)]["layers"]["pager.evictions_per_stmt"] == 0


def test_crowd_figures_repeat_and_survive_the_proxies(results):
    keys = ("platform_calls_per_query", "crowd_usd_per_query", "fill_accuracy")
    plain = results[("crowd_expand", False)]["metrics"]
    traced = results[("crowd_expand", True)]
    again = bench.run_workload("crowd_expand", SEED, SECONDS, False, _tiny_configs())
    assert {k: plain[k] for k in keys} == {k: again["metrics"][k] for k in keys}
    assert {k: plain[k] for k in keys} == {k: traced["metrics"][k] for k in keys}
    assert traced["details"]["proxies_changed_nothing"]
    assert traced["layers"]["sources.cells_per_dispatch"] > 0
    assert traced["layers"]["prediction.training_size"] > 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert tail(samples) == (90.0, 90.0, 100)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("work", "out", "__pycache__"),
    )
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "oltp_embedded",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
