"""Shared plumbing of the benchmark: paths, statistics, host calibration.

Everything here is program-agnostic.  The workload modules import the
system under test (``repro``) from the checkout's ``src/`` directory, which
:func:`require_source_tree` puts on ``sys.path`` first.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, TypeVar

T = TypeVar("T")

#: Root of the checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for database directories; emptied per workload run.
WORK = ROOT / "perfbench" / "work"
#: The benchmark's only output location (full JSON reports).
OUT = ROOT / "perfbench" / "out"

#: Each workload sets up at least SETUP_REPEATS times, and cheap set-ups
#: repeat until SETUP_MIN_SECONDS have passed (at most SETUP_MAX_REPEATS);
#: ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPEATS = 9

#: Samples that must lie beyond the value reported as the tail percentile.
TAIL_BEYOND = 10

#: Host speed probe: a fixed pure-Python loop of PROBE_ITERATIONS steps,
#: timed in thread CPU time, runs every PROBE_EVERY_SECONDS between the
#: measured operations.  On the reference host it takes PROBE_REFERENCE_MS;
#: every time is scaled by PROBE_REFERENCE_MS over the median of the
#: PROBE_NEIGHBOURS probes on each side of it (see :class:`SpeedTrack`).
PROBE_ITERATIONS = 20_000
PROBE_REFERENCE_MS = 1.5
PROBE_EVERY_SECONDS = 0.25
PROBE_NEIGHBOURS = 2


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def require_source_tree() -> None:
    """Put ``src/`` on ``sys.path`` or fail when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"system under test not found: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def repeated_setup(build: Callable[[int], T], close: Callable[[T], None]) -> tuple[T, list[float]]:
    """Run ``build(k)`` several times, closing all but the last result.

    Returns the last result and every set-up time in seconds at reference
    host speed (scaled by the probes run just before and after it).
    """
    times: list[float] = []
    scaled: list[float] = []
    current: T | None = None
    while len(times) < SETUP_REPEATS or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        if current is not None:
            close(current)
            current = None
        probes = [probe_ms() for _ in range(PROBE_NEIGHBOURS + 1)]
        start = time.perf_counter()
        current = build(len(times))
        times.append(time.perf_counter() - start)
        probes += [probe_ms() for _ in range(PROBE_NEIGHBOURS + 1)]
        scaled.append(times[-1] * PROBE_REFERENCE_MS / statistics.median(probes))
    assert current is not None
    return current, scaled


def fresh_dir(name: str) -> Path:
    """An empty directory under :data:`WORK`."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``: *value* is the 11th-largest sample
    and *percentile* the share of samples at or below it.  With ten or
    fewer samples the maximum is returned at the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def peak_rss_mb(*, children: bool = False) -> float:
    """Peak resident set of this process (plus its largest reaped child)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


# ---------------------------------------------------------------------------
# Host calibration (metadata, not a metric)
# ---------------------------------------------------------------------------


def calibrate_host() -> dict[str, float]:
    """A fixed pure-Python loop and an fsync probe, each the median of 5.

    Stored next to the metrics so numbers taken on different hosts can be
    put on one scale: divide a CPU-bound latency by ``python_loop_ms`` and
    a write latency by ``fsync_ms``.
    """
    loops = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        loops.append(time.perf_counter() - start)
    probe = fresh_dir("fsync-probe") / "probe.bin"
    fsyncs = []
    with open(probe, "wb") as handle:
        for _ in range(5):
            handle.write(b"\0" * 4096)
            handle.flush()
            start = time.perf_counter()
            os.fsync(handle.fileno())
            fsyncs.append(time.perf_counter() - start)
    shutil.rmtree(probe.parent, ignore_errors=True)
    return {
        "python_loop_ms": statistics.median(loops) * 1000.0,
        "fsync_ms": statistics.median(fsyncs) * 1000.0,
    }


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------


def probe_ms() -> float:
    """One run of the fixed probe loop, in milliseconds of thread CPU time.

    Thread CPU time leaves out waits for the CPU or the GIL, so the probe
    reads the speed of the core it ran on, also beside busy threads.
    """
    start = time.thread_time()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return (time.thread_time() - start) * 1000.0


class SpeedTrack:
    """Probe readings over one measured window, and the scale they imply.

    A shared virtual machine runs the same code at very different speeds
    from one second to the next, for every process alike (on a 2-vCPU VM
    a fixed Python loop took between 29 and 53 ms within half a minute,
    and CPU time moved with wall time).  Times are therefore scaled
    to the reference host: ``scale_at(t)`` is PROBE_REFERENCE_MS over the
    median of the probes nearest to ``t``.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.ms: list[float] = []

    def probe(self, at: float) -> None:
        """Run one probe; *at* is seconds since the window began."""
        self.at.append(at)
        self.ms.append(probe_ms())

    def scale_at(self, at: float) -> float:
        if not self.ms:
            self.probe(at)
        i = bisect.bisect_left(self.at, at)
        near = self.ms[max(0, i - PROBE_NEIGHBOURS) : i + PROBE_NEIGHBOURS]
        return PROBE_REFERENCE_MS / statistics.median(near)

    def scale(self, samples: list["Sample"]) -> None:
        for sample in samples:
            sample.scale = self.scale_at(sample.start)

    def summary(self) -> dict[str, float]:
        if not self.ms:
            return {}
        return {
            "probes": len(self.ms),
            "probe_min_ms": min(self.ms),
            "probe_median_ms": statistics.median(self.ms),
            "probe_max_ms": max(self.ms),
            "reference_ms": PROBE_REFERENCE_MS,
        }


# ---------------------------------------------------------------------------
# Closed-loop measurement
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    """One operation of a closed loop."""

    kind: str  # "read" or "write"
    seconds: float
    ok: bool
    #: When the operation started, in seconds since the measured window began.
    start: float = 0.0
    #: Ran with per-layer tracing (traced runs interleave traced and plain ops).
    traced: bool = False
    #: Factor to reference host speed at the time it ran (see SpeedTrack).
    scale: float = 1.0


@dataclass
class LoopResult:
    """Samples of one or more closed-loop clients over one measured window."""

    samples: list[Sample] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Host speed probes taken during the window (SpeedTrack.summary()).
    speed: dict[str, float] = field(default_factory=dict)

    def latencies_ms(self, kind: str) -> list[float]:
        """Measured latencies, as read on this host (for the per-layer trace)."""
        return [s.seconds * 1000.0 for s in self.samples if s.kind == kind]

    def scaled_ms(self, kind: str) -> list[float]:
        """Latencies at reference host speed (for the end-to-end metrics)."""
        return [s.seconds * s.scale * 1000.0 for s in self.samples if s.kind == kind]

    def scaled_wall_seconds(self) -> float:
        """The window's length at reference speed (op-time-weighted scale)."""
        busy = sum(s.seconds for s in self.samples)
        if not busy:
            return self.wall_seconds
        return self.wall_seconds * sum(s.seconds * s.scale for s in self.samples) / busy

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)


def closed_loop(
    step: Callable[[int], tuple[str, float, bool]],
    seconds: float,
    *,
    min_ops: int = 1,
) -> LoopResult:
    """Run ``step(i)`` back to back until *seconds* passed and *min_ops* ran.

    ``step`` returns ``(kind, latency_seconds, ok)``; it times its own
    operation so that bookkeeping outside the timed call is not billed.
    A host speed probe runs every PROBE_EVERY_SECONDS between operations;
    its time is left out of ``wall_seconds``.  Garbage left by the set-up
    is collected before the window starts.
    """
    gc.collect()
    result = LoopResult()
    track = SpeedTrack()
    probing = 0.0
    next_probe = 0.0
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        began = time.perf_counter() - start
        if began >= next_probe:
            track.probe(began)
            probing += time.perf_counter() - start - began
            next_probe = began + PROBE_EVERY_SECONDS
            began = time.perf_counter() - start
        kind, latency, ok = step(i)
        result.samples.append(Sample(kind, latency, ok, began))
        i += 1
    track.probe(time.perf_counter() - start)
    result.wall_seconds = time.perf_counter() - start - probing
    track.scale(result.samples)
    result.speed = track.summary()
    return result


def latency_metrics(loop: LoopResult) -> tuple[dict[str, float], dict[str, Any]]:
    """Read/write p50 and tail, throughput, with the tail percentiles.

    Every latency is scaled to reference host speed before the statistics
    are taken over the whole run (see :class:`SpeedTrack`); the figures as
    read on this host go to the details.  The tail must have ten samples
    beyond it.
    """
    metrics: dict[str, float] = {}
    detail: dict[str, Any] = {"host_speed": loop.speed}
    for kind in ("read", "write"):
        values = loop.scaled_ms(kind)
        if not values:
            continue
        value, percentile, n = tail(values)
        metrics[f"{kind}_p50_ms"] = median(values)
        metrics[f"{kind}_tail_ms"] = value
        detail[f"{kind}_tail"] = {"percentile": round(percentile, 3), "samples": n}
        measured = loop.latencies_ms(kind)
        detail[f"{kind}_p50_measured_ms"] = median(measured)
        detail[f"{kind}_tail_measured_ms"] = tail(measured)[0]
    metrics["throughput_ops_s"] = loop.attempted / loop.scaled_wall_seconds()
    metrics["error_rate"] = loop.failed / loop.attempted
    detail["throughput_measured_ops_s"] = loop.attempted / loop.wall_seconds
    return metrics, detail


def write_report(name: str, report: dict[str, Any]) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True, default=str) + "\n")
    return path
