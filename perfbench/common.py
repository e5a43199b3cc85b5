"""Shared pieces of the benchmark: statistics, pinned digests, result output.

Everything here is workload-agnostic.  Timings are ``time.perf_counter``
seconds; percentiles use the nearest-rank method on the sorted samples,
so a reported value is always one that was measured.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import tempfile
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))

#: Pinned sha256 per job stream, generated from the ``object`` oracle by
#: ``pin.py``.
PINS_PATH = os.path.join(HERE, "pins.json")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``values`` (non-empty)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def stream_digest(lines: Iterable[str]) -> str:
    """sha256 over the solution lines of one stream, newline-terminated."""
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def max_gap_per_nm(size: int, marks: List[int]) -> float:
    """Worst metered gap between consecutive solutions over ``n + m``.

    ``marks`` is the meter reading at each solution.  The gap before the
    first solution (preprocessing) is left out; ``ttfs_ms_p50`` times it.
    """
    gaps = [b - a for a, b in zip(marks, marks[1:])]
    return max(gaps, default=0) / size


def load_pins() -> Dict[str, Dict[str, object]]:
    with open(PINS_PATH) as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class WorkDir:
    """A scratch directory under the checkout, removed on close."""

    def __init__(self, root: str) -> None:
        base = os.path.join(root, ".perfbench-work")
        os.makedirs(base, exist_ok=True)
        self.path = tempfile.mkdtemp(dir=base)

    def sub(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


@dataclass
class Outcome:
    """Attempts, failures and the metrics of one run."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    #: Each job class's best-phase figures, printed with the sample counts.
    classes: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, pins, pin: str, lines: List[str], where: str) -> bool:
        """Count one attempted stream and compare it with its pin."""
        self.attempted += 1
        expected = pins.get(pin)
        if expected is None:
            self.fail(f"{where}: no pinned digest for {pin}")
            return False
        if not expected["ordered"]:
            lines = sorted(lines)
        if len(lines) != expected["count"] or stream_digest(lines) != expected["sha256"]:
            self.fail(
                f"{where}: stream {pin} differs from its pin "
                f"({len(lines)} lines, pinned {expected['count']})"
            )
            return False
        return True

    def put(self, name: str, value: float, unit: str, samples: Optional[int] = None) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        if samples is not None:
            self.samples[name] = samples

    def emit(self) -> bool:
        """Print the sample counts, problems and the final result line."""
        correct = self.failed == 0 and self.attempted > 0
        detail = {"samples": self.samples, "problems": self.problems, "classes": self.classes}
        print(json.dumps(detail, sort_keys=True))
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": self.attempted,
                    "failed": self.failed,
                    "metrics": self.metrics,
                }
            )
        )
        return correct


@dataclass
class Timing:
    """One closed-loop stream: when it was handed over, first and last solution."""

    cls: str
    phase: int
    start: float
    first: Optional[float]
    end: float
    solutions: int
    gaps: List[float] = field(default_factory=list)


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(max(v, 1e-9)) for v in values]
    return math.exp(sum(logs) / len(logs))


def _figures(timings: List[Timing]) -> Dict[str, float]:
    """Figures of one job class within one phase."""
    gaps = [1e6 * g for t in timings for g in t.gaps]
    firsts = [1e3 * (t.first - t.start) for t in timings if t.first is not None]
    return {
        "ttfs_ms_p50": percentile(firsts, 50) if firsts else 0.0,
        "stream_ms_p50": percentile([1e3 * (t.end - t.start) for t in timings], 50),
        "delay_us_p50": percentile(gaps, 50) if gaps else 0.0,
        "delay_us_p90": percentile(gaps, 90) if gaps else 0.0,
        "wall": sum(t.end - t.start for t in timings),
        "sols": sum(t.solutions for t in timings),
        "jobs": len(timings),
    }


def end_to_end(
    out: Outcome,
    timings: List[Timing],
    setups: List[float],
    max_delay_ops_per_nm: float,
    concurrent: bool,
) -> None:
    """Fill the end-to-end metrics shared by every workload.

    A run is a sequence of phases that each run the workload's whole mix
    once: a pass over the job pool, or a round of requests.  On a shared
    2-vCPU VM the CPU's speed drifts by up to 50% within seconds (a fixed
    loop's best time per 2 s window ranged 12.6 to 18.5 ms), so every
    figure is taken
    from the best phase, per job class: each class's median time to
    first solution, median stream time and gap percentiles in its best
    phase, combined over classes by geometric mean (classes differ by
    orders of magnitude; a pooled percentile would sit wherever they
    happen to meet).  Throughput of the sequential engine workloads adds
    each class's best phase (a pass's wall is the sum of its jobs');
    with concurrent clients it is the best whole phase's.

    Delay gaps are single gaps between consecutive solutions on the
    engine workloads and gaps amortized over each chunk of 64 solutions
    on the serve workloads (solutions of one chunk arrive together).
    """
    cells: Dict[str, Dict[int, List[Timing]]] = defaultdict(lambda: defaultdict(list))
    phases: Dict[int, List[Timing]] = defaultdict(list)
    for t in timings:
        cells[t.cls][t.phase].append(t)
        phases[t.phase].append(t)
    best: Dict[str, List[float]] = defaultdict(list)
    rate_sols = rate_jobs = rate_wall = 0.0
    for cls, per_phase in cells.items():
        figures = [_figures(ts) for ts in per_phase.values()]
        for name in ("ttfs_ms_p50", "stream_ms_p50", "delay_us_p50", "delay_us_p90"):
            values = [f[name] for f in figures if f[name] > 0]
            if values:
                best[name].append(min(values))
                out.classes.setdefault(cls, {})[name] = round(min(values), 3)
        fastest = max(figures, key=lambda f: f["sols"] / f["wall"])
        rate_sols += fastest["sols"]
        rate_jobs += fastest["jobs"]
        rate_wall += fastest["wall"]
    if concurrent:
        spans = [
            (sum(t.solutions for t in ts), len(ts), max(t.end for t in ts) - min(t.start for t in ts))
            for ts in phases.values()
            if len(ts) == max(len(v) for v in phases.values())
        ]
        rate_sols, rate_jobs, rate_wall = max(spans, key=lambda x: x[0] / x[2])
    out.put("setup_s", sorted(setups)[len(setups) // 2], "s", len(setups))
    out.put("sols_per_s", rate_sols / rate_wall, "1/s", len(phases))
    out.put("jobs_per_s", rate_jobs / rate_wall, "1/s", len(phases))
    for name, unit in (
        ("ttfs_ms_p50", "ms"),
        ("stream_ms_p50", "ms"),
        ("delay_us_p50", "us"),
        ("delay_us_p90", "us"),
    ):
        out.put(name, geomean(best[name]), unit, len(timings))
    out.samples["phases"] = len(phases)
    out.samples["classes"] = len(cells)
    out.put("max_delay_ops_per_nm", max_delay_ops_per_nm, "ops/nm")
    ratio = (out.attempted - out.failed) / out.attempted if out.attempted else 0.0
    out.put("success_ratio", ratio, "ratio", out.attempted)
    out.put("peak_rss_mb", peak_rss_mb(), "MiB")
