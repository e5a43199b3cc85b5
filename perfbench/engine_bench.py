"""The in-process workloads: ``engine-sparse`` and ``engine-dense``.

One thread, closed loop: each job is handed to ``JobSearch(job)`` and
drained with ``next()`` up to its limit before the next job starts.  A
run repeats whole passes over the seeded job list until ``--seconds``
have elapsed, so every pass weighs the jobs the same.

The traced run alternates an untraced pass with a traced pass of the
same jobs.  In a traced pass the engine layers' public callables are
wrapped (compile, machine build, search, render), a ``CostMeter``
counts substrate operations, and a snapshot is taken every
``SNAPSHOT_EVERY`` solutions as the serve workers do.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from common import Outcome, Timing, end_to_end, load_pins, max_gap_per_nm
from pools import Item, dense_items, reference_items, sparse_items
from repro.bench.harness import fit_linearity
from repro.engine.jobs import EnumerationJob
from repro.engine.suspend import JobSearch
from repro.enumeration.delay import CostMeter
from layers import LayerReport
from tracer import Tracer

SETUPS = 5
SNAPSHOT_EVERY = 64

#: Committed bound on the paper's claim (Thm 15/17, Table 1): the
#: exponent of max metered delay / (n+m) fitted against n+m, and against
#: |W|, must stay below this.  Flat (O(n+m), |W|-free) delay fits ~0.
DELAY_SLOPE_BOUND = 0.5


def engine_targets() -> List[Tuple[object, str, str]]:
    """The engine layers' callables a traced pass wraps."""
    import repro.engine.suspend as suspend
    from repro.core.directed_steiner import DirectedSteinerSearch
    from repro.core.induced_paths import ChordlessPathSearch
    from repro.core.induced_steiner import InducedSteinerSearch
    from repro.core.steiner_forest import SteinerForestSearch
    from repro.core.steiner_tree import SteinerTreeSearch
    from repro.core.terminal_steiner import TerminalSteinerSearch
    from repro.datagraph.kfragments import KFragmentSearch
    from repro.paths.fastpaths import FastPathSearch

    targets: List[Tuple[object, str, str]] = [
        (EnumerationJob, "validate", "engine.jobs.compile"),
        (EnumerationJob, "instantiate_indexed", "engine.jobs.compile"),
        (suspend, "job_fingerprint", "engine.cache.fingerprint"),
        (JobSearch, "__init__", "core.build"),
        (JobSearch, "next", "engine.jobs.render"),
        (FastPathSearch, "next_path", "core.search"),
    ]
    for machine in (
        SteinerTreeSearch,
        TerminalSteinerSearch,
        SteinerForestSearch,
        DirectedSteinerSearch,
        InducedSteinerSearch,
        ChordlessPathSearch,
        KFragmentSearch,
    ):
        targets.append((machine, "advance", "core.search"))
    return targets


def drain(item: Item, phase: int = 0) -> Tuple[Timing, List[str]]:
    """Run one job to its limit, timing every solution."""
    job = item.job
    start = time.perf_counter()
    search = JobSearch(job)
    lines: List[str] = []
    stamps: List[float] = []
    while len(lines) < job.limit:
        pair = search.next()
        if pair is None:
            break
        stamps.append(time.perf_counter())
        lines.append(pair[0])
    end = time.perf_counter()
    gaps = [b - a for a, b in zip(stamps, stamps[1:])]
    first = stamps[0] if stamps else None
    return Timing(item.cls, phase, start, first, end, len(lines), gaps), lines


def metered(item: Item) -> Tuple[List[str], int, List[int]]:
    """``(lines, ops after build, ops at each solution)`` under a CostMeter."""
    meter = CostMeter()
    search = JobSearch(item.job, meter)
    base = meter.count
    lines: List[str] = []
    marks: List[int] = []
    limit = item.job.limit if item.job.limit is not None else float("inf")
    while len(lines) < limit:
        pair = search.next()
        if pair is None:
            break
        lines.append(pair[0])
        marks.append(meter.count)
    return lines, meter.count - base, marks


def metered_delays(out: Outcome, pins, items: List[Item], known: Dict[str, float]) -> List[float]:
    """``max_gap_per_nm`` of each item, metered once per pin into ``known``."""
    for item in items:
        if item.pin not in known:
            lines, _ops, marks = metered(item)
            out.check(pins, item.pin, lines, "metered pass")
            known[item.pin] = max_gap_per_nm(item.size, marks)
    return [known[item.pin] for item in items]


def reference_delay(out: Outcome, pins, workload: str, known: Dict[str, float]) -> float:
    """``max_delay_ops_per_nm`` over the workload's reference instances."""
    return max(metered_delays(out, pins, reference_items(workload), known))


def delay_claim(out: Outcome, pins, sweep: List[Item], terminal: List[Item], known) -> Tuple[float, float]:
    """Fit normalized metered delay against n+m and |W|; fail above the bound."""
    slopes = (
        fit_linearity([i.size for i in sweep], metered_delays(out, pins, sweep, known))[0],
        fit_linearity(
            [len(i.job.terminals) for i in terminal], metered_delays(out, pins, terminal, known)
        )[0],
    )
    for name, slope in zip(("n+m", "|W|"), slopes):
        if slope > DELAY_SLOPE_BOUND:
            out.fail(
                f"paper claim: max delay/(n+m) grows with {name} "
                f"(fitted exponent {slope:.3f} > {DELAY_SLOPE_BOUND})"
            )
    return slopes


def _setup(workload: str, seed: int):
    if workload == "engine-sparse":
        return sparse_items(seed)
    return dense_items(seed), [], []


def run_engine(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    pins = load_pins()
    out = Outcome()
    setups = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        items, sweep, terminal = _setup(workload, seed)
        setups.append(time.perf_counter() - started)
    if trace:
        return traced_run(out, pins, items, sweep, terminal, seconds, workload, seed)
    timings: List[Timing] = []
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for item in items:
            timing, lines = drain(item, passes)
            out.check(pins, item.pin, lines, workload)
            timings.append(timing)
        passes += 1
    known: Dict[str, float] = {}
    worst = reference_delay(out, pins, workload, known)
    if sweep:
        delay_claim(out, pins, sweep, terminal, known)
    end_to_end(out, timings, setups, worst, concurrent=False)
    return out


def traced_job(tracer: Tracer, item: Item, request: str) -> Dict[str, object]:
    """One traced drain: root span, meter, snapshots every 64 solutions."""
    tracer.tag, tracer.request = item.tag, request
    meter = CostMeter()
    root = tracer.open("bench.job")
    search = JobSearch(item.job, meter)
    base = meter.count
    lines: List[str] = []
    marks: List[int] = []
    snap_bytes = 0
    while len(lines) < item.job.limit:
        pair = search.next()
        if pair is None:
            break
        lines.append(pair[0])
        marks.append(meter.count)
        if len(lines) % SNAPSHOT_EVERY == 0:
            with tracer.span("engine.suspend.snapshot"):
                snap_bytes += len(search.snapshot())
    tracer.close(root)
    return {
        "root": root,
        "lines": lines,
        "ops": meter.count - base,
        "marks": marks,
        "snap_bytes": snap_bytes,
        "snaps": len(lines) // SNAPSHOT_EVERY,
    }


def traced_run(out, pins, items, sweep, terminal, seconds, workload, seed) -> Outcome:
    tracer = Tracer()
    report = LayerReport()
    targets = engine_targets()
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for item in items:
            timing, lines = drain(item)
            out.check(pins, item.pin, lines, "untraced pass")
            report.plain_s += timing.end - timing.start
        first_span = len(tracer.names)
        with tracer.patched(targets):
            for k, item in enumerate(items):
                job = traced_job(tracer, item, f"p{passes}/j{k}")
                out.check(pins, item.pin, job["lines"], "traced pass")
                report.traced_s += tracer.duration_ms(job["root"]) / 1e3
                report.add_job(item, job, len(job["lines"]))
        report.add_spans(tracer, first_span)
        passes += 1
    if sweep:
        report.slopes = delay_claim(out, pins, sweep, terminal, {})
    report.finish(out, tracer)
    tracer.write(report.spans_path(workload, seed))
    return out
