"""The per-layer metrics of a traced run, and what each is expected to move.

``LAYERS`` is the single list of per-layer metrics; ``BENCHMARK.json``
repeats its names, units and directions (``run.py`` refuses to run when
the two disagree).  Each entry also names the end-to-end metric and the
workload it is expected to move, written down before any change claims
a gain.  Metrics marked per ``kind.backend`` expand to one metric per
entry of ``TAGS``.

Every traced run prints every metric; a layer the workload never
reaches reports 0.  serve-warm, named below, is run by hand (see
``run.py``); its read-path layers are also measured on serve-cold.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, List, Tuple

from common import max_gap_per_nm

TAGS = tuple(
    f"{kind}.fast"
    for kind in (
        "steiner-tree",
        "terminal-steiner",
        "steiner-forest",
        "directed-steiner",
        "induced-steiner",
        "chordless-path",
        "st-path",
        "kfragments",
    )
) + ("steiner-tree.vector", "terminal-steiner.vector", "st-path.vector")

#: (name, unit, better, per kind.backend, moves: end-to-end metric @ workload)
LAYERS: Tuple[Tuple[str, str, str, bool, str], ...] = (
    ("engine.jobs.compile_ms", "ms", "lower", False,
     "ttfs_ms_p50 @ engine-dense; nothing @ engine-sparse"),
    ("core.build_ms", "ms", "lower", True, "ttfs_ms_p50 @ engine-dense"),
    ("core.search_ms", "ms", "lower", True,
     "sols_per_s, delay_us_* @ engine-dense (most of the wall), engine-sparse (about half)"),
    ("core.ops_per_solution", "ops", "lower", True, "sols_per_s @ engine-dense, engine-sparse"),
    ("core.events_per_solution", "events", "lower", True,
     "sols_per_s, delay_us_* @ engine-dense, engine-sparse"),
    ("core.max_delay_ops_per_nm", "ops/nm", "lower", True,
     "max_delay_ops_per_nm @ engine-sparse"),
    ("core.delay_slope_nm", "exponent", "lower", False, "max_delay_ops_per_nm @ engine-sparse"),
    ("core.delay_slope_w", "exponent", "lower", False, "max_delay_ops_per_nm @ engine-sparse"),
    ("engine.jobs.render_ms", "ms", "lower", True,
     "sols_per_s, delay_us_p50 @ engine-sparse (edge-set kinds); little on st-path @ engine-dense"),
    ("engine.jobs.render_us_per_solution", "us", "lower", True,
     "sols_per_s, delay_us_p50 @ engine-sparse"),
    ("engine.suspend.snapshot_ms", "ms", "lower", False,
     "stream_ms_p50 @ serve-cold; nothing @ engine workloads"),
    ("engine.suspend.snapshot_bytes", "bytes", "lower", False, "stream_ms_p50 @ serve-cold"),
    ("engine.suspend.restore_ms", "ms", "lower", False, "ttfs_ms_p50 (resumes) @ serve-warm"),
    ("engine.cache.key_ms", "ms", "lower", False,
     "ttfs_ms_p50 @ serve-cold (n=240 vs n=120), relabeled repeats @ serve-warm"),
    ("engine.cache.write_ms", "ms", "lower", False, "stream_ms_p50 @ serve-cold"),
    ("engine.cache.read_ms", "ms", "lower", False, "ttfs_ms_p50 @ serve-warm"),
    ("serve.store.write_ms", "ms", "lower", False, "stream_ms_p50, jobs_per_s @ serve-cold"),
    ("serve.store.write_bytes", "bytes", "lower", False, "stream_ms_p50, jobs_per_s @ serve-cold"),
    ("serve.store.read_ms", "ms", "lower", False, "ttfs_ms_p50 @ serve-warm"),
    ("serve.workers.transport_ms", "ms", "lower", False, "stream_ms_p50 @ serve-cold"),
    ("serve.workers.chunks", "count", "lower", False, "stream_ms_p50 @ serve-cold"),
    ("serve.workers.bytes", "bytes", "lower", False, "stream_ms_p50 @ serve-cold"),
    ("serve.server.ttfb_ms", "ms", "lower", False, "ttfs_ms_p50 @ serve-cold, serve-warm"),
    ("serve.server.overhead_ms", "ms", "lower", False,
     "stream_ms_p50 @ serve-cold, serve-warm"),
    ("serve.server.bytes_per_solution", "bytes", "lower", False,
     "stream_ms_p50 @ serve-cold, serve-warm"),
    ("serve.server.compute_s", "s", "lower", False, "stream_ms_p50 @ serve-cold, serve-warm"),
    ("trace.overhead_pct", "%", "lower", False, "none: traced wall vs untraced wall"),
    ("trace.untraced_ms", "ms", "lower", False,
     "none: per job/request, traced wall minus the layer self times"),
)

#: Span names whose self time is a layer's; anything else under a root
#: span (the benchmark's own loop, fingerprinting) is untraced remainder.
LAYER_SPANS = frozenset(
    {
        "engine.jobs.compile",
        "core.build",
        "core.search",
        "engine.jobs.render",
        "engine.suspend.snapshot",
        "engine.suspend.restore",
        "engine.cache.key",
        "engine.cache.write",
        "engine.cache.read",
        "serve.store.write",
        "serve.store.read",
        "serve.workers.stream",
        "serve.server.request",
    }
)

#: Spans reported as mean self ms per call.
PER_CALL = {
    "engine.suspend.snapshot_ms": "engine.suspend.snapshot",
    "engine.suspend.restore_ms": "engine.suspend.restore",
    "engine.cache.key_ms": "engine.cache.key",
    "engine.cache.write_ms": "engine.cache.write",
    "engine.cache.read_ms": "engine.cache.read",
    "serve.store.write_ms": "serve.store.write",
    "serve.store.read_ms": "serve.store.read",
}


def metric_table() -> List[Tuple[str, str, str, str]]:
    """``(name, unit, better, moves)`` with per-tag metrics expanded."""
    rows = []
    for name, unit, better, per_tag, moves in LAYERS:
        if per_tag:
            rows.extend((f"{name}.{tag}", unit, better, moves) for tag in TAGS)
        else:
            rows.append((name, unit, better, moves))
    return rows


class LayerReport:
    """Accumulates a traced run's spans and counts into the metrics above."""

    def __init__(self) -> None:
        self.self_ms: Dict[Tuple[str, object], float] = defaultdict(float)
        self.calls: Dict[Tuple[str, object], int] = defaultdict(int)
        self.values: Dict[str, List[float]] = defaultdict(list)
        self.jobs: Dict[str, int] = defaultdict(int)
        self.solutions: Dict[str, int] = defaultdict(int)
        self.ops: Dict[str, int] = defaultdict(int)
        self.worst: Dict[str, float] = defaultdict(float)
        self.slopes = (0.0, 0.0)
        #: Walls of the same work untraced and traced: the tracing overhead.
        self.plain_s = 0.0
        self.traced_s = 0.0

    def add_job(self, item, job: Dict[str, object], solutions: int) -> None:
        """Count one traced engine drain (see ``engine_bench.traced_job``)."""
        tag = item.tag
        self.jobs[tag] += 1
        self.solutions[tag] += solutions
        self.ops[tag] += job["ops"]
        self.worst[tag] = max(self.worst[tag], max_gap_per_nm(item.size, job["marks"]))
        if job["snaps"]:
            self.values["engine.suspend.snapshot_bytes"].append(job["snap_bytes"] / job["snaps"])

    def add_value(self, name: str, value: float) -> None:
        self.values[name].append(value)

    def add_spans(self, tracer, start: int) -> None:
        """Fold the self times of spans recorded since ``start``."""
        names, parents = tracer.names, tracer.parents
        for (name, tag), (ms, calls) in tracer.totals(start).items():
            self.self_ms[(name, tag)] += ms
            self.calls[(name, tag)] += calls
        for i in range(start, len(names)):
            # Machine events: top-level search calls, one per advance().
            if names[i] == "core.search" and names[parents[i]] == "engine.jobs.render":
                self.calls[("events", tracer.tags[i])] += 1

    @staticmethod
    def spans_path(workload: str, seed: int) -> str:
        root = os.getcwd()
        return os.path.join(root, ".perfbench-spans", f"{workload}-seed{seed}.json")

    def _span_ms(self, name: str, tag=None) -> Tuple[float, int]:
        ms = calls = 0
        for (n, t), value in self.self_ms.items():
            if n == name and (tag is None or t == tag):
                ms += value
                calls += self.calls[(n, t)]
        return ms, calls

    def finish(self, out, tracer) -> None:
        """Check the span accounting, then put every per-layer metric.

        Per root span (one job or request) the layer self times plus the
        untraced remainder must add up to the root's traced wall.
        """
        selfs = tracer.self_ns()
        names, parents = tracer.names, tracer.parents
        top = list(range(len(names)))
        layer_ns: Dict[int, int] = defaultdict(int)
        rest_ns: Dict[int, int] = defaultdict(int)
        for i, ns in enumerate(selfs):
            if parents[i] >= 0:
                top[i] = top[parents[i]]  # parents are recorded first
            if names[i] in LAYER_SPANS:
                layer_ns[top[i]] += ns
            else:
                rest_ns[top[i]] += ns
        for root in rest_ns:
            if layer_ns[root] + rest_ns[root] != tracer.ends[root] - tracer.starts[root]:
                out.fail(f"trace: {names[root]} self times do not add up to its wall")
        roots = max(1, len(rest_ns))
        values: Dict[str, float] = {
            "trace.overhead_pct": 100.0 * (self.traced_s / self.plain_s - 1.0) if self.plain_s else 0.0,
            "trace.untraced_ms": sum(rest_ns.values()) / 1e6 / roots,
            "core.delay_slope_nm": self.slopes[0],
            "core.delay_slope_w": self.slopes[1],
        }
        jobs_total = sum(self.jobs.values())
        ms, _calls = self._span_ms("engine.jobs.compile")
        values["engine.jobs.compile_ms"] = ms / jobs_total if jobs_total else 0.0
        for metric, span in PER_CALL.items():
            ms, calls = self._span_ms(span)
            values[metric] = ms / calls if calls else 0.0
        for name, samples in self.values.items():
            values[name] = sum(samples) / len(samples)
        for tag in TAGS:
            jobs, sols = self.jobs.get(tag, 0), self.solutions.get(tag, 0)
            per_job = (lambda ms: ms / jobs) if jobs else (lambda ms: 0.0)
            per_sol = (lambda x: x / sols) if sols else (lambda x: 0.0)
            render_ms = self._span_ms("engine.jobs.render", tag)[0]
            values[f"core.build_ms.{tag}"] = per_job(self._span_ms("core.build", tag)[0])
            values[f"core.search_ms.{tag}"] = per_job(self._span_ms("core.search", tag)[0])
            values[f"engine.jobs.render_ms.{tag}"] = per_job(render_ms)
            values[f"engine.jobs.render_us_per_solution.{tag}"] = per_sol(1e3 * render_ms)
            values[f"core.ops_per_solution.{tag}"] = per_sol(self.ops.get(tag, 0))
            values[f"core.events_per_solution.{tag}"] = per_sol(self.calls.get(("events", tag), 0))
            values[f"core.max_delay_ops_per_nm.{tag}"] = self.worst.get(tag, 0.0)
        for name, unit, _better, _moves in metric_table():
            out.put(name, values.get(name, 0.0), unit)
