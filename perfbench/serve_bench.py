"""The HTTP workloads: ``serve-cold`` and ``serve-warm``.

Both run ``ServerThread(EnumerationServer(workers=2, store=<fresh dir>))``
in this process and drive it over ``ServeClient.enumerate`` (``CLIENTS``
threads), closed loop: each client waits for its stream's ``end`` event
before sending its next request.  The clients run in rounds: each sends
its share of a round, and the next round starts when all are done, so
every round is a complete, comparable phase of the mix.  Set-up warms
the worker pool (a fresh server's first requests pay for it) and is
counted in ``setup_s``.

``serve-cold`` sends every request for a new instance, so every stream
is keyed, enumerated by a worker, snapshotted per chunk, piped, encoded
and written back to the store.  ``serve-warm`` fills the store in
set-up, restarts the server on it, then mixes exact repeats, relabeled
(isomorphic) repeats, next-page requests (same instance, higher limit)
and ``stream_id`` resumes, each of the last two on an instance whose
first page the set-up stored.

The traced run sends the same requests one at a time.  Before each HTTP
request it calls the layers the server would call, from here, as spans:
``instance_key`` (wrapped inside the cache tiers), ``InstanceCache`` and
``ResultStore`` reads, the in-process engine drain (or ``JobSearch.restore``
for resumes), the cache and store write-back (to a scratch store), and a
``WorkerPool`` stream of the same job.  Each of those rebuilds the stream
and must match its pin, as must the HTTP stream.
"""

from __future__ import annotations

import base64
import contextlib
import os
import pickle
import random
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from common import Outcome, Timing, WorkDir, end_to_end, load_pins
from engine_bench import engine_targets, reference_delay
from pools import (
    FIRST_PAGE,
    RELABELS,
    WARM_PAGED,
    WARM_E,
    Item,
    cold_items,
    e_item,
    first_page_item,
    next_page_item,
    relabeled_item,
    resume_item,
    warm_order,
)
from repro.engine.cache import InstanceCache
from repro.engine.jobs import EnumerationJob, JobResult
from repro.engine.suspend import JobSearch
from repro.enumeration.delay import CostMeter
from repro.serve.client import ServeClient
from repro.serve.protocol import encode_event
from repro.serve.server import EnumerationServer, ServerThread
from repro.serve.store import ResultStore
from repro.serve.workers import DEFAULT_CHUNK, WorkerPool
from layers import LayerReport
from tracer import Tracer

#: Client threads.  serve-warm runs one: its requests take 2-20 ms,
#: where a second client's turns at the interpreter lock, not the
#: server, decided the figures (ten runs spread 19-34%).
CLIENTS = {"serve-cold": 2, "serve-warm": 1}
WORKERS = 2
#: Set-ups per run (``setup_s`` is their median); a serve-warm set-up
#: fills the store with 36 streams and restarts the server.
SETUPS = {"serve-cold": 5, "serve-warm": 3}
#: Seconds a resume waits for the previous request's checkpoint to land.
CURSOR_WAIT = 10.0


@dataclass(frozen=True)
class Request:
    """One HTTP request of a schedule."""

    item: Item
    stream_id: Optional[str] = None
    offset: int = 0  # where a resume starts: its checkpoint must be there first
    phase: int = 0  # the round it belongs to


class Server:
    """An in-process server over ``store_dir`` with a warmed worker pool.

    ``generation`` keeps each start's warm-up jobs distinct, so they run
    on the workers instead of replaying from the store.
    """

    def __init__(self, store_dir: str, generation: int) -> None:
        self.store_dir = store_dir
        self.thread = ServerThread(EnumerationServer(workers=WORKERS, store=store_dir))
        self.thread.start()
        self.port = self.thread.port
        self._warm(generation)

    def client(self) -> ServeClient:
        return ServeClient(port=self.port, timeout=120.0)

    def _warm(self, generation: int) -> None:
        """Run one tiny job of each kind on every worker at once."""

        def tiny(kind: str, worker: int) -> EnumerationJob:
            a, b, c, d = (f"w{generation}.{worker}.{x}" for x in "abcd")
            edges = [(a, b), (b, c), (c, d), (d, a)]
            if kind == "terminal-steiner":
                return EnumerationJob.terminal_steiner(edges, [a, c], backend="fast")
            if kind == "steiner-forest":
                return EnumerationJob.steiner_forest(edges, [[a, c]], backend="fast")
            if kind == "st-path":
                return EnumerationJob.st_path(edges, a, c, backend="fast")
            return EnumerationJob.steiner_tree(edges, [a, c], backend="fast")

        for kind in ("steiner-tree", "terminal-steiner", "steiner-forest", "st-path"):
            jobs = [tiny(kind, w) for w in range(WORKERS)]
            run_parallel([lambda job=job: list(self.client().enumerate(job)) for job in jobs])

    def stop(self) -> None:
        self.thread.stop()


def run_parallel(tasks) -> None:
    """Run callables on their own threads; re-raise the first error."""
    errors: List[BaseException] = []

    def guard(task) -> None:
        try:
            task()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=guard, args=(task,)) for task in tasks]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def stream(client: ServeClient, request: Request):
    """Send one request; ``(timing, lines, accepted time, end event, wire bytes)``.

    The timing's gaps are amortized per chunk: the time between
    solution ``i - chunk`` and solution ``i``, over ``chunk``.  Single
    gaps are bimodal (solutions of one chunk arrive together).
    """
    start = time.perf_counter()
    accepted = None
    lines: List[str] = []
    stamps: List[float] = []
    end = None
    wire = 0
    for event in client.enumerate(request.item.job, stream_id=request.stream_id):
        now = time.perf_counter()
        wire += len(encode_event(event))
        kind = event.get("event")
        if kind == "solution":
            stamps.append(now)
            lines.append(event["line"])
        elif kind == "accepted":
            accepted = now
        elif kind == "end":
            end = event
    finished = time.perf_counter()
    step = DEFAULT_CHUNK
    gaps = [(stamps[i] - stamps[i - step]) / step for i in range(step, len(stamps), step)]
    first = stamps[0] if stamps else None
    timing = Timing(request.item.cls, request.phase, start, first, finished, len(lines), gaps)
    return timing, lines, accepted, end, wire


def wait_for_cursor(store_dir: str, request: Request) -> bool:
    """Poll the store until ``request``'s checkpoint sits at its offset.

    A resume sent before its checkpoint lands would silently restart at
    offset 0 and be reported as a slow resume.
    """
    store = ResultStore(store_dir)
    deadline = time.perf_counter() + CURSOR_WAIT
    while time.perf_counter() < deadline:
        state = store.load_cursor(request.stream_id)
        if state is not None and state.get("offset") == request.offset:
            return True
        time.sleep(0.005)
    return False


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
def warm_fill() -> List[Request]:
    """The set-up requests that leave the store in its warm state.

    Each resume starts from the checkpoint its instance's first page
    leaves: a stream stopped by its limit checkpoints exactly there, so
    every resumed page is a pinned slice.
    """
    fill = [Request(e_item(v)) for v in range(WARM_E)]
    for i in range(WARM_PAGED):
        fill.append(Request(first_page_item("P", i)))
        fill.append(Request(first_page_item("R", i), f"resume-{i}"))
    return fill


def warm_schedule(seed: int) -> List[List[List[Request]]]:
    """Rounds of 5 requests for the one client, in seeded order.

    A round is an exact repeat and a relabeled repeat of an n=60
    instance, an exact repeat of a first page, the next page of one P
    instance and the resume of one R instance, alternating n=120 and
    n=240 round by round.
    """
    rounds: List[List[List[Request]]] = []
    for r, i in enumerate(warm_order(seed)):
        v = r % WARM_E
        share = [
            Request(e_item(v), phase=r),
            Request(relabeled_item(v, (r // WARM_E) % RELABELS), phase=r),
            Request(first_page_item("P", i), phase=r),
            Request(next_page_item(i), phase=r),
            Request(resume_item(i), f"resume-{i}", FIRST_PAGE, r),
        ]
        random.Random(f"{seed}:{r}").shuffle(share)
        rounds.append([share])
    return rounds


def _setup(workload: str, seed: int, work: WorkDir, n: int):
    """A warmed server and its rounds: ``rounds[r][client]`` is a list of
    requests."""
    store_dir = work.sub(f"store{n}")
    server = Server(store_dir, 2 * n)
    if workload == "serve-cold":
        clients = CLIENTS[workload]
        rounds = [
            [[Request(item, phase=r) for item in rnd[c::clients]] for c in range(clients)]
            for r, rnd in enumerate(cold_items(seed))
        ]
        return server, rounds
    fill = warm_fill()
    run_parallel(
        [lambda part=fill[c::2]: [stream(server.client(), r) for r in part] for c in range(2)]
    )
    server.stop()
    return Server(store_dir, 2 * n + 1), warm_schedule(seed)


def run_serve(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    engine_targets()  # import every machine before the workers fork
    pins = load_pins()
    out = Outcome()
    work = WorkDir(os.getcwd())
    server = None
    try:
        setups = []
        for n in range(SETUPS[workload]):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            server, rounds = _setup(workload, seed, work, n)
            setups.append(time.perf_counter() - started)
        if trace:
            traced_run(out, pins, server, rounds, seconds, work, workload, seed)
            return out
        timings: List[Timing] = []
        lock = threading.Lock()
        deadline = time.perf_counter() + seconds
        go = [True]

        def next_round() -> None:  # runs once per round, all clients waiting
            go[0] = time.perf_counter() < deadline

        clients = CLIENTS[workload]
        barrier = threading.Barrier(clients, action=next_round)

        def client_loop(c: int) -> None:
            client = server.client()
            for shares in rounds:
                barrier.wait(timeout=300)
                if not go[0]:
                    return
                for request in shares[c]:
                    if request.offset and not wait_for_cursor(server.store_dir, request):
                        with lock:
                            out.attempted += 1
                            out.fail(f"{request.item.pin}: checkpoint never landed")
                        continue
                    try:
                        timing, lines, _acc, _end, _wire = stream(client, request)
                    except Exception as exc:  # noqa: BLE001 — counted, the loop goes on
                        with lock:
                            out.attempted += 1
                            out.fail(f"{request.item.pin}: {type(exc).__name__}: {exc}")
                        continue
                    with lock:
                        out.check(pins, request.item.pin, lines, workload)
                        timings.append(timing)

        run_parallel([lambda c=c: client_loop(c) for c in range(clients)])
        server.stop()
        server = None
        worst = reference_delay(out, pins, workload, {})
        end_to_end(out, timings, setups, worst, concurrent=True)
        return out
    finally:
        if server is not None:
            server.stop()
        work.close()


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
class Layers:
    """The traced run's own copies of the layers the server calls."""

    def __init__(self, tracer: Tracer, server: Server, work: WorkDir) -> None:
        import repro.engine.cache as cache_module
        import repro.serve.store as store_module

        self.tracer = tracer
        self.cache = InstanceCache()
        self.read_store = ResultStore(server.store_dir)
        self.write_dir = work.sub("traced-writes")
        self.write_store = ResultStore(self.write_dir)
        self.pool = WorkerPool(1)
        # The tiers key through these module globals.
        self.key_targets = [
            (cache_module, "instance_key", "engine.cache.key"),
            (store_module, "instance_key", "engine.cache.key"),
        ]

    def close(self) -> None:
        self.pool.close()

    def rebuild(self, request: Request, report) -> Tuple[List[str], Optional[dict]]:
        """The request's stream rebuilt from direct layer calls.

        Returns the lines the server should deliver and, when part of the
        stream is live, ``{"job", "start", "snapshot", "lines", "traced_s"}``
        for the worker-pool and untraced comparisons.
        """
        tracer, job = self.tracer, request.item.job
        with tracer.span("engine.cache.read"):
            full = self.cache.lookup(job)
            known = None if full is not None else self.cache.prefix(job)
        cursor = None
        with tracer.span("serve.store.read"):
            if full is None:
                full = self.read_store.lookup(job)
            if full is None and known is None:
                known = self.read_store.prefix(job)
            if request.stream_id is not None:
                cursor = self.read_store.load_cursor(request.stream_id)
        if full is not None:
            return list(full.lines[request.offset :]), None
        known_lines = list(known.lines) if known is not None else []
        offset = int(cursor["offset"]) if cursor else 0
        live_from = max(offset, len(known_lines))
        blob = None
        if cursor and cursor.get("snapshot") and offset >= len(known_lines):
            blob = base64.b64decode(cursor["snapshot"])
        traced_start = time.perf_counter()
        live, structures, counts = drain_from(job, live_from, blob, tracer)
        traced_s = time.perf_counter() - traced_start
        report.add_job(request.item, counts, len(live))
        lines = known_lines[offset:live_from] + live
        if live_from == len(known_lines):
            prior = known.structures if known is not None else ()
            result = JobResult(
                job_id=job.job_id,
                kind=job.kind,
                lines=tuple(known_lines + live),
                exhausted=False,
                stop_reason="limit",
                elapsed=0.0,
                ops=0,
                structures=None if prior is None else tuple(prior) + tuple(structures),
            )
            with tracer.span("engine.cache.write"):
                self.cache.store(job, result)
            before = _tree_bytes(self.write_dir)
            with tracer.span("serve.store.write"):
                self.write_store.store(job, result)
                if request.stream_id is not None:
                    self.write_store.save_cursor(
                        request.stream_id,
                        {"version": 1, "job": job.to_dict(), "offset": len(result.lines), "digest": None},
                    )
            report.add_value("serve.store.write_bytes", _tree_bytes(self.write_dir) - before)
        return lines, {"job": job, "start": live_from, "snapshot": blob, "lines": live, "traced_s": traced_s}

    def worker_stream(self, live: dict, report) -> List[str]:
        """Drive one ``WorkerPool`` stream directly: acquire, start, recv, credit."""
        handle = self.pool.acquire()
        lines: List[str] = []
        chunks = wire = 0
        started = time.perf_counter()
        try:
            with self.tracer.span("serve.workers.stream"):
                handle.start_stream(live["job"], live["start"], DEFAULT_CHUNK, live["snapshot"])
                while True:
                    msg = handle.recv()
                    wire += len(pickle.dumps(msg))
                    if msg[0] == "end":
                        break
                    chunks += 1
                    lines.extend(msg[1])
                    handle.credit()
        finally:
            self.pool.release(handle)
        live["pool_s"] = time.perf_counter() - started
        report.add_value("serve.workers.chunks", chunks)
        report.add_value("serve.workers.bytes", wire)
        return lines

    def untraced(self, live: dict, report) -> List[str]:
        """The same live drain without tracing: the overhead and transport base."""
        started = time.perf_counter()
        lines, _, _ = drain_from(live["job"], live["start"], live["snapshot"], None)
        drain_s = time.perf_counter() - started
        report.plain_s += drain_s
        report.traced_s += live["traced_s"]
        report.add_value("serve.workers.transport_ms", 1e3 * (live["pool_s"] - drain_s))
        return lines


def drain_from(job: EnumerationJob, start: int, blob: Optional[bytes], tracer: Optional[Tracer]):
    """Lines ``[start, limit)`` of ``job`` the way a worker produces them.

    With a snapshot the search is thawed at ``start``; without one it
    fast-forwards.  Under a tracer the engine layers are wrapped, a
    ``CostMeter`` counts operations and a snapshot is taken every chunk,
    as workers do; a fresh stream then also thaws its last snapshot, the
    restore a resume of it would pay.  ``engine.suspend.restore`` spans
    the whole thaw, instance compile included.  Returns ``(lines,
    structures, counts)``.
    """
    meter = CostMeter() if tracer is not None else None
    lines: List[str] = []
    structures: List[object] = []
    counts = {"ops": 0, "marks": [], "snap_bytes": 0, "snaps": 0}
    search = None
    if blob is not None:
        restore = tracer.span("engine.suspend.restore") if tracer else contextlib.nullcontext()
        with restore:
            search = JobSearch.restore(job, blob, meter)
    last = None
    with tracer.patched(engine_targets()) if tracer else contextlib.nullcontext():
        if search is None:
            search = JobSearch(job, meter)
        base = meter.count if meter is not None else 0
        while search.emitted < job.limit:
            pair = search.next()
            if pair is None:
                break
            if search.emitted <= start:
                continue
            lines.append(pair[0])
            structures.append(pair[1])
            if tracer is not None:
                counts["marks"].append(meter.count)
                if len(lines) % DEFAULT_CHUNK == 0:
                    with tracer.span("engine.suspend.snapshot"):
                        last = search.snapshot()
                    counts["snap_bytes"] += len(last)
                    counts["snaps"] += 1
    if meter is not None:
        counts["ops"] = meter.count - base
    if blob is None and last is not None:
        with tracer.span("engine.suspend.restore"):
            JobSearch.restore(job, last)
    return lines, structures, counts


def _tree_bytes(path: str) -> int:
    total = 0
    for folder, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


def traced_run(out, pins, server, rounds, seconds, work, workload, seed) -> None:
    tracer = Tracer()
    report = LayerReport()
    layers = Layers(tracer, server, work)
    client = server.client()
    order = [request for shares in rounds for share in shares for request in share]
    deadline = time.perf_counter() + seconds
    try:
        for n, request in enumerate(order):
            if n and time.perf_counter() >= deadline:
                break
            if request.offset and not wait_for_cursor(server.store_dir, request):
                out.attempted += 1
                out.fail(f"{request.item.pin}: checkpoint never landed")
                continue
            first_span = len(tracer.names)
            tracer.tag, tracer.request = request.item.tag, f"r{n}"
            root = tracer.open("bench.request")
            with tracer.patched(layers.key_targets):
                lines, live = layers.rebuild(request, report)
            out.check(pins, request.item.pin, lines, "rebuilt from layers")
            if live is not None:
                pool_lines = layers.worker_stream(live, report)
                out.attempted += 1
                if pool_lines != live["lines"]:
                    out.fail(f"{request.item.pin}: worker-pool stream differs from in-process drain")
            with tracer.span("serve.server.request"):
                timing, http_lines, accepted, end, wire = stream(client, request)
            tracer.close(root)
            out.check(pins, request.item.pin, http_lines, "traced HTTP")
            if live is not None:
                out.attempted += 1
                if layers.untraced(live, report) != live["lines"]:
                    out.fail(f"{request.item.pin}: traced and untraced drains differ")
            report.add_value("serve.server.ttfb_ms", 1e3 * (accepted - timing.start))
            if live is not None:
                report.add_value("serve.server.overhead_ms", 1e3 * (timing.end - timing.start - live["pool_s"]))
            report.add_value("serve.server.bytes_per_solution", wire / max(1, len(http_lines)))
            report.add_value("serve.server.compute_s", float(end["compute_seconds"]))
            report.add_spans(tracer, first_span)
    finally:
        layers.close()
    report.finish(out, tracer)
    tracer.write(report.spans_path(workload, seed))
