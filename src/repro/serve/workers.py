"""Persistent enumeration workers streaming solution chunks over pipes.

The serving layer needs incremental results (a request must start
streaming before the enumeration finishes), which the batch pool's
run-to-completion workers cannot provide.  :class:`WorkerPool` keeps
``workers`` long-lived processes, each on a duplex pipe, speaking a
tiny credit-based protocol:

==========================================  ====================================
parent → worker                             worker → parent
==========================================  ====================================
``("run", spec, offset, chunk, snapshot)``  ``("chunk", lines, structures, snap)``
``("more",)``  (flow credit)                ``("end", meta)``
``("cancel",)``                             —
``("quit",)``                               —
==========================================  ====================================

After every ``chunk`` the worker **blocks until it receives a credit**
(``more``) or a ``cancel`` — at most one chunk is ever in flight per
stream, which is the bounded per-client queue the server's backpressure
rests on.  Because the worker is parked at the credit wait whenever the
consumer is slow, cancellation is prompt: the server answers the
pending chunk with ``cancel`` instead of ``more`` and the worker
abandons the enumeration and returns to its idle loop, ready for the
next job — no process churn.

Resumable streams: every kind runs on its search machine
(:class:`repro.engine.suspend.JobSearch`), so the ``run`` message may
carry a serialized search-state ``snapshot`` — the worker thaws it and
continues in O(state) instead of fast-forwarding, and every ``chunk``
(plus the clean-``end`` meta) carries a fresh snapshot of the state
*after* that chunk, which is what lets the server checkpoint streams
for O(state) resume and transparently replace a crashed worker
mid-stream.  Without a usable snapshot ``offset`` fast-forwards past
the first ``offset`` solutions of the (deterministic) enumeration
without delivering them.  The execution envelope carries over from
:mod:`repro.engine.jobs`: the job's ``deadline`` bounds the live
segment's wall clock (fast-forward included) and its op ``budget`` arms
when delivery begins, exactly like
:class:`repro.engine.cursor.EnumerationCursor`.

A worker that dies mid-stream (OOM-killed, crashed) surfaces as a
:class:`WorkerDied` to the caller and is replaced by a fresh process;
the server restarts the stream on the replacement from the last chunk's
snapshot.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Dict, Optional, Tuple

from repro.engine.jobs import BudgetExceeded, EnumerationJob, _BudgetMeter
from repro.engine.suspend import JobSearch

#: Default number of solutions per streamed chunk.
DEFAULT_CHUNK = 64


def _stream_job(
    conn,
    spec: Dict[str, Any],
    offset: int,
    chunk: int,
    snapshot: Optional[bytes] = None,
) -> None:
    """Run one streaming enumeration on the worker side of ``conn``."""
    start = time.perf_counter()
    meter = _BudgetMeter()
    delivered = 0
    stop_reason: Optional[str] = None
    exhausted = False
    error: Optional[str] = None
    buf_lines: list = []
    buf_structures: list = []
    search = None  # the job's search machine, once built
    clean = True  # False after a mid-step abort: snapshot unusable
    last_snap: list = [None, -1]  # [blob, emitted position] from flush()

    def flush() -> bool:
        """Send the buffered chunk; False when the stream was cancelled."""
        nonlocal stop_reason
        if not buf_lines:
            return True
        snap = search.snapshot() if search is not None and clean else None
        if snap is not None:
            last_snap[0], last_snap[1] = snap, search.emitted
        conn.send(("chunk", list(buf_lines), list(buf_structures), snap))
        buf_lines.clear()
        buf_structures.clear()
        reply = conn.recv()
        if reply[0] == "cancel":
            stop_reason = "cancelled"
            return False
        return True

    try:
        if "arena" in spec:
            from repro.serve import arena as _arena

            spec = _arena.resolve_spec(spec)
        job = EnumerationJob.from_dict(spec)
        deadline_at = (
            (time.monotonic() + job.deadline) if job.deadline is not None else None
        )
        meter.deadline_at = deadline_at
        remaining: Optional[int] = None
        if job.limit is not None:
            remaining = max(0, job.limit - offset)
        armed = offset == 0
        if armed:
            meter.budget = job.budget
        if remaining == 0:
            stop_reason = "limit"
        else:
            # Machine-driven streams enforce the deadline between
            # solutions — a clean suspension point, so deadline stops
            # keep their snapshot — instead of letting the substrate
            # meter abort mid-step.
            meter.deadline_at = None
            if snapshot is not None:
                from repro.exceptions import CursorStateError

                try:
                    search = JobSearch.restore(job, snapshot, meter)
                except CursorStateError:
                    # A damaged, cross-version or mismatched snapshot
                    # degrades to a deterministic offset fast-forward —
                    # a slower resume, never a failed stream.  The fleet
                    # migration path depends on this: the replacement
                    # replica may thaw a checkpoint written by a replica
                    # it shares nothing with but the store directory.
                    search = JobSearch(job, meter)
                else:
                    if search.emitted > offset:
                        # The snapshot ran past the requested position
                        # (an explicit client offset behind the
                        # checkpoint): restart and fast-forward — still
                        # deterministic.
                        search = JobSearch(job, meter)
            else:
                search = JobSearch(job, meter)
            try:
                while True:
                    pair = search.next()
                    if pair is None:
                        exhausted = True
                        break
                    line, structure = pair
                    if search.emitted <= offset:
                        if (
                            deadline_at is not None
                            and time.monotonic() > deadline_at
                        ):
                            stop_reason = "deadline"
                            break
                        continue  # fast-forward the uncovered gap
                    if not armed:
                        armed = True
                        if job.budget is not None:
                            meter.budget = meter.count + job.budget
                    buf_lines.append(line)
                    buf_structures.append(structure)
                    delivered += 1
                    if remaining is not None and delivered >= remaining:
                        stop_reason = "limit"
                        break
                    if deadline_at is not None and time.monotonic() > deadline_at:
                        stop_reason = "deadline"
                        break
                    if len(buf_lines) >= chunk:
                        if not flush():
                            break
            except BudgetExceeded:
                clean = False
                raise
            if exhausted and search.emitted < offset:
                error = "stream offset exceeds the job's solution stream"
                exhausted = False
                stop_reason = "error"
    except BudgetExceeded as exc:
        stop_reason = exc.reason
    except Exception as exc:  # noqa: BLE001 — a bad job must not kill the worker
        error = f"{type(exc).__name__}: {exc}"
        stop_reason = "error"
        exhausted = False
        clean = False
    try:
        if stop_reason != "cancelled":
            if not flush():
                pass  # cancelled at the final chunk; fall through to "end"
        final_snap = None
        if (
            search is not None
            and clean
            and not exhausted
            and error is None
            and stop_reason != "cancelled"  # drain_to_end discards the meta
        ):
            # The final flush usually froze the state at this exact
            # position already; reuse it instead of re-serializing.
            if last_snap[0] is not None and last_snap[1] == search.emitted:
                final_snap = last_snap[0]
            else:
                final_snap = search.snapshot()
        conn.send(
            (
                "end",
                {
                    "delivered": delivered,
                    "exhausted": exhausted,
                    "stop_reason": stop_reason,
                    "ops": meter.count,
                    "elapsed": round(time.perf_counter() - start, 6),
                    "error": error,
                    "snapshot": final_snap,
                },
            )
        )
    except (EOFError, OSError):
        return  # the parent went away; the idle loop will see EOF too


def _worker_main(conn, parent_end) -> None:
    """Worker process loop: serve ``run`` requests until ``quit``/EOF.

    A forked worker inherits the parent's end of its own pipe; closing
    it here is what makes the parent's death read as EOF, so workers
    exit with a killed server instead of outliving it.
    """
    parent_end.close()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg[0] == "quit":
            return
        if msg[0] == "ping":
            conn.send(("pong", os.getpid()))
            continue
        if msg[0] == "run":
            _, spec, offset, chunk, snapshot = msg
            _stream_job(conn, spec, offset, chunk, snapshot)


class WorkerDied(RuntimeError):
    """The worker process exited while a stream was in flight."""


class WorkerHandle:
    """One pooled worker process and its parent-side pipe end."""

    def __init__(self, ctx, arena=None) -> None:
        self._ctx = ctx
        self.arena = arena
        parent, child = ctx.Pipe(duplex=True)
        self.conn = parent
        self.process = ctx.Process(
            target=_worker_main, args=(child, parent), daemon=True
        )
        self.process.start()
        child.close()
        self.failed = False

    # -- blocking half: the server calls these through an executor -----
    def start_stream(
        self,
        job: EnumerationJob,
        offset: int,
        chunk: int,
        snapshot: Optional[bytes] = None,
    ) -> None:
        """Dispatch a streaming run to this worker.

        ``snapshot`` (suspendable kinds only) thaws the enumeration at
        ``offset`` in O(state) instead of fast-forwarding.  With an
        arena attached, integer-compact instances travel as a spool-file
        ref instead of an inline edge list — the worker maps the spool
        read-only, so repeated streams of one dataset share a single
        physical copy across every worker (and fleet replica) on the
        machine.
        """
        spec = job.to_dict()
        if self.arena is not None:
            spec = self.arena.publish_spec(spec)
        self.conn.send(("run", spec, offset, chunk, snapshot))

    def recv(self) -> Tuple[Any, ...]:
        """Receive the next protocol message (raises :class:`WorkerDied`)."""
        try:
            return self.conn.recv()
        except (EOFError, OSError) as exc:
            self.failed = True
            raise WorkerDied(f"worker pid={self.process.pid} died mid-stream") from exc

    def credit(self) -> None:
        """Grant the worker one more chunk of flow-control credit."""
        self._send(("more",))

    def cancel(self) -> None:
        """Ask the worker to abandon the in-flight stream."""
        self._send(("cancel",))

    def drain_to_end(self) -> Optional[Dict[str, Any]]:
        """Consume messages until ``end`` so the worker is idle again."""
        while True:
            try:
                msg = self.conn.recv()
            except (EOFError, OSError):
                self.failed = True
                return None
            if msg[0] == "end":
                return msg[1]
            if msg[0] == "chunk":
                # The worker is waiting for a credit; repeat the cancel.
                self._send(("cancel",))

    def _send(self, msg) -> None:
        try:
            self.conn.send(msg)
        except (BrokenPipeError, OSError):
            self.failed = True

    def close(self) -> None:
        """Shut the worker down (gracefully, then forcibly)."""
        self._send(("quit",))
        self.process.join(timeout=2)
        if self.process.is_alive():  # pragma: no cover - graceful quit suffices
            self.process.terminate()
            self.process.join(timeout=2)
        self.conn.close()

    @property
    def alive(self) -> bool:
        """True while the worker process is healthy."""
        return not self.failed and self.process.is_alive()


class WorkerPool:
    """A fixed-size pool of persistent streaming workers.

    Parameters
    ----------
    workers:
        Process count; each serves one stream at a time.
    mp_context:
        Multiprocessing start method (default: fork where available —
        workers inherit the warm interpreter).
    arena_dir:
        Optional spool directory for the zero-copy instance arena
        (:mod:`repro.serve.arena`).  When set, integer-compact
        instances are shipped to workers as mmap-backed spool refs
        instead of inline edge lists.

    The pool is synchronous (``acquire`` blocks); the asyncio server
    wraps acquisition and the per-message ``recv`` in its executor.  A
    worker returned in a failed state is replaced transparently.
    """

    def __init__(
        self,
        workers: int = 2,
        mp_context: Optional[str] = None,
        arena_dir: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(mp_context)
        self.size = workers
        self.arena = None
        if arena_dir is not None:
            from repro.serve.arena import InstanceArena

            self.arena = InstanceArena(arena_dir)
        self._idle: list = [
            WorkerHandle(self._ctx, arena=self.arena) for _ in range(workers)
        ]
        self._all: list = list(self._idle)
        self._closed = False

    def acquire(self) -> WorkerHandle:
        """Take an idle worker (caller must :meth:`release` it)."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if not self._idle:
            raise RuntimeError("no idle worker (acquire/release imbalance)")
        return self._idle.pop()

    def release(self, handle: WorkerHandle) -> None:
        """Return ``handle`` to the pool, replacing it if it failed."""
        if self._closed:
            handle.close()
            return
        if not handle.alive:
            try:
                handle.close()
            except Exception:  # pragma: no cover - close is best-effort
                pass
            if handle in self._all:
                self._all.remove(handle)
            handle = WorkerHandle(self._ctx, arena=self.arena)
            self._all.append(handle)
        self._idle.append(handle)

    def _all_handles(self) -> list:
        """Every live handle, busy ones included (introspection/tests)."""
        return list(self._all)

    def close(self) -> None:
        """Terminate every pooled worker."""
        self._closed = True
        while self._idle:
            self._idle.pop().close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
