"""The ``repro serve`` daemon: socket server, scheduler, worker spawner.

One :class:`ServeDaemon` owns four kinds of thread plus one process per
running job:

* an **accept loop** on the Unix socket, spawning a handler thread per
  client connection (``wait``/``watch`` block their own connection, so
  thread-per-connection is the natural shape);
* a **scheduler loop** that, whenever a worker slot is free, asks the
  :class:`~repro.serve.queue.ServiceQueue` for the policy's pick among
  tenant heads and forks a worker **process** for it;
* a **reaper thread** per running job, polling the worker process and
  the job's cancel flag (cancel mid-run = ``terminate()`` — a forked
  process is the cancellation boundary the paper's farm already
  implies: scenarios are independent, so killing one cannot corrupt
  another).

Execution inside the worker is :func:`repro.api.run` — the farm's
``run_job`` with its config-hash key, deterministic seed and disk-cache
layers — so a daemon-produced digest is bit-identical to the local
path.  The daemon pre-warms the kernel compiler *before* forking; with
the ``fork`` start method every worker inherits the warm caches and
skips cold-compile cost, the service-shaped analog of the farm's pool
initializer.

Every state transition journals (append + fsync) **before** it is
acknowledged to any client, which is what makes restart recovery
deterministic: replay of the journal alone reconstructs the queue.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as _thread_queue
import socketserver
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..api import RequestError, RunRequest
from ..obs.metrics import MetricsRegistry
from .journal import Journal, replay_journal
from .protocol import (
    OPS,
    JobState,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
    ok_frame,
)
from .queue import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_TENANT_QUOTA,
    QueueFullError,
    QuotaExceededError,
    ServiceJob,
    ServiceQueue,
)

__all__ = ["ServeDaemon"]

#: How often reaper threads poll a worker process for exit/cancel.
_REAP_POLL_S = 0.02

#: How often the scheduler loop re-checks for free slots / new work.
_SCHED_POLL_S = 0.02


def _worker_main(payload: Dict[str, Any], conn: Any) -> None:
    """Worker-process entry: execute one request, ship the outcome back.

    Runs in a forked child.  Uses :func:`repro.api.run` so the executed
    path (and therefore the digest) is identical to a local ``run()``.
    """
    try:
        from ..api import run

        request = RunRequest.from_dict(payload)
        outcome = run(request)
        conn.send(
            {
                "ok": True,
                "value": outcome.value,
                "digest": outcome.digest,
                "duration_s": outcome.duration_s,
                "worker_pid": os.getpid(),
            }
        )
    except BaseException as exc:  # noqa: BLE001 - must report, not raise
        conn.send(
            {
                "ok": False,
                "error": {
                    "code": "execution-error",
                    "message": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(limit=20),
                },
            }
        )
    finally:
        conn.close()


class ServeDaemon:
    """The multi-tenant simulation service behind one Unix socket."""

    def __init__(
        self,
        socket_path: Optional[Union[str, Path]] = None,
        state_dir: Optional[Union[str, Path]] = None,
        max_depth: int = DEFAULT_MAX_DEPTH,
        tenant_quota: int = DEFAULT_TENANT_QUOTA,
        policy: str = "fair-share",
        policy_options: Optional[Dict[str, Any]] = None,
        max_workers: int = 1,
        warm: bool = True,
        fsync_journal: bool = True,
    ) -> None:
        from . import default_socket_path, default_state_dir

        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.state_dir = (
            Path(state_dir) if state_dir is not None else default_state_dir()
        )
        self.socket_path = (
            Path(socket_path)
            if socket_path is not None
            else default_socket_path()
        )
        self.journal_path = self.state_dir / "journal.jsonl"
        self.max_workers = max_workers
        self.warm = warm
        self.queue = ServiceQueue(
            max_depth=max_depth,
            tenant_quota=tenant_quota,
            policy=policy,
            policy_options=policy_options,
        )
        #: Private registry: the daemon's own counters never clobber the
        #: process-global observability state a host test may be using.
        self.registry = MetricsRegistry()
        self._journal = Journal(self.journal_path, fsync=fsync_journal)
        self._lock = threading.RLock()
        #: Every job this daemon knows, replayed or live, by id.
        self._jobs: Dict[str, ServiceJob] = {}
        #: Jobs currently executing, by id, with their process + reaper.
        self._procs: Dict[str, multiprocessing.Process] = {}
        #: Per-job watch subscriptions (thread queues fed on transitions).
        self._watchers: Dict[str, List["_thread_queue.Queue[Dict[str, Any]]"]] = {}
        #: Signals any job state change (``wait`` op blocks on this).
        self._transition = threading.Condition(self._lock)
        self._next_job_number = 1
        self._stop = threading.Event()
        self._drain = False
        self._server: Optional[socketserver.ThreadingUnixStreamServer] = None
        self._threads: List[threading.Thread] = []
        self.started_at = 0.0
        self._recover()

    # -- recovery ----------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal: resume queued jobs, fault mid-run ones."""
        records, stats = replay_journal(self.journal_path)
        faulted = 0
        resumed = 0
        for record in records:
            job_id = record["job_id"]
            number = _job_number(job_id)
            if number is not None:
                self._next_job_number = max(self._next_job_number, number + 1)
            request: Optional[RunRequest] = None
            try:
                request = RunRequest.from_dict(record["request"])
            except RequestError as exc:
                # Journaled by a build that accepted it (an older schema
                # or a since-removed name): keep the job visible to
                # ``status`` as a fault rather than forgetting it.  The
                # fault is re-derived on every replay, never journaled.
                record = dict(
                    record,
                    state=JobState.FAULTED,
                    value=None,
                    digest=None,
                    error={"code": exc.code, "message": exc.message},
                    promoted_fault=False,
                )
            job = ServiceJob(
                job_id=job_id,
                request=request,
                tenant=record["tenant"],
                qos=record["qos"],
                state=record["state"],
            )
            job.value = record["value"]
            job.digest = record["digest"]
            job.error = record["error"]
            self._jobs[job_id] = job
            if job.state is JobState.QUEUED:
                # Accepted work survives the restart: requeue bypasses
                # admission (the depth check already passed once).
                self.queue.requeue(job)
                job.requeues -= 1  # requeue() counts; recovery is not one
                resumed += 1
            elif record.get("promoted_fault"):
                # Replay decided the fault; make it durable so the next
                # restart folds to the same answer without re-deciding.
                self._journal.append(
                    {"type": "fault", "job_id": job_id, "error": job.error}
                )
                faulted += 1
        self.recovery = {
            "resumed": resumed,
            "faulted": faulted,
            "replayed": stats["records"],
            "torn": stats["torn"],
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind the socket and start accept + scheduler threads."""
        if self._server is not None:
            raise RuntimeError("daemon already started")
        if self.warm:
            from ..exec.farm import warm_worker

            # Warm the compiler before any fork: children inherit the
            # compiled-kernel caches instead of cold-compiling per job.
            warm_worker()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        if self.socket_path.exists():
            self.socket_path.unlink()
        daemon = self

        class _Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                daemon._serve_connection(self)

        self._server = socketserver.ThreadingUnixStreamServer(
            str(self.socket_path), _Handler
        )
        self._server.daemon_threads = True
        self.started_at = time.time()
        accept = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-accept",
            daemon=True,
        )
        sched = threading.Thread(
            target=self._scheduler_loop, name="repro-serve-sched", daemon=True
        )
        self._threads = [accept, sched]
        for thread in self._threads:
            thread.start()

    def stop(self, drain: bool = False, timeout: float = 30.0) -> None:
        """Graceful shutdown.

        ``drain=True`` lets running jobs finish; otherwise they are
        terminated and **requeued** (journaled), so no accepted work is
        lost — a restarted daemon resumes them.  Queued jobs stay queued
        in the journal either way.
        """
        with self._lock:
            self._drain = drain
        self._stop.set()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        deadline = time.time() + timeout
        if drain:
            while self._procs and time.time() < deadline:
                time.sleep(_REAP_POLL_S)
        with self._lock:
            running = [
                self._jobs[job_id] for job_id in list(self._procs)
            ]
        for job in running:
            proc = self._procs.get(job.job_id)
            if proc is not None and proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            with self._lock:
                self._procs.pop(job.job_id, None)
                if not job.state.terminal:
                    self._journal.append(
                        {"type": "requeue", "job_id": job.job_id}
                    )
                    self.queue.requeue(job)
                    self._notify(job)
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = []
        self._journal.close()
        if self.socket_path.exists():
            self.socket_path.unlink()

    @property
    def running(self) -> bool:
        """True while the socket server is up (false after stop())."""
        return self._server is not None

    def __enter__(self) -> "ServeDaemon":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- scheduling and execution -----------------------------------------

    def _scheduler_loop(self) -> None:
        while not self._stop.is_set():
            launched = self._launch_next()
            if not launched:
                time.sleep(_SCHED_POLL_S)

    def _launch_next(self) -> bool:
        """Start the policy's next pick if a worker slot is free."""
        with self._lock:
            if self._stop.is_set() or len(self._procs) >= self.max_workers:
                return False
            job = self.queue.next_job()
            if job is None:
                return False
            if job.cancel_requested:
                # Cancelled while queued but popped before the cancel op
                # found it: honor the cancel instead of running.
                self.queue.mark_finished(job)
                self._finish(job, JobState.CANCELLED, error=None)
                return True
            assert job.request is not None, "only parsed requests are ever queued"
            parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.get_context("fork").Process(
                target=_worker_main,
                args=(job.request.to_dict(), child_conn),
                name=f"repro-serve-{job.job_id}",
                daemon=True,
            )
            job.started_at = time.time()
            self._journal.append({"type": "start", "job_id": job.job_id})
            proc.start()
            child_conn.close()
            job.worker_pid = proc.pid
            self._procs[job.job_id] = proc
            self.registry.counter("serve.jobs.started").inc()
            self._notify(job)
        reaper = threading.Thread(
            target=self._reap,
            args=(job, proc, parent_conn),
            name=f"repro-serve-reap-{job.job_id}",
            daemon=True,
        )
        reaper.start()
        return True

    def _reap(
        self,
        job: ServiceJob,
        proc: multiprocessing.Process,
        conn: Any,
    ) -> None:
        """Wait out one worker: result, failure, or mid-run cancel."""
        outcome: Optional[Dict[str, Any]] = None
        while True:
            if job.cancel_requested:
                proc.terminate()
                proc.join(timeout=5.0)
                break
            if conn.poll(_REAP_POLL_S):
                try:
                    outcome = conn.recv()
                except EOFError:
                    outcome = None
                proc.join(timeout=5.0)
                break
            if not proc.is_alive():
                # Exited without reporting: died on a signal/oom.
                break
            if self._stop.is_set() and not self._drain:
                # stop() owns termination + requeue from here.
                conn.close()
                return
        conn.close()
        with self._lock:
            self._procs.pop(job.job_id, None)
            self.queue.mark_finished(job)
            if job.cancel_requested and outcome is None:
                self._finish(job, JobState.CANCELLED, error=None)
            elif outcome is None:
                self._finish(
                    job,
                    JobState.FAILED,
                    error={
                        "code": "worker-died",
                        "message": (
                            f"worker process exited with code "
                            f"{proc.exitcode} before reporting a result"
                        ),
                    },
                )
            elif outcome.get("ok"):
                job.value = outcome["value"]
                job.digest = outcome["digest"]
                job.worker_pid = outcome.get("worker_pid", job.worker_pid)
                if job.started_at is not None:
                    self.queue.observe_duration(
                        job, time.time() - job.started_at
                    )
                self._finish(job, JobState.DONE, error=None)
            else:
                self._finish(job, JobState.FAILED, error=outcome.get("error"))

    def _finish(
        self,
        job: ServiceJob,
        state: JobState,
        error: Optional[Dict[str, Any]],
    ) -> None:
        """Journal + apply one terminal transition (caller holds lock)."""
        job.state = state
        job.error = error
        job.finished_at = time.time()
        record: Dict[str, Any] = {"job_id": job.job_id}
        if state is JobState.DONE:
            record.update(type="done", value=job.value, digest=job.digest)
        elif state is JobState.CANCELLED:
            record.update(type="cancel", where="running")
        else:
            record.update(type="fail", error=error)
        self._journal.append(record)
        self.registry.counter(f"serve.jobs.{state.value}").inc()
        self._notify(job)

    def _notify(self, job: ServiceJob) -> None:
        """Broadcast one transition to waiters and watchers."""
        frame = ok_frame("transition", **job.record(include_request=False))
        for watcher in self._watchers.get(job.job_id, []):
            watcher.put(frame)
        self._transition.notify_all()

    # -- protocol ops ------------------------------------------------------

    def _serve_connection(self, handler: socketserver.StreamRequestHandler) -> None:
        """One client connection: frames in, frames out, until EOF."""
        while not self._stop.is_set():
            try:
                line = handler.rfile.readline()
            except (OSError, ValueError):
                return
            if not line:
                return
            if line.strip() == b"":
                continue
            try:
                frames = self._dispatch(decode_frame(line), handler)
            except ProtocolError as exc:
                frames = [exc.frame()]
            except RequestError as exc:
                frames = [error_frame(exc.code, exc.message)]
            except Exception as exc:  # noqa: BLE001 - protocol boundary
                frames = [
                    error_frame(
                        "internal-error", f"{type(exc).__name__}: {exc}"
                    )
                ]
            try:
                for frame in frames:
                    handler.wfile.write(encode_frame(frame))
                handler.wfile.flush()
            except (OSError, ValueError, BrokenPipeError):
                return

    def _dispatch(
        self,
        frame: Dict[str, Any],
        handler: socketserver.StreamRequestHandler,
    ) -> List[Dict[str, Any]]:
        op = frame.get("op")
        if op not in OPS:
            raise ProtocolError(
                "unknown-op",
                f"unknown op {op!r}; this daemon speaks: {', '.join(OPS)}",
            )
        if op == "ping":
            return [self._op_ping()]
        if op == "submit":
            return [self._op_submit(frame)]
        if op == "status":
            return [ok_frame("status", **self._get_job(frame).record())]
        if op == "result":
            return [self._op_result(frame)]
        if op == "wait":
            return [self._op_wait(frame)]
        if op == "watch":
            return self._op_watch(frame, handler)
        if op == "cancel":
            return [self._op_cancel(frame)]
        if op == "jobs":
            return [self._op_jobs(frame)]
        if op == "stats":
            return [self._op_stats()]
        # shutdown
        drain = bool(frame.get("drain", False))
        threading.Thread(
            target=self.stop, kwargs={"drain": drain}, daemon=True
        ).start()
        return [ok_frame("shutdown", drain=drain)]

    def _op_ping(self) -> Dict[str, Any]:
        with self._lock:
            return ok_frame(
                "pong",
                pid=os.getpid(),
                started_at=self.started_at,
                queued=self.queue.depth(),
                running=len(self._procs),
                jobs=len(self._jobs),
                policy=self.queue.policy_name,
                max_depth=self.queue.max_depth,
                recovery=self.recovery,
            )

    def _op_submit(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        payload = frame.get("request")
        request = RunRequest.from_dict(payload)  # RequestError -> error frame
        with self._lock:
            job_id = f"job-{self._next_job_number:06d}"
            self._next_job_number += 1
            job = ServiceJob(
                job_id=job_id,
                request=request,
                tenant=request.tenant,
                qos=request.qos,
            )
            job.submitted_at = time.time()
            try:
                self.queue.submit(job)
            except QueueFullError as exc:
                self.registry.counter("serve.rejected.queue_full").inc()
                return error_frame("queue-full", str(exc))
            except QuotaExceededError as exc:
                self.registry.counter("serve.rejected.quota").inc()
                return error_frame("quota-exceeded", str(exc))
            # Journal *after* admission (a rejected submit leaves no
            # trace) but before the ack (an acked job is durable).
            self._journal.append(
                {
                    "type": "submit",
                    "job_id": job_id,
                    "request": request.to_dict(),
                    "tenant": job.tenant,
                    "qos": job.qos,
                    "seq": job.seq,
                }
            )
            self._jobs[job_id] = job
            self.registry.counter("serve.jobs.submitted").inc()
            self._notify(job)
            return ok_frame("submitted", **job.record())

    def _get_job(self, frame: Dict[str, Any]) -> ServiceJob:
        job_id = frame.get("job_id")
        if not isinstance(job_id, str):
            raise ProtocolError("bad-frame", "op requires a 'job_id' string")
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ProtocolError("unknown-job", f"no such job: {job_id}")
        return job

    def _op_result(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        job = self._get_job(frame)
        with self._lock:
            if not job.state.terminal:
                return error_frame(
                    "not-finished",
                    f"job {job.job_id} is {job.state.value}; use 'wait'",
                    job_id=job.job_id,
                )
            return ok_frame("result", **job.record())

    def _op_wait(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        job = self._get_job(frame)
        timeout = frame.get("timeout")
        deadline = (time.time() + float(timeout)) if timeout else None
        with self._transition:
            while not job.state.terminal:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.time()
                    if remaining <= 0:
                        return error_frame(
                            "wait-timeout",
                            f"job {job.job_id} still {job.state.value} "
                            f"after {timeout}s",
                            job_id=job.job_id,
                        )
                self._transition.wait(timeout=remaining or 1.0)
                if self._stop.is_set() and not job.state.terminal:
                    return error_frame(
                        "daemon-stopping",
                        "daemon is shutting down; job will be requeued",
                        job_id=job.job_id,
                    )
            return ok_frame("result", **job.record())

    def _op_watch(
        self,
        frame: Dict[str, Any],
        handler: socketserver.StreamRequestHandler,
    ) -> List[Dict[str, Any]]:
        """Stream a frame per transition until the job is terminal.

        Writes directly to the connection (this handler thread is
        dedicated to it), then returns the final record as the
        dispatcher's reply.
        """
        job = self._get_job(frame)
        events: "_thread_queue.Queue[Dict[str, Any]]" = _thread_queue.Queue()
        with self._lock:
            self._watchers.setdefault(job.job_id, []).append(events)
            snapshot = ok_frame(
                "transition", **job.record(include_request=False)
            )
            terminal = job.state.terminal
        try:
            handler.wfile.write(encode_frame(snapshot))
            handler.wfile.flush()
            while not terminal and not self._stop.is_set():
                try:
                    event = events.get(timeout=0.5)
                except _thread_queue.Empty:
                    continue
                handler.wfile.write(encode_frame(event))
                handler.wfile.flush()
                terminal = JobState(event["state"]).terminal
        finally:
            with self._lock:
                watchers = self._watchers.get(job.job_id, [])
                if events in watchers:
                    watchers.remove(events)
                if not watchers:
                    self._watchers.pop(job.job_id, None)
        return [ok_frame("watch-end", **job.record())]

    def _op_cancel(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        job = self._get_job(frame)
        with self._lock:
            if job.state.terminal:
                return error_frame(
                    "already-finished",
                    f"job {job.job_id} already {job.state.value}",
                    job_id=job.job_id,
                )
            job.cancel_requested = True
            if job.state is JobState.QUEUED:
                removed = self.queue.cancel_queued(job.job_id)
                if removed is not None:
                    job.finished_at = time.time()
                    job.state = JobState.CANCELLED
                    self._journal.append(
                        {
                            "type": "cancel",
                            "job_id": job.job_id,
                            "where": "queued",
                        }
                    )
                    self.registry.counter("serve.jobs.cancelled").inc()
                    self._notify(job)
                    return ok_frame("cancelled", **job.record())
            # Running (or mid-pop): the reaper terminates the worker and
            # journals the cancel; the client observes it via wait/watch.
            return ok_frame("cancelling", **job.record())

    def _op_jobs(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        tenant = frame.get("tenant")
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda j: j.job_id)
            if tenant is not None:
                jobs = [j for j in jobs if j.tenant == tenant]
            return ok_frame(
                "jobs",
                jobs=[j.record(include_request=False) for j in jobs],
            )

    def _op_stats(self) -> Dict[str, Any]:
        with self._lock:
            states: Dict[str, int] = {}
            tenants: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state.value] = states.get(job.state.value, 0) + 1
                tenants[job.tenant] = tenants.get(job.tenant, 0) + 1
            return ok_frame(
                "stats",
                queued=self.queue.depth(),
                running=len(self._procs),
                max_depth=self.queue.max_depth,
                tenant_quota=self.queue.tenant_quota,
                policy=self.queue.policy_name,
                states=states,
                tenants=tenants,
                metrics=self.registry.snapshot(),
                journal_records=self._journal.records_written,
                recovery=self.recovery,
            )


def _job_number(job_id: str) -> Optional[int]:
    """The numeric suffix of a ``job-NNNNNN`` id, if it has one."""
    prefix, _, suffix = job_id.rpartition("-")
    if prefix == "job" and suffix.isdigit():
        return int(suffix)
    return None
