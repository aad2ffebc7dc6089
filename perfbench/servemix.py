"""serve-mixed: one client process drives a ``repro serve`` daemon open-loop.

The daemon runs as a subprocess with default settings on a private
socket, state dir and cache dir.  A sender thread submits each request
of the seeded stream when it is due, whatever the daemon is doing; a
receiver thread on a second connection stamps each job the moment it
first sees it terminal, in completion order (see :func:`receive`).
Latency runs from the due time to the moment the client holds the
terminal record.
"""

from __future__ import annotations

import os
import queue
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import batch
import gen
import layers
import proc
from repro import api
from repro import cache as repro_cache
from repro.obs import metrics as obs_metrics
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import JobState
from spans import Recorder
from stats import lateness, median, open_loop_latencies, percentile

#: A request slower than this (due -> terminal record held) is a failure:
#: a healthy run's p95 is a few hundred ms, so a miss here is a stall.
LATENCY_LIMIT_S = 5.0
#: A job not terminal this long after it was due is given up on.
STALL_S = 4 * LATENCY_LIMIT_S
#: Daemons started per run, before and after the stream (the last one
#: before it serves the stream); setup_s is the median of their start-up.
SETUP_SAMPLES = (3, 2)
START_TIMEOUT_S = 60.0


@dataclass
class Daemon:
    popen: subprocess.Popen
    socket: str
    setup_s: float

    def stop(self) -> None:
        if self.popen.poll() is None:
            try:
                with ServeClient.connect(self.socket, timeout=5.0) as client:
                    client.shutdown()
            except (ServeError, OSError):
                self.popen.terminate()
        try:
            self.popen.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.popen.kill()
            self.popen.wait()


def start_daemon(root: Path, run_dir: Path, name: str) -> Daemon:
    """Spawn ``repro serve`` on a private socket/state/cache; wait for ping."""
    base = run_dir / name
    base.mkdir(parents=True)
    # Unix socket paths are short; a relative path from the checkout root
    # (the cwd of both processes) stays well within the limit.
    sock = os.path.relpath(base / "s.sock", root)
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               REPRO_CACHE_DIR=str(base / "cache"), TMPDIR=str(base))
    cmd = [sys.executable, "-m", "repro", "serve", "--socket", sock,
           "--state-dir", str(base / "state")]
    started = time.perf_counter()
    with open(base / "daemon.log", "w") as log:
        popen = subprocess.Popen(cmd, cwd=root, env=env, stdout=log,
                                 stderr=subprocess.STDOUT)
    deadline = started + START_TIMEOUT_S
    while True:
        try:
            with ServeClient.connect(sock, timeout=5.0) as client:
                client.ping()
            break
        except (ServeError, OSError):
            if popen.poll() is not None or time.perf_counter() > deadline:
                popen.kill()
                popen.wait()
                raise RuntimeError(f"daemon {name} did not answer ping")
            time.sleep(0.005)
    return Daemon(popen, sock, time.perf_counter() - started)


# ---------------------------------------------------------------------------
# The open-loop stream
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    arrival: gen.Arrival
    due: float
    sent: float = 0.0
    acked: float = 0.0
    held: float = 0.0
    record: Optional[Dict[str, Any]] = None
    error: Optional[str] = None


def drive(sock: str, arrivals: List[gen.Arrival]) -> Tuple[List[Sample], float]:
    """Send every arrival when due; collect terminal records as they finish."""
    t0 = time.time() + 0.05
    samples = [Sample(a, t0 + a.due_s) for a in arrivals]
    pending: "queue.Queue[Optional[Tuple[Sample, str]]]" = queue.Queue()

    def sender() -> None:
        try:
            with ServeClient.connect(sock, timeout=LATENCY_LIMIT_S) as client:
                for sample in samples:
                    delay = sample.due - time.time()
                    if delay > 0:
                        time.sleep(delay)
                    sample.sent = time.time()
                    try:
                        ack = client.submit(sample.arrival.request)
                    except ServeError as exc:  # refused: counted as failed
                        sample.acked = time.time()
                        sample.error = exc.code
                        continue
                    sample.acked = time.time()
                    pending.put((sample, ack["job_id"]))
        finally:
            pending.put(None)

    def receiver() -> None:
        with ServeClient.connect(sock, timeout=LATENCY_LIMIT_S) as client:
            receive(client, pending)

    threads = [threading.Thread(target=sender), threading.Thread(target=receiver)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples, t0


def receive(client: Any, pending: "queue.Queue[Optional[Tuple[Sample, str]]]") -> None:
    """Stamp every submitted job when the client first sees it terminal.

    The daemon runs one job at a time by default, and its scheduler
    need not pick jobs in submission order.  So the receiver asks for
    the state of every outstanding job, stamps the terminal ones, and
    then waits on the running one, the only job that can finish next.
    No job is held back behind one submitted before it.
    """
    outstanding: Dict[str, Sample] = {}
    closed = False
    while outstanding or not closed:
        # Take every submission that has arrived; block only when idle.
        block = not outstanding
        while not closed:
            try:
                item = pending.get(block=block)
            except queue.Empty:
                break
            if item is None:
                closed = True
            else:
                outstanding[item[1]] = item[0]
            block = False
        running = None
        for job_id, sample in list(outstanding.items()):
            try:
                state = JobState(client.status(job_id)["state"])
                if state.terminal:
                    sample.held = time.time()
                    # ``result`` reads the record under the daemon's lock.
                    sample.record = client.result(job_id)
                elif time.time() - sample.due > STALL_S:
                    sample.error, sample.held = "stalled", time.time()
                else:
                    if state is JobState.RUNNING:
                        running = job_id
                    continue
            except ServeError as exc:
                sample.error, sample.held = exc.code, time.time()
            del outstanding[job_id]
        if running is None:
            if outstanding:
                time.sleep(0.001)  # queued, not yet picked by the scheduler
            continue
        sample = outstanding.pop(running)
        try:
            sample.record = client.wait(running, timeout=STALL_S)
        except ServeError as exc:
            sample.error = exc.code
        sample.held = time.time()


def tally(samples: List[Sample], notes: List[str]) -> Tuple[List[Sample], int]:
    """Requests that finished in time, and the failure count.

    Every request sent is an attempt: refused submits, failed or faulted
    jobs and replies over :data:`LATENCY_LIMIT_S` all count as failed.
    """
    done: List[Sample] = []
    failed = 0
    for s in samples:
        if s.error is not None or s.record is None or s.record.get("state") != "done":
            failed += 1
            notes.append(f"request due at {s.arrival.due_s:.3f}s: {s.error or 'not done'}")
        elif s.held - s.due > LATENCY_LIMIT_S:
            failed += 1
            notes.append(f"{s.record['job_id']} over the latency limit")
        else:
            done.append(s)
    return done, failed


# ---------------------------------------------------------------------------
# Direct reference runs
# ---------------------------------------------------------------------------


def direct_runs(
    requests: List[api.RunRequest],
    cache_dir: Optional[Path],
    recorder: Optional[Recorder] = None,
    ids: Optional[List[str]] = None,
) -> List[Tuple[str, float]]:
    """``repro.api.run`` each request in this process: (digest, seconds).

    With ``cache_dir`` the whole-job disk layer is on (a fresh store, so
    repeats hit exactly as they do in the daemon); without it every
    request simulates.  A ``recorder`` stamps each request's spans with
    its id from ``ids`` (the daemon's job id).
    """
    out = []
    if cache_dir is not None:
        repro_cache.configure(root=cache_dir, enabled=True)
    repro_cache.set_job_results_enabled(cache_dir is not None)
    try:
        for i, request in enumerate(requests):
            if recorder is not None and ids is not None:
                recorder.request = ids[i]
            started = time.perf_counter()
            digest = api.run(request).digest
            out.append((digest, time.perf_counter() - started))
    finally:
        repro_cache.set_job_results_enabled(False)
    return out


# ---------------------------------------------------------------------------
# One serve-mixed run
# ---------------------------------------------------------------------------


def _warm(sock: str) -> None:
    """A few untimed requests (shapes the stream never uses)."""
    with ServeClient.connect(sock, timeout=60.0) as client:
        for app, vps, elements, _iters in gen.SERVE_SHAPES[:4]:
            request = api.RunRequest(app=app, n_vps=vps, scale_elements=elements,
                                     scale_iterations=3, tenant="warmup")
            client.wait(client.submit(request)["job_id"], timeout=60.0)


def run(root: Path, run_dir: Path, seed: int, seconds: float, trace: bool) -> batch.Outcome:
    arrivals = gen.serve_stream(seed, seconds)
    notes: List[str] = []
    daemons: List[Daemon] = []
    before, after = SETUP_SAMPLES
    try:
        for i in range(before):
            daemons.append(start_daemon(root, run_dir, f"d{i}"))
            if i < before - 1:
                daemons[-1].stop()
        daemon = daemons[-1]
        _warm(daemon.socket)
        pid = daemon.popen.pid
        cpu0 = proc.cpu_s(pid, children=True)
        samples, t0 = drive(daemon.socket, arrivals)
        end = max(s.held or s.acked for s in samples)
        cpu = proc.cpu_s(pid, children=True) - cpu0
        with ServeClient.connect(daemon.socket, timeout=30.0) as client:
            stats = client.stats()
        daemon.stop()
        peak = proc.children_peak_rss_mb()
        for i in range(before, before + after):
            daemons.append(start_daemon(root, run_dir, f"d{i}"))
            daemons[-1].stop()
    finally:
        for d in daemons:
            d.stop()

    done, failed = tally(samples, notes)

    # Every daemon digest must equal a direct run of the same request.
    unique: Dict[str, api.RunRequest] = {}
    for s in done:
        unique.setdefault(s.arrival.request.config_hash, s.arrival.request)
    direct = dict(zip(unique, (d for d, _ in direct_runs(list(unique.values()), None))))
    mismatched = [s for s in done if s.record["digest"] != direct[s.arrival.request.config_hash]]
    if mismatched:
        notes.append(f"{len(mismatched)} daemon digest(s) != direct repro.api.run")
        failed += len(mismatched)

    latencies = open_loop_latencies([s.due for s in done], [s.held for s in done])
    table: Dict[str, Any] = {
        "requests": len(samples), "done": len(done),
        "repeats": sum(1 for s in samples if s.arrival.repeat),
        "offered_rate": gen.SERVE_RATE,
        "setup_samples_s": [d.setup_s for d in daemons],
    }
    if trace:
        metrics = _layers(run_dir, samples, done, stats, notes, table)
    else:
        metrics = {
            "setup_s": median([d.setup_s for d in daemons]),
            "wall_s": end - t0,
            "cpu_s": cpu,
            "peak_rss_mb": peak,
            "latency_p50_ms": 1e3 * median(latencies),
            "latency_p95_ms": 1e3 * percentile(latencies, 95),
        }
        metrics.update(batch.workload_accuracy([a for a, *_ in gen.SERVE_SHAPES]))
    return batch.Outcome(metrics, len(samples), failed, notes, table)


def _layers(run_dir: Path, samples: List[Sample], done: List[Sample],
            stats: Dict[str, Any], notes: List[str], table: Dict[str, Any]) -> Dict[str, float]:
    """serve.* from client timestamps and job records; the rest from a
    traced in-process replay of the same stream (disk layer on)."""
    ms = 1e3
    rec = [s.record for s in done]
    queue_wait = [ms * (r["started_at"] - r["submitted_at"]) for r in rec]
    run_ms = [ms * (r["finished_at"] - r["started_at"]) for r in rec]
    counters = layers.counter_values(stats.get("metrics", {}))
    states = stats.get("states", {})

    requests = [s.arrival.request for s in done]
    untraced = direct_runs(requests, run_dir / "replay-untraced")
    registry = obs_metrics.MetricsRegistry()
    with Recorder() as recorder:
        obs_metrics.enable(registry)
        try:
            started = time.perf_counter()
            traced = direct_runs(requests, run_dir / "replay-traced", recorder,
                                 [r["job_id"] for r in rec])
            window = time.perf_counter() - started
        finally:
            obs_metrics.disable()
    if [d for d, _ in traced] != [d for d, _ in untraced]:
        notes.append("traced replay digests differ from the untraced replay")
    out = layers.layer_metrics(recorder.spans, recorder.calls, recorder.bytes,
                               layers.counter_values(registry.snapshot()), 1)
    untraced_s = sum(t for _, t in untraced)
    out.update({
        "serve.submit_rtt_ms.p50": median([ms * (s.acked - s.sent) for s in samples]),
        "serve.queue_wait_ms.p50": median(queue_wait),
        "serve.queue_wait_ms.p95": percentile(queue_wait, 95),
        "serve.run_ms.p50": median(run_ms),
        "serve.notify_ms.p50": median([ms * (s.held - s.record["finished_at"]) for s in done]),
        "serve.fork_overhead_ms.p50": median(
            [r - ms * t for r, (_, t) in zip(run_ms, untraced)]
        ),
        "serve.rejected": sum(v for k, v in counters.items() if k.startswith("serve.rejected.")),
        "serve.faulted": float(states.get("failed", 0) + states.get("faulted", 0)),
        "client.lag_ms.p95": percentile(
            [ms * v for v in lateness([s.due for s in samples], [s.sent for s in samples])], 95
        ),
        "trace.overhead_pct": 100.0 * (window / untraced_s - 1.0),
    })
    latencies = open_loop_latencies([s.due for s in done], [s.held for s in done])
    table.update({
        "latency_p50_ms": ms * median(latencies),
        "direct_p50_ms": ms * median([t for _, t in untraced]),
        "traced_window_s": window,
        "shares": layers.shares(recorder.spans, window),
        "spans": recorder.spans,
    })
    return out
