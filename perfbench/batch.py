"""Closed-loop batch workloads: paper-suite, event-bound, functional.

One client issues the workload's job list again and again; each
repetition is a *pass*.  paper-suite goes through a persistent
two-worker :class:`~repro.exec.ScenarioFarm`; the other two call
:func:`repro.api.run` (``FarmJob`` entries: :func:`repro.exec.farm.run_job`,
the path ``api.run`` itself takes) serially in this process.  The
whole-job disk layer is off, so every pass simulates.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import gen
import layers
import proc
from repro import api
from repro import cache as repro_cache
from repro.backend.api import ExecutionBackend
from repro.exec.bench import FULL_SUITE
from repro.exec.farm import (
    FarmJob,
    FarmResult,
    ScenarioFarm,
    canonical_json,
    results_digest,
    run_job,
)
from repro.obs import metrics as obs_metrics
from spans import Recorder
from stats import median, percentile

#: Farm size for paper-suite: one worker per core of the 2-core host,
#: never more than the machine has.
FARM_WORKERS = max(1, min(2, os.cpu_count() or 1))

#: Per-job latency samples a run collects at least (p95 needs 200).
MIN_LATENCY_SAMPLES = 200

FULL_SUITE_KEYS = frozenset(job.key for job in FULL_SUITE)


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    latencies_s: List[float]
    digest: str
    attempted: int
    failed: int
    job_s: float = 0.0
    values: Dict[str, Any] = field(default_factory=dict)
    #: Serial passes: (wall, cpu) seconds per job index; None if it failed.
    per_job: List[Optional[Tuple[float, float]]] = field(default_factory=list)


def _job_key(job: gen.Job) -> str:
    return job.config_hash if isinstance(job, api.RunRequest) else job.key


def _job_label(job: gen.Job) -> str:
    if isinstance(job, api.RunRequest):
        return f"{job.app}:{job.n_vps}vps:it{job.scale_iterations}"
    return job.label or job.fn


def _pass_digest(pairs: Sequence[Tuple[str, str]]) -> str:
    """Order-free digest of (job key, job digest) pairs."""
    text = "\n".join(f"{k} {d}" for k, d in sorted(pairs))
    return hashlib.sha256(text.encode()).hexdigest()


class SerialRunner:
    """Runs a job list in this process, one job at a time."""

    def __init__(self, jobs: Sequence[gen.Job]) -> None:
        self.jobs = list(jobs)
        #: Set during traced passes: spans are stamped with the job's key.
        self.recorder: Optional[Recorder] = None

    def one(self, job: gen.Job) -> Tuple[str, Any]:
        if isinstance(job, api.RunRequest):
            outcome = api.run(job)
            return outcome.digest, outcome.value
        result = run_job(job)
        return results_digest([result]), result.value

    def run_pass(self) -> Pass:
        pairs: List[Tuple[str, str]] = []
        per_job: List[Optional[Tuple[float, float]]] = []
        values: Dict[str, Any] = {}
        c0, t0 = time.process_time(), time.perf_counter()
        for job in self.jobs:
            if self.recorder is not None:
                self.recorder.request = _job_key(job)[:16]
            cpu, started = time.process_time(), time.perf_counter()
            try:
                digest, value = self.one(job)
            except Exception:  # a failed job is a counted outcome, not a crash
                traceback.print_exc(file=sys.stderr)
                per_job.append(None)
                continue
            per_job.append((time.perf_counter() - started, time.process_time() - cpu))
            pairs.append((_job_key(job), digest))
            values[_job_key(job)] = value
        wall = time.perf_counter() - t0
        latencies = [t[0] for t in per_job if t is not None]
        return Pass(wall, time.process_time() - c0, latencies, _pass_digest(pairs),
                    len(self.jobs), per_job.count(None), job_s=sum(latencies),
                    values=values, per_job=per_job)

    def close(self) -> None:
        pass


class FarmRunner:
    """Runs a job list through a persistent ScenarioFarm."""

    def __init__(self, jobs: Sequence[FarmJob]) -> None:
        self.jobs = list(jobs)
        self.farm = ScenarioFarm(workers=FARM_WORKERS, persistent=True)
        self.worker_pids: List[int] = []

    def run_pass(self) -> Pass:
        pids = list(self.worker_pids)
        before = proc.cpu_s_sum(pids)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            results: List[FarmResult] = self.farm.map(self.jobs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return Pass(time.perf_counter() - t0, 0.0, [], "", len(self.jobs), len(self.jobs))
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        now_pids = sorted({r.worker_pid for r in results} - {os.getpid()})
        if now_pids == pids:
            cpu += proc.cpu_s_sum(pids) - before
        else:  # first pass on a fresh pool: no baseline for its workers
            cpu = float("nan")
        self.worker_pids = now_pids
        return Pass(
            wall, cpu, [r.duration_s for r in results],
            _pass_digest([(r.job_key, results_digest([r])) for r in results]),
            len(self.jobs), 0, job_s=sum(r.duration_s for r in results),
            values={r.job_key: r.value for r in results},
        )

    def full_suite_digest(self, p: Pass) -> str:
        """The pinned ``repro bench`` suite's own digest, from a pass."""
        pairs = sorted((k, v) for k, v in p.values.items() if k in FULL_SUITE_KEYS)
        return _suite_digest(pairs)

    def close(self) -> None:
        self.farm.close()


def _suite_digest(pairs: Sequence[Tuple[str, Any]]) -> str:
    """``results_digest`` over (key, value) pairs without FarmResults."""
    return hashlib.sha256(canonical_json(sorted(pairs, key=lambda kv: kv[0])).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Timed loop
# ---------------------------------------------------------------------------


def timed_passes(
    runner: Any, seconds: float, min_samples: int = 0, min_passes: int = 1
) -> List[Pass]:
    """Repeat passes for ``seconds`` (and enough samples); GC between passes."""
    passes: List[Pass] = []
    samples = 0
    started = time.perf_counter()
    while True:
        gc.collect()
        gc.disable()
        try:
            p = runner.run_pass()
        finally:
            gc.enable()
        passes.append(p)
        samples += len(p.latencies_s)
        if (time.perf_counter() - started >= seconds and samples >= min_samples
                and len(passes) >= min_passes):
            return passes


# ---------------------------------------------------------------------------
# Output check for functional runs
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def output_digest() -> Iterator["hashlib._Hash"]:
    """Hash every array a backend hands back to the host, in order."""
    digest = hashlib.sha256()
    original = ExecutionBackend.d2h

    def d2h(self: ExecutionBackend, device: Any) -> Any:
        host = original(self, device)
        if host is not None:
            array = np.ascontiguousarray(host)
            digest.update(f"{array.dtype}{array.shape}".encode())
            digest.update(array.tobytes())
        return host

    ExecutionBackend.d2h = d2h  # type: ignore[method-assign]
    try:
        yield digest
    finally:
        ExecutionBackend.d2h = original  # type: ignore[method-assign]


def functional_outputs(jobs: Sequence[gen.Job], backend: Optional[str] = None) -> str:
    """Digest of every job's device-to-host outputs (untimed check).

    ``backend`` re-runs the same scenarios on another registered
    backend; outputs must not depend on which one ran them.
    """
    from repro.backend.registry import backend_scope

    runner = SerialRunner(jobs)
    scope = backend_scope(backend) if backend else contextlib.nullcontext()
    with scope, output_digest() as digest:
        for job in runner.jobs:
            runner.one(job)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Model accuracy (deterministic; checked, not timed)
# ---------------------------------------------------------------------------


def accuracy(values: Dict[str, Any], jobs: Sequence[FarmJob]) -> Dict[str, float]:
    """The three error figures from Fig. 12/13 and Fig. 9(b) job values."""
    timing, power, interleave = [], [], []
    for job in jobs:
        value = values[job.key]
        if job.fn.endswith(":fig12_point"):
            timing.append(abs(value["c_double_prime_normalized"] - 1.0))
        elif job.fn.endswith(":fig13_point"):
            power.append(abs(value["estimated_w"] / value["measured_w"] - 1.0))
        elif job.fn.endswith(":fig9b_point"):
            interleave.append(abs(value["measured"] / value["expected"] - 1.0))
    return {
        "timing_est_err_pct": 100.0 * sum(timing) / len(timing),
        "power_est_err_pct": 100.0 * sum(power) / len(power),
        "interleave_err_pct": 100.0 * sum(interleave) / len(interleave),
    }


def accuracy_jobs(apps: Sequence[str]) -> List[FarmJob]:
    """Estimation points for ``apps`` on both hosts, plus Fig. 9(b) n=8."""
    jobs = [
        FarmJob(fn=f"repro.exec.jobs:{fn}", kwargs={"host": host, "app": app})
        for fn in ("fig12_point", "fig13_point")
        for host in gen.ESTIMATION_HOSTS
        for app in sorted(set(apps))
    ]
    jobs.append(FarmJob(fn="repro.exec.jobs:fig9b_point", kwargs={"n_programs": 8}))
    return jobs


def workload_accuracy(apps: Sequence[str]) -> Dict[str, float]:
    jobs = accuracy_jobs(apps)
    return accuracy({job.key: run_job(job).value for job in jobs}, jobs)


def apps_of(jobs: Sequence[gen.Job]) -> List[str]:
    out = []
    for job in jobs:
        # fig10a points take no app: they run a vectorAdd spec.
        app = job.app if isinstance(job, api.RunRequest) else job.kwargs.get("app", "vectorAdd")
        out.append(app)
    return sorted(set(out))


# ---------------------------------------------------------------------------
# One batch run
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    notes: List[str]
    table: Dict[str, Any] = field(default_factory=dict)


def _check_digests(passes: Sequence[Pass], expected: str, notes: List[str], what: str) -> int:
    bad = sum(1 for p in passes if p.digest and p.digest != expected)
    if bad:
        notes.append(f"{what}: {bad} pass(es) digest != {expected[:12]}")
    return bad


def run(workload: str, seed: int, seconds: float, trace: bool, pins: Dict[str, Any],
        default_seed: int) -> Outcome:
    jobs = {"paper-suite": gen.paper_suite, "event-bound": gen.event_bound,
            "functional": gen.functional}[workload](seed)
    repro_cache.set_job_results_enabled(False)
    pin = pins.get(workload, {})
    notes: List[str] = []
    farm = workload == "paper-suite"
    runner = FarmRunner(jobs) if farm else SerialRunner(jobs)  # type: ignore[arg-type]
    try:
        warm = runner.run_pass()  # fills memo caches, forks the pool
        attempted, failed = warm.attempted, warm.failed
        expected = pin.get("pass") if (farm or seed == default_seed) else None
        expected = expected or warm.digest
        failed += _check_digests([warm], expected, notes, "warm-up")
        suite_digest = runner.full_suite_digest(warm) if farm else None
        if farm and suite_digest != pin.get("full_suite"):
            notes.append("FULL_SUITE digest != pin")
            failed += 1
        if trace:
            outcome = _traced(workload, jobs, runner, seconds, expected, notes)
        else:
            outcome = _untraced(workload, runner, seconds, expected, notes)
        attempted += outcome.attempted
        failed += outcome.failed
        if workload == "functional":
            attempted += 2
            got = functional_outputs(jobs)
            want = pin.get("outputs") if seed == default_seed else None
            ref = functional_outputs(jobs, backend="numpy")
            for label, other in (("pin", want), ("numpy backend", ref)):
                if other is not None and other != got:
                    notes.append(f"functional outputs != {label}")
                    failed += 1
            outcome.table["outputs_digest"] = got
        if not trace:
            if farm:
                outcome.metrics.update(accuracy(warm.values, jobs))
            else:
                outcome.metrics.update(workload_accuracy(apps_of(jobs)))
        outcome.table.update(pass_digest=warm.digest)
        if suite_digest:
            outcome.table["full_suite_digest"] = suite_digest
        outcome.attempted, outcome.failed = attempted, failed
        outcome.notes = notes
        return outcome
    finally:
        runner.close()


def best_pass(passes: Sequence[Pass]) -> Tuple[float, float]:
    """(wall, cpu) seconds of the run's best pass.

    Contention on a shared host only ever adds time, and it comes in
    bursts that hit some jobs and not others, so the best time is the
    steady estimate of the program's own cost (``repro bench`` also
    keeps its best round).  Serial passes are rebuilt job by job: each
    job at its best time over the run's passes.  A farm pass overlaps
    its jobs, so it counts whole: the fastest pass.
    """
    if not passes[0].per_job:
        return min(p.wall_s for p in passes), min(p.cpu_s for p in passes)
    wall = cpu = 0.0
    for times in zip(*(p.per_job for p in passes)):
        done = [t for t in times if t is not None]
        if done:
            wall += min(t[0] for t in done)
            cpu += min(t[1] for t in done)
    return wall, cpu


def _untraced(workload: str, runner: Any, seconds: float, expected: str,
              notes: List[str]) -> Outcome:
    per_pass = len(runner.jobs)
    min_passes = -(-MIN_LATENCY_SAMPLES // per_pass)
    passes = timed_passes(runner, seconds, MIN_LATENCY_SAMPLES, min_passes)
    failed = sum(p.failed for p in passes) + _check_digests(passes, expected, notes, "timed")
    latencies = [s for p in passes for s in p.latencies_s]
    wall, cpu = best_pass(passes)
    p95 = percentile(latencies, 95)
    # The jobs differ in size, so the tail is a few large jobs: name them.
    labels = [_job_label(j) for j in runner.jobs]
    tail = Counter(label for p in passes if not p.failed
                   for label, s in zip(labels, p.latencies_s) if s > p95)
    metrics = {
        "wall_s": wall,
        "cpu_s": cpu,
        "latency_p50_ms": 1e3 * median(latencies),
        "latency_p95_ms": 1e3 * p95,
    }
    table = {"passes": len(passes), "latency_samples": len(latencies),
             "beyond_p95_by_job": dict(tail.most_common()),
             "wall_s_median": median([p.wall_s for p in passes]),
             "cpu_s_median": median([p.cpu_s for p in passes])}
    return Outcome(metrics, sum(p.attempted for p in passes), failed, notes, table)


def _traced(workload: str, jobs: Sequence[gen.Job], runner: Any, seconds: float,
            expected: str, notes: List[str]) -> Outcome:
    """Untraced reference passes, then the same passes traced.

    paper-suite's spans cannot cross the farm's workers, so its traced
    passes (and their untraced reference) run serially in-process; the
    farm figures come from untraced farm passes timed first.
    """
    out: Dict[str, float] = {}
    passes: List[Pass] = []
    share = seconds / (3.0 if workload == "paper-suite" else 2.0)
    if workload == "paper-suite":
        farm_passes = timed_passes(runner, share)
        passes += farm_passes
        job_s = median([p.job_s for p in farm_passes])
        map_s = median([p.wall_s for p in farm_passes])
        out.update({"exec.farm.map_s": map_s, "exec.farm.job_s": job_s,
                    "exec.farm.efficiency": job_s / (map_s * runner.farm.workers)})
        serial = SerialRunner(jobs)
        passes.append(serial.run_pass())  # warms this process's memo caches
    else:
        serial = runner
    reference = timed_passes(serial, share)
    passes += reference
    registry = obs_metrics.MetricsRegistry()
    with Recorder() as recorder:
        serial.recorder = recorder
        obs_metrics.enable(registry)
        try:
            traced = timed_passes(serial, share)
        finally:
            obs_metrics.disable()
            serial.recorder = None
    passes += traced
    failed = sum(p.failed for p in passes) + _check_digests(passes, expected, notes, "timed")
    window = sum(p.wall_s for p in traced)
    out.update(layers.layer_metrics(
        recorder.spans, recorder.calls, recorder.bytes,
        layers.counter_values(registry.snapshot()), len(traced),
    ))
    out["trace.overhead_pct"] = 100.0 * (
        best_pass(traced)[0] / best_pass(reference)[0] - 1.0
    )
    table = {
        "traced_passes": len(traced),
        "reference_passes": len(reference),
        "traced_window_s": window,
        "traced_cpu_s": sum(p.cpu_s for p in traced),
        "shares": layers.shares(recorder.spans, window),
        "spans": recorder.spans,
    }
    return Outcome(out, sum(p.attempted for p in passes), failed, notes, table)
