"""The daemon's admission-controlled, tenant-scheduled job queue.

Admission is explicit: a full queue **rejects** (``QueueFullError``,
surfaced to the client as a ``queue-full`` error frame), it never
silently drops; per-tenant quotas (``QuotaExceededError``) keep one
chatty tenant from monopolizing the queue.

Tenant scheduling reuses the simulator's own select stage: each tenant
is represented to a registered :class:`~repro.sched.policies
.SchedulingPolicy` the way a VP is represented to the dispatcher — the
tenant's *oldest* queued job is its dispatchable head (per-tenant FIFO,
the service analog of per-VP partial order), and the policy picks among
heads.  ``fair-share`` therefore gives deficit-round-robin fairness
across tenants and ``priority-deadline`` gives QoS tiers with latency
budgets, with zero new scheduling code; the per-job ``qos`` field
threads straight into the policy's tier map.

The expected-duration oracle the duration-aware policies want is fed by
the queue itself: an exponential moving average of observed wall time
per (app, n_vps) scenario shape, so fair-share charges tenants for what
their jobs actually cost.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..api import RunRequest
from ..core.jobs import Job, JobKind
from ..sched.backlog import EngineBacklog
from ..sched.policies import SchedulingPolicy
from ..sched.registry import make_policy
from ..sim import Environment
from .protocol import JobState

__all__ = [
    "DEFAULT_MAX_DEPTH",
    "QueueFullError",
    "QuotaExceededError",
    "ServiceJob",
    "ServiceQueue",
]

#: Default bound on queued (not yet running) jobs.
DEFAULT_MAX_DEPTH = 64

#: Default per-tenant cap on queued + running jobs (0 = unlimited).
DEFAULT_TENANT_QUOTA = 16

#: Fallback expected duration before any observation exists, in ms.
_DEFAULT_ESTIMATE_MS = 1000.0

#: EMA smoothing for observed job durations.
_ESTIMATE_ALPHA = 0.3


class QueueFullError(Exception):
    """Admission rejected a submission: the queue is at max depth."""


class QuotaExceededError(Exception):
    """Admission rejected a submission: the tenant is at its quota."""


_service_seq = itertools.count()


@dataclass
class ServiceJob:
    """One submitted job's live record inside the daemon."""

    job_id: str
    #: ``None`` only for a replayed job whose journaled request no
    #: longer parses (it is FAULTED with the parse error).
    request: Optional[RunRequest]
    tenant: str
    #: Effective QoS tier (request.qos, defaulted by the server config).
    qos: Optional[int]
    state: JobState = JobState.QUEUED
    #: Monotonic admission order across the daemon's lifetime.
    seq: int = field(default_factory=lambda: next(_service_seq))
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    worker_pid: Optional[int] = None
    value: Optional[Dict[str, Any]] = None
    digest: Optional[str] = None
    error: Optional[Dict[str, Any]] = None
    cancel_requested: bool = False
    #: Times this job was requeued by a graceful daemon stop.
    requeues: int = 0
    #: The policy-facing shim (a real scheduler Job whose ``vp`` is the
    #: tenant), minted at admission so policies see stable identities.
    shim: Optional[Job] = None

    def record(self, include_request: bool = True) -> Dict[str, Any]:
        """The JSON-able record frames and journal entries carry."""
        payload: Dict[str, Any] = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "qos": self.qos,
            "state": self.state.value,
            "seq": self.seq,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "worker_pid": self.worker_pid,
            "value": self.value,
            "digest": self.digest,
            "error": self.error,
            "requeues": self.requeues,
            "config_hash": None,
            "label": None,
        }
        if self.request is not None:
            payload["config_hash"] = self.request.config_hash
            payload["label"] = f"{self.request.app}:{self.request.n_vps}vps"
        if include_request:
            payload["request"] = (
                self.request.to_dict() if self.request is not None else None
            )
        return payload


class ServiceQueue:
    """Bounded, journaling-agnostic queue with tenant-aware selection.

    Thread-safe: the daemon's connection handlers submit/cancel while
    the scheduler loop pops.  Persistence lives in the server (which
    journals around queue operations), so the queue itself stays a pure
    in-memory policy structure that unit tests can drive directly.
    """

    def __init__(
        self,
        max_depth: int = DEFAULT_MAX_DEPTH,
        tenant_quota: int = DEFAULT_TENANT_QUOTA,
        policy: str = "fair-share",
        policy_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if tenant_quota < 0:
            raise ValueError(f"tenant_quota must be >= 0, got {tenant_quota}")
        self.max_depth = max_depth
        self.tenant_quota = tenant_quota
        self.policy_name = policy
        self.policy: SchedulingPolicy = make_policy(
            policy, **(policy_options or {})
        )
        self.policy.attach(self._expected_ms)
        self._lock = threading.RLock()
        #: Pending jobs per tenant, oldest (lowest seq) first.
        self._pending: Dict[str, List[ServiceJob]] = {}
        #: Jobs currently marked running (admission quota accounting).
        self._running: Dict[str, ServiceJob] = {}
        #: Dedicated event environment for policy-shim completion events.
        self._env = Environment()
        #: Backlog passed to the policy (engine-free: stays empty, which
        #: makes every policy's engine term a constant).
        self._backlog = EngineBacklog()
        #: EMA of observed wall ms per scenario shape key.
        self._estimates: Dict[str, float] = {}
        #: Shim job -> live record, for the expected-ms oracle.
        self._by_shim: Dict[int, ServiceJob] = {}

    # -- admission ---------------------------------------------------------

    def depth(self) -> int:
        """Queued (not yet running) job count."""
        with self._lock:
            return sum(len(jobs) for jobs in self._pending.values())

    def tenant_load(self, tenant: str) -> int:
        """Queued plus running jobs charged to one tenant."""
        with self._lock:
            queued = len(self._pending.get(tenant, []))
            running = sum(
                1 for job in self._running.values() if job.tenant == tenant
            )
            return queued + running

    def tenants(self) -> List[str]:
        with self._lock:
            return sorted(t for t, jobs in self._pending.items() if jobs)

    def submit(self, job: ServiceJob) -> None:
        """Admit one job, or raise the explicit rejection.

        Raises :class:`QueueFullError` at max depth and
        :class:`QuotaExceededError` past the tenant quota — both before
        any state changes, so a rejected submission leaves no trace.
        """
        with self._lock:
            if self.depth() >= self.max_depth:
                raise QueueFullError(
                    f"queue is at max depth {self.max_depth}; retry later"
                )
            if self.tenant_quota and self.tenant_load(job.tenant) >= self.tenant_quota:
                raise QuotaExceededError(
                    f"tenant {job.tenant!r} is at its quota of "
                    f"{self.tenant_quota} queued+running jobs"
                )
            self._admit(job)

    def _admit(self, job: ServiceJob) -> None:
        """Mint the policy shim and insert in per-tenant seq order."""
        if job.shim is None:
            shim = Job(
                vp=job.tenant,
                seq=job.seq,
                kind=JobKind.KERNEL,
                completion=self._env.event(),
            )
            shim.submitted_at_ms = float(job.seq)
            job.shim = shim
        self._register_qos(job)
        self._by_shim[id(job.shim)] = job
        pending = self._pending.setdefault(job.tenant, [])
        pending.append(job)
        pending.sort(key=lambda j: j.seq)
        job.state = JobState.QUEUED

    def _register_qos(self, job: ServiceJob) -> None:
        """Thread the job's QoS tier into a tier-aware policy."""
        tiers = getattr(self.policy, "tiers", None)
        if job.qos is not None and isinstance(tiers, dict):
            tiers[job.tenant] = job.qos

    def requeue(self, job: ServiceJob) -> None:
        """Put a previously running job back (graceful-stop path).

        Requeues bypass depth/quota admission — the job was already
        admitted once and rejecting it now would lose accepted work.
        """
        with self._lock:
            self._running.pop(job.job_id, None)
            job.requeues += 1
            job.started_at = None
            job.worker_pid = None
            self._admit(job)

    # -- scheduling --------------------------------------------------------

    def _expected_ms(self, shim: Job) -> float:
        job = self._by_shim.get(id(shim))
        if job is None:
            return _DEFAULT_ESTIMATE_MS
        return self._estimates.get(
            self._estimate_key(job), _DEFAULT_ESTIMATE_MS
        )

    @staticmethod
    def _estimate_key(job: ServiceJob) -> str:
        request = job.request
        assert request is not None, "only parsed requests are ever queued"
        return f"{request.app}:{request.n_vps}:{request.functional}"

    def observe_duration(self, job: ServiceJob, wall_s: float) -> None:
        """Feed one observed wall time into the per-shape EMA."""
        key = self._estimate_key(job)
        with self._lock:
            previous = self._estimates.get(key)
            value = wall_s * 1e3
            if previous is not None:
                value = (1 - _ESTIMATE_ALPHA) * previous + _ESTIMATE_ALPHA * value
            self._estimates[key] = value

    def next_job(self) -> Optional[ServiceJob]:
        """Pop the policy's pick among per-tenant heads (None = idle)."""
        with self._lock:
            heads = [
                jobs[0].shim
                for jobs in self._pending.values()
                if jobs and jobs[0].shim is not None
            ]
            if not heads:
                return None
            choice = self.policy.select(list(heads), self._backlog)
            if choice is None:
                return None
            job = self._by_shim[id(choice)]
            self._pending[job.tenant].remove(job)
            self._running[job.job_id] = job
            job.state = JobState.RUNNING
            return job

    def mark_finished(self, job: ServiceJob) -> None:
        """Drop a job from the running set (terminal transition)."""
        with self._lock:
            self._running.pop(job.job_id, None)
            if job.shim is not None:
                self._by_shim.pop(id(job.shim), None)

    def cancel_queued(self, job_id: str) -> Optional[ServiceJob]:
        """Remove a still-queued job; None when it is not queued here."""
        with self._lock:
            for tenant, jobs in self._pending.items():
                for job in jobs:
                    if job.job_id == job_id:
                        jobs.remove(job)
                        if job.shim is not None:
                            self._by_shim.pop(id(job.shim), None)
                        return job
        return None

    def queued_jobs(self) -> List[ServiceJob]:
        """Every queued job, in global admission order."""
        with self._lock:
            jobs = [j for pending in self._pending.values() for j in pending]
            return sorted(jobs, key=lambda j: j.seq)

    def running_jobs(self) -> List[ServiceJob]:
        with self._lock:
            return sorted(self._running.values(), key=lambda j: j.seq)
