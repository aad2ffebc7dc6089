"""The Job Dispatcher: executes Job Queue entries on the host GPU.

"The Job Dispatcher links the requests to the GPU driver library on the
host machine and invokes the physical GPU instructions based on the
requests in the Job Queue" (paper Section 2).

Two service disciplines are provided:

* :attr:`ServiceMode.SERIAL` — the unoptimized prototype: one request is
  served to completion before the next is fetched, in arrival order.
  This is the baseline against which Kernel Interleaving's Eq. (7)/(8)
  gains are defined (3N phases fully serialized).
* :attr:`ServiceMode.PIPELINED` — optimized multiplexing: jobs flow to
  the three hardware engines concurrently.  Engine queues are kept
  shallow (one op executing, at most one queued) so the scheduling
  policy re-decides at every slot — that is what lets a late-arriving
  D2H overtake queued H2Ds and form the interleaved schedule of Fig. 3b.

Per-VP partial order is preserved structurally: only each VP's earliest
pending job is dispatchable, and a VP never has two jobs in flight (the
stream-pump semantics of a per-VP CUDA stream).

Scheduling decisions themselves live in :mod:`repro.sched`: the
dispatcher is a thin engine-facing executor that consults a
:class:`~repro.sched.SchedulerPipeline` (admission → hold/merge →
select → place) for *what* to run next and then runs it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..backend.api import ExecutionBackend
from ..backend.registry import default_backend
from ..gpu import vectimes as _vectimes
from ..gpu.device import HostGPU
from ..gpu.engines import Engine
from ..kernels.compiler import CompiledKernel
from ..kernels.launch import LaunchConfig
from ..kernels.functional import REGISTRY, FunctionalRegistry
from ..obs import metrics as _obs_metrics
from ..obs import tracer as _obs_trace
from ..sched.backlog import EngineBacklog, engine_role
from ..sched.config import (
    DEFAULT_HOST_CALL_MS,
    DEFAULT_PROFILING_OVERHEAD_MS,
    SchedulerConfig,
)
from ..sched.pipeline import SchedulerPipeline
from ..sched.placement import PlacementStrategy, RoundRobinPlacement
from ..sched.policies import SchedulingPolicy
from ..sim import Environment, Event
from .coalescing import KernelCoalescer
from .handles import HandleTable
from .jobs import Job, JobKind, JobQueue
from .profiler import Profiler

#: Default host-side time to service a malloc/free request — kept as a
#: module name for backward compatibility; the live value is
#: ``SchedulerConfig.host_call_ms``.
HOST_CALL_MS = DEFAULT_HOST_CALL_MS

#: Default host-side profiling cost charged per kernel *job*; the live
#: value is ``SchedulerConfig.profiling_overhead_ms``.
PROFILING_OVERHEAD_MS = DEFAULT_PROFILING_OVERHEAD_MS


class ServiceMode(enum.Enum):
    SERIAL = "serial"
    PIPELINED = "pipelined"


@dataclass
class DispatchStats:
    """Counters the experiments and tests read."""

    dispatched: Dict[JobKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in JobKind}
    )
    completed: int = 0
    busy_waits: int = 0

    def total_dispatched(self) -> int:
        return sum(self.dispatched.values())


class JobDispatcher:
    """Pulls jobs from the queue and runs them on the host GPU."""

    def __init__(
        self,
        env: Environment,
        gpu: HostGPU,
        queue: JobQueue,
        handles: HandleTable,
        policy: SchedulingPolicy,
        mode: ServiceMode = ServiceMode.PIPELINED,
        coalescer: Optional[KernelCoalescer] = None,
        registry: FunctionalRegistry = REGISTRY,
        profiler: Optional[Profiler] = None,
        extra_gpus: Optional[List[HostGPU]] = None,
        placement: Optional[PlacementStrategy] = None,
        config: Optional[SchedulerConfig] = None,
        backend: Optional[ExecutionBackend] = None,
    ):
        self.env = env
        self.gpu = gpu
        #: All host GPUs this dispatcher multiplexes ("SigmaVP multiplexes
        #: the host GPUs", paper Section 2).  VPs get a device affinity
        #: via the placement strategy on their first request; their
        #: buffers and kernels stay on that device.
        self.gpus: List[HostGPU] = [gpu, *(extra_gpus or [])]
        self.queue = queue
        self.handles = handles
        self.policy = policy
        self.mode = mode
        self.coalescer = coalescer
        self.registry = registry
        #: The execution backend every functional effect routes through
        #: (launches, H2D/D2H payload movement).
        self.backend = backend if backend is not None else default_backend(registry)
        self.profiler = profiler
        self.config = config if config is not None else SchedulerConfig()
        self.backlog = EngineBacklog(debug=self.config.debug_enabled)
        #: The four-stage dispatch pipeline this executor consults
        #: (admission → hold/merge → select → place).
        self.pipeline = SchedulerPipeline(
            policy,
            placement if placement is not None else RoundRobinPlacement(),
            self.backlog,
            n_devices=len(self.gpus),
            coalescer=coalescer,
            engine_has_room=self._engine_has_room,
            expected_ms=self._expected_ms,
        )
        self.stats = DispatchStats()
        #: Every job this dispatcher completed, in completion order
        #: (members of merged jobs included) — the accounting source.
        self.completed_log: List[Job] = []
        self._inflight: Dict[str, Job] = {}
        if coalescer is not None:
            # The coalescer must see in-flight jobs: a merged kernel may
            # not sweep a member VP's buffers while that VP's copy is
            # still on an engine (its triple then has no queued H2D, so
            # queue-level ordering alone cannot protect it).
            coalescer.inflight_of = self.inflight_for
        self._wake: Event = env.event()
        self._process = env.process(self._run(), label="dispatcher:host/run")

    def __repr__(self) -> str:
        return (
            f"<JobDispatcher mode={self.mode.value} policy={self.policy.name} "
            f"inflight={len(self._inflight)}>"
        )

    # -- engine mapping ----------------------------------------------------

    def device_index_for(self, vp: str) -> int:
        """The device a VP is bound to (placement strategy, first use)."""
        return self.pipeline.placer.device_for(vp, self.backlog)

    def inflight_for(self, vp: str) -> Optional[Job]:
        """The job a VP currently has executing on an engine, if any."""
        return self._inflight.get(vp)

    def _gpu_of(self, job: Job) -> HostGPU:
        return self.gpus[job.device]

    def _engine_for(self, job: Job) -> Optional[Engine]:
        gpu = self._gpu_of(job)
        if job.kind is JobKind.COPY_H2D:
            return gpu.h2d_engine
        if job.kind is JobKind.COPY_D2H:
            return gpu.d2h_engine
        if job.kind is JobKind.KERNEL:
            return gpu.compute_engine
        return None

    def _engine_has_room(self, job: Job) -> bool:
        """Keep engine queues shallow so the policy re-decides per slot."""
        engine = self._engine_for(job)
        if engine is None:
            return True
        return engine.queued == 0

    # -- main loop -------------------------------------------------------------

    def _run(self):
        while True:
            merged = self.pipeline.hold.merge(self.queue)
            if merged:
                self._prewarm_merged(merged)

            decision = self.pipeline.decide(
                self.queue, self._inflight, self.env.now
            )
            job = decision.job
            if job is None:
                yield self._idle_event(decision.hold_deadline)
                continue

            self.queue.remove(job)
            expected = self._expected_ms(job)
            self.backlog.add(job, expected)
            self._inflight[job.vp] = job
            self.stats.dispatched[job.kind] += 1
            registry = _obs_metrics.REGISTRY
            if registry is not None:
                registry.counter(f"dispatch.kind.{job.kind.name}").inc()
                registry.histogram(
                    "jobqueue.depth_at_dispatch", _obs_metrics.DEPTH_BUCKETS
                ).observe(len(self.queue))
            # Labeled by bound device so sharded environments keep a
            # job's execution events on its device's domain heap.
            execution = self.env.process(
                self._execute(job, expected),
                label=f"gpu:{job.device}/execute({job.vp}#{job.seq})",
            )
            if self.mode is ServiceMode.SERIAL:
                yield execution

    def _prewarm_merged(self, merged: List[Job]) -> None:
        """Batch-compute timing profiles for freshly merged kernel jobs.

        Every coalescing pass mints brand-new merged :class:`KernelIR`
        objects, so their profiles always miss the id-keyed memo and
        would otherwise be computed one scalar walk at a time as each
        job reaches ``_expected_ms``/``_execute``.  With vectorized
        timing enabled we instead price the whole coalescing window's
        misses as one array program.  Timing results are bit-identical
        either way (the vectorized engine is digest-proven against the
        scalar reference); this only changes *when* profiles enter the
        cache.
        """
        if not _vectimes.vectimes_enabled():
            return
        pending: Dict[int, List[Tuple[CompiledKernel, LaunchConfig]]] = {}
        for job in merged:
            if not job.is_kernel or job.kernel is None or job.launch is None:
                continue
            gpu = self._gpu_of(job)
            compiled = gpu.compiler.compile(job.kernel, gpu.arch)
            if gpu.timing.profile_cached(compiled, job.launch):
                continue
            pending.setdefault(job.device, []).append((compiled, job.launch))
        for device, items in pending.items():
            # A singleton miss gains nothing from array form — leave it
            # to the scalar path it would hit anyway.
            if len(items) >= 2:
                self.gpus[device].timing.execute_batch(items)

    def _idle_event(self, hold_deadline: Optional[float]) -> Event:
        """Event that fires when dispatching might become possible again."""
        self.stats.busy_waits += 1
        events = [self.queue.arrival_event(), self._wake]
        if hold_deadline is not None and hold_deadline > self.env.now:
            events.append(self.env.timeout(hold_deadline - self.env.now))
        return self.env.any_of(events)

    def _signal(self) -> None:
        wake, self._wake = self._wake, self.env.event()
        wake.succeed()

    # -- job execution -------------------------------------------------------------

    def _expected_ms(self, job: Job) -> float:
        gpu = self._gpu_of(job)
        if job.kind is JobKind.EVENT:
            return 0.0
        if job.kind in (JobKind.MALLOC, JobKind.FREE):
            return self.config.host_call_ms
        if job.is_copy:
            return gpu.arch.copy_time_ms(job.nbytes)
        assert job.is_kernel
        compiled = gpu.compiler.compile(job.kernel, gpu.arch)
        return self.config.profiling_overhead_ms + gpu.timing.kernel_time_ms(
            compiled, job.launch
        )

    def _execute(self, job: Job, expected_ms: float):
        job.dispatched_at_ms = self.env.now
        gpu = self._gpu_of(job)
        try:
            if job.kind is JobKind.EVENT:
                # A record point: deliver the stream timestamp.
                yield self.env.timeout(0.0)
                if job.sink is not None:
                    job.sink(self.env.now)
            elif job.kind is JobKind.MALLOC:
                yield self.env.timeout(self.config.host_call_ms)
                buffer = gpu.malloc(job.size, owner=job.vp)
                self.handles.bind(job.handle, buffer)
            elif job.kind is JobKind.FREE:
                yield self.env.timeout(self.config.host_call_ms)
                gpu.free(self.handles.release(job.handle))
            elif job.kind is JobKind.COPY_H2D:
                yield self._run_on_engine(
                    gpu.h2d_engine, job, expected_ms, self._apply_h2d(job)
                )
                gpu.bytes_copied_h2d += job.nbytes
            elif job.kind is JobKind.COPY_D2H:
                yield self._run_on_engine(
                    gpu.d2h_engine, job, expected_ms, self._apply_d2h(job)
                )
                gpu.bytes_copied_d2h += job.nbytes
            elif job.kind is JobKind.KERNEL:
                compiled = gpu.compiler.compile(job.kernel, gpu.arch)
                profile = gpu.timing.execute(compiled, job.launch)
                if self.profiler is not None:
                    self.profiler.record(job, profile)
                yield self._run_on_engine(
                    gpu.compute_engine, job, expected_ms, self._apply_kernel(job)
                )
            else:  # pragma: no cover - enum is exhaustive
                raise RuntimeError(f"unhandled job kind {job.kind}")
        except BaseException as exc:
            # Surface the failure to the requesting VP (e.g. device OOM),
            # mirroring a CUDA error return.
            job.completion.fail(exc)
            raise
        finally:
            self.backlog.retire(job, expected_ms)
            self._inflight.pop(job.vp, None)
            self._signal()
        self._complete(job)

    def _run_on_engine(self, engine: Engine, job: Job, duration_ms: float, apply):
        metadata: dict = {"job_id": job.job_id}
        if _obs_trace.TRACER is not None:
            # Full identity only when a tracer will read it: the span
            # must name its vp / stream / kernel / job, but the disabled
            # path should not pay for packing the extra keys.
            metadata.update(
                vp=job.vp,
                seq=job.seq,
                kind=job.kind.name,
                role=engine_role(job).partition("@")[0],
                device=job.device,
                stream=f"{job.vp}/stream0",
            )
            if job.kernel is not None:
                metadata["kernel"] = job.kernel.name
            if job.is_copy:
                metadata["nbytes"] = job.nbytes
            if job.members:
                metadata["members"] = len(job.members)
                metadata["member_vps"] = ",".join(
                    sorted({m.vp for m in job.members})
                )
        op = engine.submit(
            label=f"{job.kind.name}:{job.vp}#{job.seq}",
            duration_ms=duration_ms,
            on_complete=apply,
            **metadata,
        )
        return op.done

    def _complete(self, job: Job) -> None:
        job.completed_at_ms = self.env.now
        self.stats.completed += 1
        self.completed_log.append(job)
        registry = _obs_metrics.REGISTRY
        if registry is not None:
            # Live counters the time-series sampler can watch mid-run;
            # the authoritative per-VP breakdown is derived from the
            # completed log by ``repro.obs.account`` at collection time.
            registry.counter("account.completed").inc()
            if job.members:
                registry.counter(
                    "account.coalesced_members"
                ).inc(len(job.members))
        for member in job.members:
            # Recursive: members may themselves be merged jobs.
            self._complete(member)
        job.completion.succeed(job)

    # -- functional effects -----------------------------------------------------------

    def _effective_members(self, job: Job) -> List[Job]:
        return job.members if job.members else [job]

    def _apply_h2d(self, job: Job):
        def apply() -> None:
            for member in self._effective_members(job):
                if member.host_data is not None and member.handle is not None:
                    buffer = self.handles.buffer(member.handle)
                    # Zero-copy backends hand back a read-only view
                    # instead of a defensive copy: apps never mutate a
                    # submitted array in place (kernels rebind payloads,
                    # they do not write through), and the cleared
                    # writeable flag turns any future violation into a
                    # loud ValueError instead of a silent wrong result.
                    buffer.payload = self.backend.h2d(member.host_data)

        return apply

    def _apply_d2h(self, job: Job):
        def apply() -> None:
            for member in self._effective_members(job):
                if member.sink is not None and member.handle is not None:
                    member.sink(
                        self.backend.d2h(self.handles.buffer(member.handle).payload)
                    )

        return apply

    def _apply_kernel(self, job: Job):
        def apply() -> None:
            for member in self._effective_members(job):
                if member.kernel is None or member.out_handle is None:
                    continue
                inputs = [
                    self.handles.buffer(h).payload for h in member.arg_handles
                ]
                result = self.backend.launch(
                    member.kernel.signature, inputs, member.params
                )
                if result is None:
                    continue
                self.handles.buffer(member.out_handle).payload = result

        return apply
