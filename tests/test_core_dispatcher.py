"""Tests for the Job Dispatcher: service modes, ordering, functional effects."""

import numpy as np
import pytest

from repro.core.coalescing import KernelCoalescer
from repro.core.dispatcher import (
    HOST_CALL_MS,
    JobDispatcher,
    PROFILING_OVERHEAD_MS,
    ServiceMode,
)
from repro.core.handles import HandleTable
from repro.core.jobs import Job, JobKind, JobQueue
from repro.core.profiler import Profiler
from repro.gpu import HostGPU, QUADRO_4000
from repro.gpu.memory import OutOfDeviceMemory
from repro.kernels import LaunchConfig, MemoryFootprint, uniform_kernel
from repro.kernels.functional import FunctionalRegistry
from repro.sched import FIFOPolicy, InterleavingPolicy
from repro.sim import Environment


def _kernel(signature="disp-add"):
    return uniform_kernel(
        signature,
        {"fp32": 2, "load": 2, "store": 1},
        MemoryFootprint(bytes_in=4096, bytes_out=4096, working_set_bytes=8192),
        signature=signature,
    )


def _registry():
    registry = FunctionalRegistry()
    registry.register("disp-add", lambda a, b: a + b)
    return registry


def _setup(mode=ServiceMode.PIPELINED, policy=None, coalescer=False, registry=None):
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    queue = JobQueue(env)
    handles = HandleTable()
    profiler = Profiler()
    coalescer_obj = (
        KernelCoalescer(env, gpu, handles, target_batch=2) if coalescer else None
    )
    dispatcher = JobDispatcher(
        env,
        gpu,
        queue,
        handles,
        policy=policy or FIFOPolicy(),
        mode=mode,
        coalescer=coalescer_obj,
        registry=registry or _registry(),
        profiler=profiler,
    )
    return env, gpu, queue, handles, dispatcher, profiler


def _malloc_job(env, handles, vp, seq, size=4096):
    handle = handles.new_handle(vp)
    return handle, Job(vp=vp, seq=seq, kind=JobKind.MALLOC,
                       completion=env.event(), size=size, handle=handle)


def test_malloc_binds_handle():
    env, gpu, queue, handles, dispatcher, _ = _setup()
    handle, job = _malloc_job(env, handles, "vp0", 0)
    queue.put(job)
    env.run(job.completion)
    assert handle in handles
    assert handles.buffer(handle).size == 4096


def test_free_releases_buffer():
    env, gpu, queue, handles, dispatcher, _ = _setup()
    handle, malloc = _malloc_job(env, handles, "vp0", 0)
    free = Job(vp="vp0", seq=1, kind=JobKind.FREE,
               completion=env.event(), handle=handle)
    queue.put(malloc)
    queue.put(free)
    env.run(free.completion)
    assert handle not in handles
    assert gpu.memory.used_bytes == 0


def test_h2d_sets_payload_and_counts():
    env, gpu, queue, handles, dispatcher, _ = _setup()
    handle, malloc = _malloc_job(env, handles, "vp0", 0)
    data = np.arange(512, dtype=np.float64)
    copy = Job(vp="vp0", seq=1, kind=JobKind.COPY_H2D, completion=env.event(),
               handle=handle, nbytes=int(data.nbytes), host_data=data)
    queue.put(malloc)
    queue.put(copy)
    env.run(copy.completion)
    np.testing.assert_array_equal(handles.buffer(handle).payload, data)
    assert gpu.bytes_copied_h2d == data.nbytes


def test_kernel_applies_functional_and_profiles():
    env, gpu, queue, handles, dispatcher, profiler = _setup()
    h_a, m_a = _malloc_job(env, handles, "vp0", 0)
    h_b, m_b = _malloc_job(env, handles, "vp0", 1)
    h_out, m_out = _malloc_job(env, handles, "vp0", 2)
    a = np.full(512, 2.0)
    b = np.full(512, 3.0)
    c_a = Job(vp="vp0", seq=3, kind=JobKind.COPY_H2D, completion=env.event(),
              handle=h_a, nbytes=4096, host_data=a)
    c_b = Job(vp="vp0", seq=4, kind=JobKind.COPY_H2D, completion=env.event(),
              handle=h_b, nbytes=4096, host_data=b)
    launch = LaunchConfig(grid_size=2, block_size=256, elements=512)
    kernel = Job(vp="vp0", seq=5, kind=JobKind.KERNEL, completion=env.event(),
                 kernel=_kernel(), launch=launch,
                 arg_handles=(h_a, h_b), out_handle=h_out)
    for job in (m_a, m_b, m_out, c_a, c_b, kernel):
        queue.put(job)
    env.run(kernel.completion)
    np.testing.assert_array_equal(handles.buffer(h_out).payload, np.full(512, 5.0))
    assert len(profiler) == 1
    assert profiler.records[0].kernel_name == "disp-add"


def test_d2h_delivers_to_sink():
    env, gpu, queue, handles, dispatcher, _ = _setup()
    handle, malloc = _malloc_job(env, handles, "vp0", 0)
    data = np.ones(512)
    c_in = Job(vp="vp0", seq=1, kind=JobKind.COPY_H2D, completion=env.event(),
               handle=handle, nbytes=4096, host_data=data)
    received = []
    c_out = Job(vp="vp0", seq=2, kind=JobKind.COPY_D2H, completion=env.event(),
                handle=handle, nbytes=4096, sink=received.append)
    for job in (malloc, c_in, c_out):
        queue.put(job)
    env.run(c_out.completion)
    np.testing.assert_array_equal(received[0], data)
    assert gpu.bytes_copied_d2h == 4096


def test_per_vp_order_is_preserved():
    """A VP's jobs complete in sequence order even under reordering policy."""
    env, gpu, queue, handles, dispatcher, _ = _setup(policy=InterleavingPolicy())
    completions = []
    jobs = []
    for seq in range(5):
        job = Job(vp="vp0", seq=seq, kind=JobKind.COPY_H2D,
                  completion=env.event(), nbytes=1024)
        job.completion.callbacks.append(
            lambda ev, s=seq: completions.append(s)
        )
        jobs.append(job)
        queue.put(job)
    env.run(jobs[-1].completion)
    assert completions == [0, 1, 2, 3, 4]


def test_cross_vp_jobs_overlap_in_pipelined_mode():
    env, gpu, queue, handles, dispatcher, _ = _setup(mode=ServiceMode.PIPELINED)
    # One long h2d copy and one kernel from different VPs.
    copy = Job(vp="a", seq=0, kind=JobKind.COPY_H2D, completion=env.event(),
               nbytes=8_000_000)  # 2 ms on the h2d engine
    launch = LaunchConfig(grid_size=8, block_size=256, elements=2048)
    kernel = Job(vp="b", seq=0, kind=JobKind.KERNEL, completion=env.event(),
                 kernel=_kernel(), launch=launch)
    queue.put(copy)
    queue.put(kernel)
    env.run(env.all_of([copy.completion, kernel.completion]))
    copy_span = gpu.h2d_engine.timeline[0]
    kernel_span = gpu.compute_engine.timeline[0]
    assert kernel_span.start_ms < copy_span.end_ms  # overlapped


def test_serial_mode_never_overlaps():
    env, gpu, queue, handles, dispatcher, _ = _setup(mode=ServiceMode.SERIAL)
    copy = Job(vp="a", seq=0, kind=JobKind.COPY_H2D, completion=env.event(),
               nbytes=8_000_000)
    launch = LaunchConfig(grid_size=8, block_size=256, elements=2048)
    kernel = Job(vp="b", seq=0, kind=JobKind.KERNEL, completion=env.event(),
                 kernel=_kernel(), launch=launch)
    queue.put(copy)
    queue.put(kernel)
    env.run(env.all_of([copy.completion, kernel.completion]))
    copy_span = gpu.h2d_engine.timeline[0]
    kernel_span = gpu.compute_engine.timeline[0]
    assert kernel_span.start_ms >= copy_span.end_ms  # strictly serial


def test_depends_on_gates_dispatch():
    env, gpu, queue, handles, dispatcher, _ = _setup()
    gate_job = Job(vp="a", seq=0, kind=JobKind.COPY_H2D,
                   completion=env.event(), nbytes=4_000_000)  # 1 ms
    launch = LaunchConfig(grid_size=2, block_size=256, elements=512)
    dependent = Job(vp="b", seq=0, kind=JobKind.KERNEL, completion=env.event(),
                    kernel=_kernel(), launch=launch,
                    depends_on=[gate_job.completion])
    queue.put(dependent)
    queue.put(gate_job)
    env.run(dependent.completion)
    assert gpu.compute_engine.timeline[0].start_ms >= gpu.h2d_engine.timeline[0].end_ms


def test_kernel_expected_time_includes_profiling():
    env, gpu, queue, handles, dispatcher, _ = _setup()
    launch = LaunchConfig(grid_size=2, block_size=256, elements=512)
    job = Job(vp="a", seq=0, kind=JobKind.KERNEL, completion=env.event(),
              kernel=_kernel(), launch=launch)
    compiled = gpu.compiler.compile(job.kernel, gpu.arch)
    expected = dispatcher._expected_ms(job)
    assert expected == pytest.approx(
        PROFILING_OVERHEAD_MS + gpu.timing.kernel_time_ms(compiled, launch)
    )


def test_malloc_failure_fails_completion():
    env, gpu, queue, handles, dispatcher, _ = _setup()
    handle = handles.new_handle("vp0")
    job = Job(vp="vp0", seq=0, kind=JobKind.MALLOC, completion=env.event(),
              size=10**12, handle=handle)  # larger than device memory
    queue.put(job)

    def waiter():
        try:
            yield job.completion
        except OutOfDeviceMemory:
            return "oom"
        return "ok"

    process = env.process(waiter())
    with pytest.raises(OutOfDeviceMemory):
        env.run()
    assert process.value == "oom"


def test_coalescing_dispatch_merges_concurrent_kernels():
    env, gpu, queue, handles, dispatcher, profiler = _setup(coalescer=True)
    launch = LaunchConfig(grid_size=2, block_size=256, elements=512)
    jobs = []
    for vp in ("a", "b"):
        job = Job(vp=vp, seq=0, kind=JobKind.KERNEL, completion=env.event(),
                  kernel=_kernel(), launch=launch)
        jobs.append(job)
        queue.put(job)
    env.run(env.all_of([j.completion for j in jobs]))
    # One merged launch went to the GPU, not two.
    assert len(gpu.compute_engine.timeline) == 1
    assert dispatcher.coalescer.stats.merges == 1
    record = profiler.records[0]
    assert record.coalesced_members == 2


def test_dispatch_stats():
    env, gpu, queue, handles, dispatcher, _ = _setup()
    handle, malloc = _malloc_job(env, handles, "vp0", 0)
    copy = Job(vp="vp0", seq=1, kind=JobKind.COPY_H2D, completion=env.event(),
               handle=handle, nbytes=1024)
    queue.put(malloc)
    queue.put(copy)
    env.run(copy.completion)
    assert dispatcher.stats.dispatched[JobKind.MALLOC] == 1
    assert dispatcher.stats.dispatched[JobKind.COPY_H2D] == 1
    assert dispatcher.stats.completed == 2
