"""Tests for cudaEvent-style stream timing markers."""

import numpy as np
import pytest

from repro.core.handles import HandleTable
from repro.core.ipc import IPCManager, SHARED_MEMORY
from repro.core.jobs import JobQueue
from repro.core.dispatcher import JobDispatcher, ServiceMode
from repro.core.profiler import Profiler
from repro.gpu import HostGPU, QUADRO_4000
from repro.kernels import LaunchConfig, MemoryFootprint, uniform_kernel
from repro.kernels.functional import FunctionalRegistry
from repro.sched import FIFOPolicy
from repro.sim import Environment
from repro.vp import (
    CudaRuntime,
    EmulationBackend,
    HOST_XEON,
    NativeGPUBackend,
    SigmaVPBackend,
    VirtualPlatform,
)
from repro.vp.cuda_runtime import GpuEvent, event_elapsed_ms


def _kernel():
    return uniform_kernel(
        "evk",
        {"fp32": 50, "load": 1, "store": 1},
        MemoryFootprint(bytes_in=8192, bytes_out=8192, working_set_bytes=8192),
    )


def _timed_app(api):
    """Measure a kernel with events, the way CUDA apps self-profile."""

    def app():
        handle = yield from api.malloc(8192)
        yield from api.memcpy_h2d(handle, np.zeros(2048, dtype=np.float32),
                                  sync=True)
        start = yield from api.event_create()
        yield from api.event_record(start)
        launch = LaunchConfig(grid_size=8, block_size=256, elements=2048)
        yield from api.launch_kernel(_kernel(), launch, args=[handle],
                                     out=handle)
        end = yield from api.event_create()
        yield from api.event_record(end)
        yield from api.event_synchronize(end)
        return event_elapsed_ms(start, end)

    return app


def test_gpu_event_lifecycle():
    event = GpuEvent()
    assert not event.recorded
    with pytest.raises(RuntimeError):
        _ = event.timestamp_ms
    event._record(5.0)
    assert event.recorded
    assert event.timestamp_ms == 5.0


def test_elapsed_between_events():
    a, b = GpuEvent(), GpuEvent()
    a._record(2.0)
    b._record(7.5)
    assert event_elapsed_ms(a, b) == pytest.approx(5.5)


def test_events_measure_kernel_on_sigma_vp():
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    queue = JobQueue(env)
    handles = HandleTable()
    ipc = IPCManager(env, queue, transport=SHARED_MEMORY)
    JobDispatcher(env, gpu, queue, handles, policy=FIFOPolicy(),
                  mode=ServiceMode.PIPELINED, registry=FunctionalRegistry(),
                  profiler=Profiler())
    vp = VirtualPlatform(env, "vp0")
    api = CudaRuntime(SigmaVPBackend(env, vp, ipc, handles))
    elapsed = env.run(vp.run_app(_timed_app(api)))
    # The elapsed time brackets the kernel: positive and roughly the
    # kernel duration plus the per-launch overheads.
    kernel_ms = gpu.timing.kernel_time_ms(
        gpu.compiler.compile(_kernel(), gpu.arch),
        LaunchConfig(grid_size=8, block_size=256, elements=2048),
    )
    assert elapsed > kernel_ms * 0.9
    assert elapsed < kernel_ms + 5.0


def test_events_order_respects_stream(capsys=None):
    """The end event's timestamp is at/after the kernel's completion,
    the start event's at/before the kernel's start."""
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    queue = JobQueue(env)
    handles = HandleTable()
    ipc = IPCManager(env, queue, transport=SHARED_MEMORY)
    JobDispatcher(env, gpu, queue, handles, policy=FIFOPolicy(),
                  registry=FunctionalRegistry(), profiler=Profiler())
    vp = VirtualPlatform(env, "vp0")
    api = CudaRuntime(SigmaVPBackend(env, vp, ipc, handles))

    events = {}

    def app():
        start = yield from api.event_create()
        end = yield from api.event_create()
        yield from api.event_record(start)
        launch = LaunchConfig(grid_size=8, block_size=256, elements=2048)
        yield from api.launch_kernel(_kernel(), launch)
        yield from api.event_record(end)
        yield from api.event_synchronize(end)
        events["start"] = start.timestamp_ms
        events["end"] = end.timestamp_ms

    env.run(vp.run_app(app))
    span = gpu.compute_engine.timeline[0]
    assert events["start"] <= span.start_ms
    assert events["end"] >= span.end_ms


def test_events_on_native_backend():
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    host = VirtualPlatform(env, "host", cpu=HOST_XEON)
    api = CudaRuntime(NativeGPUBackend(env, gpu, host,
                                       registry=FunctionalRegistry()))
    elapsed = env.run(host.run_app(_timed_app(api)))
    assert elapsed > 0


def test_events_on_emulation_backend():
    env = Environment()
    platform = VirtualPlatform(env, "emu", cpu=HOST_XEON)
    api = CudaRuntime(EmulationBackend(env, platform,
                                       registry=FunctionalRegistry()))
    elapsed = env.run(platform.run_app(_timed_app(api)))
    # Emulation is synchronous: the record brackets the interpret time.
    assert elapsed > 0


def test_event_synchronize_without_record_is_noop_when_recorded():
    env = Environment()
    platform = VirtualPlatform(env, "emu", cpu=HOST_XEON)
    api = CudaRuntime(EmulationBackend(env, platform,
                                       registry=FunctionalRegistry()))

    def app():
        event = yield from api.event_create()
        yield from api.event_record(event)
        yield from api.event_synchronize(event)
        return event.recorded

    assert env.run(platform.run_app(app)) is True
