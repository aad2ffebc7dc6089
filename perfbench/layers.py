"""Per-layer metrics of a traced run: how each is built.

``BENCHMARK.json`` lists their names and units; this module computes them.

Span self times come from :mod:`spans`; counts the program already
keeps come from a ``repro.obs`` metrics registry that is active only
during traced passes.  Batch figures are per pass (a pass runs the
workload's whole job list once); ratios are ratios.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping

from stats import self_time_by_name

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_values(snapshot: Mapping[str, Mapping[str, Any]]) -> Dict[str, float]:
    """Counter name -> value from a ``MetricsRegistry.snapshot()``."""
    return {
        name: float(body["value"])
        for name, body in snapshot.items()
        if body.get("type") == "counter"
    }


def layer_metrics(
    spans: List[Any],
    calls: Mapping[str, int],
    nbytes: Mapping[str, int],
    counters: Mapping[str, float],
    passes: int,
) -> Dict[str, float]:
    """Per-pass layer figures from one traced window of ``passes`` passes."""
    by_name = self_time_by_name(spans)
    inclusive: Dict[str, float] = {}
    for _sid, name, start, end, parent, _req in spans:
        # Inclusive time counts outermost spans of a name only.
        if name == "sim.run" and parent is None:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)

    def span_calls(name: str) -> float:
        return by_name.get(name, (0, 0.0))[0] / passes

    def span_self(name: str) -> float:
        return by_name.get(name, (0, 0.0))[1] / passes

    def count(name: str) -> float:
        return counters.get(name, 0.0) / passes

    c = counters
    events = c.get("sim.events_processed", 0.0)
    merges = c.get("coalesce.merges", 0.0)
    passes_scanned = by_name.get("core.coalesce_pass", (0, 0.0))[0]
    return {
        "workloads.build_inputs.calls": span_calls("workloads.build_inputs"),
        "workloads.build_inputs.self_s": span_self("workloads.build_inputs"),
        "workloads.input_mb": nbytes.get("workloads.input", 0) / 1e6 / passes,
        "sim.events": events / passes,
        "sim.run.self_s": span_self("sim.run"),
        "sim.us_per_event": 1e6 * _ratio(inclusive.get("sim.run", 0.0), events),
        "sched.decide.calls": span_calls("sched.decide"),
        "sched.decide.self_s": span_self("sched.decide"),
        "sched.rejects_per_decision": _ratio(
            c.get("sched.admission.rejected", 0.0), c.get("dispatch.decisions", 0.0)
        ),
        "core.coalesce_pass.calls": span_calls("core.coalesce_pass"),
        "core.coalesce_pass.self_s": span_self("core.coalesce_pass"),
        "core.coalesce.merge_ratio": _ratio(merges, passes_scanned),
        "core.coalesce.kernels_per_merge": _ratio(
            c.get("coalesce.kernels_coalesced", 0.0), merges
        ),
        "core.dispatch.jobs": sum(
            v for k, v in c.items() if k.startswith("dispatch.kind.")
        ) / passes,
        "core.ipc.messages": count("ipc.messages"),
        "core.ipc.mb": count("ipc.bytes") / 1e6,
        "core.estimation.calls": span_calls("core.estimation"),
        "core.estimation.self_s": span_self("core.estimation"),
        "gpu.execute.calls": span_calls("gpu.execute"),
        "gpu.execute.self_s": span_self("gpu.execute"),
        "gpu.profile_cache.hit_ratio": _ratio(
            c.get("cache.profile.hits", 0.0),
            c.get("cache.profile.hits", 0.0) + c.get("cache.profile.misses", 0.0),
        ),
        "kernels.compile.calls": span_calls("kernels.compile"),
        "kernels.compile.self_s": span_self("kernels.compile"),
        "kernels.compile_cache.hit_ratio": _ratio(
            c.get("cache.compile.hits", 0.0),
            c.get("cache.compile.hits", 0.0) + c.get("cache.compile.misses", 0.0),
        ),
        "vp.emulation.self_s": span_self("vp.emulation"),
        "vp.runtime.calls": calls.get("vp.runtime", 0) / passes,
        "backend.launch.calls": count("exec.backend_launches"),
        "backend.launch_batched.calls": count("exec.backend_batched_launches"),
        "backend.batched_members": count("exec.backend_batched_members"),
        "backend.fallback_launches": count("exec.fallback_launches"),
        "backend.launch.self_s": span_self("backend.launch"),
        "backend.h2d_mb": nbytes.get("backend.h2d", 0) / 1e6 / passes,
        "backend.d2h_mb": nbytes.get("backend.d2h", 0) / 1e6 / passes,
        "cache.disk.job_hit_ratio": _ratio(
            c.get("cache.disk.job_hits", 0.0),
            c.get("cache.disk.job_hits", 0.0) + c.get("cache.disk.job_misses", 0.0),
        ),
        "cache.disk.get.self_s": span_self("cache.disk.get"),
        "cache.disk.put.self_s": span_self("cache.disk.put"),
    }


def shares(spans: List[Any], window_s: float) -> Dict[str, float]:
    """Each span name's self time as a share of the traced window."""
    return {
        name: total / window_s
        for name, (_calls, total) in sorted(self_time_by_name(spans).items())
    }


def complete(metrics: Dict[str, float], names: Iterable[str]) -> Dict[str, float]:
    """Every metric of ``names``, zero where this workload has none."""
    return {name: float(metrics.get(name, 0.0)) for name in names}
