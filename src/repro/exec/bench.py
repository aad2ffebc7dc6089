"""The ``repro bench`` regression harness.

Runs a pinned suite of scenario-farm jobs three ways —

* **serial-cold** — one process, all memo caches disabled.  This is the
  seed execution path (every launch re-times, every scan re-walks the
  queue) and the baseline every later PR is measured against;
* **serial-warm** — one process, caches enabled: what the memoization
  layer alone buys;
* **parallel-warm** — the :class:`~repro.exec.ScenarioFarm` with
  ``workers`` processes: memoization plus scenario-level parallelism —

asserts that all three modes simulate **bit-identical results** (the
caches and the farm are pure plumbing; simulated time must not move),
and appends the wall-clock numbers to a ``BENCH_*.json`` file so the
performance trajectory of the stack is tracked in-repo alongside the
correctness suite.

Two observability additions ride on the same harness:

* ``trace=True`` adds a fourth mode — parallel-warm with per-job
  capture on — whose digest must *still* be bit-identical (tracing must
  never perturb simulation), and whose merged multi-worker trace and
  metrics come back under ``report["artifacts"]``;
* an **overhead guard**: the tracing-*disabled* hot paths carry the
  instrumentation's ``is not None`` guards, so the serial-warm cost is
  compared against the chronologically newest committed
  ``BENCH_*.json`` (auto-resolved via
  :func:`repro.exec.trajectory.newest_bench_path`, excluding the file
  this run is about to write) and the bench fails if it regressed by
  more than :data:`DEFAULT_OVERHEAD_LIMIT` (suite and worker-count
  must match for the comparison to be meaningful; otherwise it is
  skipped with a note).

``cold=True`` (``repro bench --cold``) appends the persistent
**disk-cache** cold-start proof (memory-cold processes served from a
shared on-disk artifact store, including corruption and
whole-job-result modes).  See :func:`_disk_section`.

Every bench also records a **timing** section
(:func:`_timing_section`): the suite warm-serial with the vectorized
batched timing engine (:mod:`repro.gpu.vectimes`) versus the scalar
reference walk, digest-equal, with the ``exec.vectimes_*`` counters
proving the array engine actually served launches.

And a **backend** section (:func:`_backend_section`): the functional
suite once per *available* registered execution backend
(``repro backends``), digest-equal across all of them — backends are
interchangeable run mechanics — with the ``exec.backend_*`` counters
proving each backend actually served the launches, and unavailable
backends (e.g. ``cupy`` without the package) recorded as skipped, never
as errors.
"""

from __future__ import annotations

import gc
import json
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import cache as _cache
from ..caching import cache_scope, clear_all_caches
from ..obs import farm_merged_metrics, farm_trace_sources, to_chrome_trace
from ..obs.export import git_commit as _git_commit
from .farm import (
    FarmJob,
    FarmResult,
    ScenarioFarm,
    canonical_json,
    results_digest,
)

#: The pinned regression suite.  Iteration-heavy, many-VP, small-data
#: scenarios: the jobs are dominated by the scheduling/timing hot paths
#: the memo caches serve, not by numpy input generation, so they track
#: exactly the costs this harness exists to watch.
FULL_SUITE: List[FarmJob] = [
    FarmJob(fn="repro.exec.jobs:fig10a_point", label="fig10a:b16",
            kwargs={"batch": 16, "n_programs": 64}),
    FarmJob(fn="repro.exec.jobs:fig10a_point", label="fig10a:b64",
            kwargs={"batch": 64, "n_programs": 64}),
    FarmJob(fn="repro.exec.jobs:scenario_summary", label="mergeSort8",
            kwargs={"app": "mergeSort", "n_vps": 8}),
    FarmJob(fn="repro.exec.jobs:fig11_point", label="fig11:BlackScholes",
            kwargs={"app": "BlackScholes", "n_vps": 8}),
    FarmJob(fn="repro.exec.jobs:scenario_summary", label="matrixMul8",
            kwargs={"app": "matrixMul", "n_vps": 8}),
    FarmJob(fn="repro.exec.jobs:scenario_summary", label="vectorAdd8",
            kwargs={"app": "vectorAdd", "n_vps": 8,
                    "scale_elements": 8192, "scale_iterations": 4}),
    FarmJob(fn="repro.exec.jobs:scenario_summary", label="vectorAdd8:nocoal",
            kwargs={"app": "vectorAdd", "n_vps": 8, "coalescing": False,
                    "scale_elements": 8192, "scale_iterations": 4}),
    FarmJob(fn="repro.exec.jobs:scenario_summary", label="BlackScholes8",
            kwargs={"app": "BlackScholes", "n_vps": 8,
                    "scale_elements": 8192, "scale_iterations": 10}),
    FarmJob(fn="repro.exec.jobs:fig9b_point", label="fig9b:n8",
            kwargs={"n_programs": 8}),
    FarmJob(fn="repro.exec.jobs:table1_route", label="table1:sigma-vp",
            kwargs={"route": "CUDA / This work", "app": "matrixMul"}),
]

#: CI smoke subset: the same shapes, sized to finish cold in seconds.
QUICK_SUITE: List[FarmJob] = [
    FarmJob(fn="repro.exec.jobs:fig10a_point", label="fig10a:b8/32vp",
            kwargs={"batch": 8, "n_programs": 32}),
    FarmJob(fn="repro.exec.jobs:fig10a_point", label="fig10a:b4/16vp",
            kwargs={"batch": 4, "n_programs": 16}),
    FarmJob(fn="repro.exec.jobs:scenario_summary", label="mergeSort8",
            kwargs={"app": "mergeSort", "n_vps": 8}),
    FarmJob(fn="repro.exec.jobs:scenario_summary", label="vectorAdd8",
            kwargs={"app": "vectorAdd", "n_vps": 8,
                    "scale_elements": 8192, "scale_iterations": 4}),
]


#: Functional suite for the backend section: the same fig10/fig11
#: shapes as the pinned suite, run with ``functional=True`` so the
#: registered numpy kernels actually execute.  Its digests are only
#: compared across backends *within* the section (functional jobs are
#: distinct jobs from timing-only ones).
FUNCTIONAL_SUITE: List[FarmJob] = [
    FarmJob(fn="repro.exec.jobs:fig10a_point", label="functional:fig10a:b8",
            kwargs={"batch": 8, "n_programs": 32, "functional": True}),
    FarmJob(fn="repro.exec.jobs:fig11_point", label="functional:fig11:BlackScholes",
            kwargs={"app": "BlackScholes", "n_vps": 8, "functional": True}),
    FarmJob(fn="repro.exec.jobs:scenario_summary", label="functional:vectorAdd8",
            kwargs={"app": "vectorAdd", "n_vps": 8, "functional": True}),
]


#: Domain-sharding proof scenarios (``report["sharding"]``): multi-GPU,
#: many-VP shapes where partitioned event heaps pay off.  The FIRST
#: entry is the headline — the largest multi-GPU scenario — and the one
#: the in-process speedup gate is enforced on.  Shapes are **event
#: bound** (``scale_elements`` shrinks input generation the same way
#: the farm suite scales numpy-bound jobs down) so the section measures
#: the event loop and the scheduling machinery, not ``np.random``.
SHARD_SCENARIOS: List[Dict[str, Any]] = [
    {"label": "vectorAdd48x2",
     "kwargs": {"app": "vectorAdd", "n_vps": 48, "n_host_gpus": 2,
                "scale_elements": 1024, "scale_iterations": 24}},
    {"label": "BlackScholes24x2",
     "kwargs": {"app": "BlackScholes", "n_vps": 24, "n_host_gpus": 2,
                "scale_elements": 1024, "scale_iterations": 24}},
]

#: CI smoke subset of the sharding section: one smaller two-GPU shape.
QUICK_SHARD_SCENARIOS: List[Dict[str, Any]] = [
    {"label": "vectorAdd12x2",
     "kwargs": {"app": "vectorAdd", "n_vps": 12, "n_host_gpus": 2,
                "scale_elements": 1024, "scale_iterations": 8}},
]


#: Job functions that accept ``policy=``/``placement=`` kwargs; only
#: these are rewritten when ``repro bench --policy/--placement`` asks
#: for a non-default scheduling stage.
SCHED_AWARE_FNS = frozenset({
    "repro.exec.jobs:scenario_summary",
    "repro.exec.jobs:phase_point",
    "repro.exec.jobs:fig10a_point",
})


def with_sched_stages(
    jobs: Sequence[FarmJob],
    policy: Optional[str] = None,
    placement: Optional[str] = None,
) -> List[FarmJob]:
    """Rewrite sched-aware suite jobs to carry policy/placement kwargs.

    Jobs whose functions have no scheduling surface pass through
    untouched; with neither override set, the input is returned as-is so
    default benches keep the exact config-hash keys (and therefore the
    cache entries and digests) they had before this option existed.
    """
    if policy is None and placement is None:
        return list(jobs)
    out: List[FarmJob] = []
    for job in jobs:
        if job.fn in SCHED_AWARE_FNS:
            kwargs = dict(job.kwargs)
            if policy is not None:
                kwargs["policy"] = policy
            if placement is not None:
                kwargs["placement"] = placement
            job = FarmJob(fn=job.fn, kwargs=kwargs, label=job.label)
        out.append(job)
    return out


class BenchDigestError(AssertionError):
    """Two bench modes simulated different results."""


class BenchOverheadError(AssertionError):
    """Disabled-mode instrumentation overhead exceeded the allowed limit."""


class BenchDiskCacheError(AssertionError):
    """The disk-cache cold-start section missed an acceptance bound."""


class BenchShardError(AssertionError):
    """The domain-sharding section missed a speedup acceptance bound."""


class BenchBackendError(AssertionError):
    """The execution-backend section found a backend not doing its job."""


#: Maximum allowed slowdown of the tracing-disabled serial-warm mode
#: versus the committed baseline (fraction; 0.02 = 2%).
DEFAULT_OVERHEAD_LIMIT = 0.02

#: A memory-cold process with a warm disk cache must land within this
#: factor of the fully memo-warmed serial mode (the PR's headline:
#: cold-start cost becomes a once-per-cache-lifetime event, not a
#: once-per-process one).
DISK_WARM_LIMIT = 2.0

def resolve_baseline(exclude: Optional[Path] = None) -> Optional[Path]:
    """The newest committed ``BENCH_*.json`` — the overhead-guard baseline.

    Auto-resolved (by recorded timestamp, via the trajectory layer) so
    the guard always measures against the most recent committed point
    instead of a hard-pinned file that silently goes stale; ``exclude``
    keeps the report a bench run is about to write from baselining
    against itself.
    """
    from .trajectory import newest_bench_path  # local: trajectory loads bench files

    return newest_bench_path(Path("."), exclude=exclude)


def check_overhead(
    report: Dict[str, Any],
    baseline_path: Optional[Path] = None,
    limit: float = DEFAULT_OVERHEAD_LIMIT,
) -> Dict[str, Any]:
    """Compare this run's serial-warm wall time to the baseline file.

    The serial-warm mode runs with tracing *disabled*, so its wall time
    directly measures what the instrumentation guards cost everyone who
    never turns tracing on.  Returns a JSON-able section describing the
    check; raises :class:`BenchOverheadError` when the overhead exceeds
    ``limit``.  ``baseline_path=None`` auto-resolves the newest
    committed ``BENCH_*.json`` (:func:`resolve_baseline`).  The
    comparison is skipped (with a ``note``) when the baseline is missing
    or was recorded for a different suite or worker count — wall times
    are only comparable like-for-like.
    """
    if baseline_path is None:
        baseline_path = resolve_baseline()
    section: Dict[str, Any] = {
        "baseline": str(baseline_path) if baseline_path is not None else None,
        "limit": limit,
        "checked": False,
    }
    if baseline_path is None:
        section["note"] = "no committed BENCH_*.json baseline found"
        return section
    try:
        baseline = json.loads(Path(baseline_path).read_text())
    except (OSError, ValueError) as exc:
        section["note"] = f"baseline unavailable ({exc.__class__.__name__})"
        return section
    if baseline.get("suite") != report["suite"]:
        section["note"] = (
            f"suite mismatch: baseline={baseline.get('suite')!r} "
            f"run={report['suite']!r}; comparison skipped"
        )
        return section
    if baseline.get("workers") != report["workers"]:
        section["note"] = (
            f"worker-count mismatch: baseline={baseline.get('workers')} "
            f"run={report['workers']}; comparison skipped"
        )
        return section
    base_mode = baseline["modes"]["serial_warm"]
    run_mode = report["modes"]["serial_warm"]
    # CPU time is immune to scheduler steal on shared hosts, so prefer
    # it whenever both sides recorded it; older baselines only carry
    # wall-clock and fall back to the noisier comparison.
    if "cpu_s" in base_mode and "cpu_s" in run_mode:
        metric, base_warm, run_warm = "cpu", base_mode["cpu_s"], run_mode["cpu_s"]
    else:
        metric, base_warm, run_warm = "wall", base_mode["wall_s"], run_mode["wall_s"]
    overhead = run_warm / base_warm - 1.0
    section.update(
        checked=True,
        metric=metric,
        baseline_s=base_warm,
        run_s=run_warm,
        overhead=overhead,
    )
    if overhead > limit:
        raise BenchOverheadError(
            f"tracing-disabled serial-warm {metric} time regressed "
            f"{overhead * 100.0:.1f}% vs {baseline_path} "
            f"(limit {limit * 100.0:.1f}%): "
            f"{base_warm:.2f}s -> {run_warm:.2f}s"
        )
    return section


def _run_mode(
    farm: ScenarioFarm,
    jobs: Sequence[FarmJob],
    rounds: int = 1,
    before_round: Optional[Callable[[], None]] = None,
) -> Dict[str, Any]:
    """Run the suite ``rounds`` times and keep the fastest wall-clock.

    Scheduler steal and frequency scaling only ever *inflate* wall time,
    so the minimum over rounds is the robust estimator of the true cost.
    CPU time (``cpu_s``) is tracked alongside — its own minimum over
    rounds — because it ignores steal entirely and so survives shared
    hosts that wall-clock cannot.  Every round must simulate the same
    digest or the mode fails.  ``before_round`` runs outside the timed
    window (the disk section clears the in-memory memos with it, so
    every round models a freshly started process).
    """
    best: Optional[Dict[str, Any]] = None
    best_cpu = float("inf")
    for _ in range(max(1, rounds)):
        if before_round is not None:
            before_round()
        cpu_started = time.process_time()
        started = time.perf_counter()
        results = farm.map(jobs)
        wall = time.perf_counter() - started
        best_cpu = min(best_cpu, time.process_time() - cpu_started)
        run = {
            "wall_s": wall,
            "digest": results_digest(results),
            "per_job_s": {r.label: r.duration_s for r in results},
            "results": results,
        }
        if best is not None and run["digest"] != best["digest"]:
            raise BenchDigestError(
                "repeated rounds of one mode disagree: "
                f"{best['digest'][:12]} != {run['digest'][:12]}"
            )
        if best is None or run["wall_s"] < best["wall_s"]:
            best = run
    assert best is not None
    best["cpu_s"] = best_cpu
    best["rounds"] = max(1, rounds)
    return best


def _counter_total(totals: Dict[str, Any], name: str) -> int:
    return int(totals.get(name, {}).get("value", 0))


def _disk_section(
    suite: Sequence[FarmJob],
    workers: int,
    reference_digest: str,
    serial_warm_wall: float,
) -> Dict[str, Any]:
    """Cold-start section: the persistent disk tier against a private root.

    The first four modes model a **freshly started process**: the
    in-memory memos are cleared before every round (but stay enabled —
    a real process runs with them on), and the whole-job result layer
    is disabled so entire simulations can never short-circuit.  The
    only help a round gets is what an *earlier process* left on disk:

    * ``cold_populate`` — empty store: the true cold-start cost; fills it;
    * ``disk_warm`` — the headline: a fresh process served from disk
      must land within :data:`DISK_WARM_LIMIT` of fully-warm serial
      (a long-lived process whose memos never cleared);
    * ``parallel_disk_warm`` — every farm worker shares the same store;
    * ``disk_corrupted`` — every entry truncated: silent recompute, same
      digest, never an exception;
    * ``job_populate``/``job_warm`` — the whole-job layer re-enabled so
      it may short-circuit entire simulations.

    All six digests must equal the in-memory modes' digest: the disk
    tier is pure plumbing.
    """
    modes: Dict[str, Dict[str, Any]] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        with _cache.disk_scope(True, root=tmp):
            previous_job_layer = _cache.set_job_results_enabled(False)
            try:
                modes["cold_populate"] = _run_mode(
                    ScenarioFarm(workers=1, warmup=False), suite,
                    before_round=clear_all_caches,
                )
                modes["disk_warm"] = _run_mode(
                    ScenarioFarm(workers=1, warmup=False), suite, rounds=2,
                    before_round=clear_all_caches,
                )
                modes["parallel_disk_warm"] = _run_mode(
                    ScenarioFarm(workers=workers, warmup=False), suite,
                    before_round=clear_all_caches,
                )
                warm_stats = _cache.cache_stats()
                # Truncate every entry in place: reads must degrade to
                # misses (recompute + rewrite), never to wrong results.
                for path in Path(tmp).rglob("*.pkl"):
                    path.write_bytes(b"\x00truncated")
                modes["disk_corrupted"] = _run_mode(
                    ScenarioFarm(workers=1, warmup=False), suite,
                    before_round=clear_all_caches,
                )
            finally:
                _cache.set_job_results_enabled(previous_job_layer)
            modes["job_populate"] = _run_mode(
                ScenarioFarm(workers=1, warmup=False), suite,
                before_round=clear_all_caches,
            )
            modes["job_warm"] = _run_mode(
                ScenarioFarm(workers=1, warmup=False), suite,
                before_round=clear_all_caches,
            )
            final_stats = _cache.cache_stats()

    for name, mode in modes.items():
        if mode["digest"] != reference_digest:
            raise BenchDigestError(
                f"disk-cache mode {name!r} changed simulation results: "
                f"{mode['digest'][:12]} != {reference_digest[:12]}"
            )
    section = {
        "modes": {
            name: {k: v for k, v in mode.items() if k != "results"}
            for name, mode in modes.items()
        },
        "stats_after_warm": warm_stats,
        "stats_final": final_stats,
        "identical_results": True,
        "ratios": {
            "disk_warm_vs_serial_warm":
                modes["disk_warm"]["wall_s"] / serial_warm_wall,
            "cold_start_speedup":
                modes["cold_populate"]["wall_s"] / modes["disk_warm"]["wall_s"],
            "job_warm_speedup":
                modes["job_populate"]["wall_s"] / modes["job_warm"]["wall_s"],
        },
        "disk_warm_limit": DISK_WARM_LIMIT,
    }
    ratio = section["ratios"]["disk_warm_vs_serial_warm"]
    if ratio > DISK_WARM_LIMIT:
        raise BenchDiskCacheError(
            f"memory-cold + disk-warm serial run is {ratio:.2f}x the "
            f"fully-warm serial time (limit {DISK_WARM_LIMIT:.1f}x)"
        )
    return section


def _backend_section(
    suite: Optional[Sequence[FarmJob]] = None, quick: bool = False
) -> Dict[str, Any]:
    """Execution-backend section: every available backend, one digest.

    Runs the functional suite once per *available* registered execution
    backend under ``backend_scope`` — scoping (not job kwargs) keeps the
    config-hash keys identical, so the digests are directly comparable —
    with the in-memory memos cleared between backends so each run truly
    executes.  Requires (a) bit-identical digests across every available
    backend (they are interchangeable run mechanics by contract), and
    (b) a non-zero ``exec.backend_launches`` counter proving each backend
    served the launches itself.  Unavailable backends
    (``cupy`` without the package) are recorded under ``skipped`` with
    their reason — never an error.
    """
    from ..backend import available_backends, backend_scope, make_backend

    if suite is None:
        suite = (
            [FUNCTIONAL_SUITE[0], FUNCTIONAL_SUITE[2]] if quick else FUNCTIONAL_SUITE
        )
    modes: Dict[str, Dict[str, Any]] = {}
    counters: Dict[str, Dict[str, int]] = {}
    skipped: List[Dict[str, str]] = []
    for name, _description in available_backends():
        probe = make_backend(name)
        if not probe.available():
            skipped.append(
                {"name": name, "reason": probe.unavailable_reason() or ""}
            )
            continue
        clear_all_caches()
        with backend_scope(name):
            mode = _run_mode(
                ScenarioFarm(workers=1, warmup=False, capture_obs=True), suite
            )
        totals = farm_merged_metrics(mode["results"])["totals"]
        counters[name] = {
            counter: _counter_total(totals, f"exec.backend_{counter}")
            for counter in ("launches", "h2d", "d2h")
        }
        modes[name] = mode
    digests = {name: mode["digest"] for name, mode in modes.items()}
    if len(set(digests.values())) != 1:
        raise BenchDigestError(
            "execution backends disagree on simulation results: "
            + ", ".join(f"{k}={v[:12]}" for k, v in digests.items())
        )
    for name, counts in counters.items():
        if counts["launches"] <= 0:
            raise BenchBackendError(
                f"backend {name!r} served zero launches — the "
                f"functional suite never exercised it"
            )
    return {
        "jobs": [job.label for job in suite],
        "modes": {
            name: {k: v for k, v in mode.items() if k != "results"}
            for name, mode in modes.items()
        },
        "counters": counters,
        "skipped": skipped,
        "identical_results": True,
        "digest": next(iter(digests.values())),
    }


def _timing_section(
    suite: Sequence[FarmJob], reference_digest: str
) -> Dict[str, Any]:
    """Timing-engine section: scalar vs. vectorized warm-serial cost.

    Runs the suite warm-serial twice — vectorized batched timing on
    (:mod:`repro.gpu.vectimes`) and off (the scalar reference walk) —
    requires both digests bit-identical to the main modes, then reruns
    the vectorized mode once under observability capture to prove the
    array engine actually priced launches (non-zero
    ``exec.vectimes_*`` counters).  The timed runs stay capture-free so
    their wall/CPU numbers measure the timing engines, not the
    instrumentation.
    """
    from ..gpu import vectimes as _vectimes

    clear_all_caches()
    with _vectimes.vectimes_scope(True):
        vectorized = _run_mode(
            ScenarioFarm(workers=1, warmup=True), suite, rounds=3
        )
    clear_all_caches()
    with _vectimes.vectimes_scope(False):
        scalar = _run_mode(
            ScenarioFarm(workers=1, warmup=True), suite, rounds=3
        )
    clear_all_caches()
    with _vectimes.vectimes_scope(True):
        captured = _run_mode(
            ScenarioFarm(workers=1, warmup=False, capture_obs=True), suite
        )
    for name, mode in (
        ("vectorized", vectorized), ("scalar", scalar), ("captured", captured)
    ):
        if mode["digest"] != reference_digest:
            raise BenchDigestError(
                f"timing mode {name!r} changed simulation results: "
                f"{mode['digest'][:12]} != {reference_digest[:12]}"
            )
    totals = farm_merged_metrics(captured["results"])["totals"]
    counts = {
        name: _counter_total(totals, f"exec.vectimes_{name}")
        for name in ("batches", "launches", "profile_reuse", "estimates")
    }
    if counts["launches"] <= 0:
        raise BenchDiskCacheError(
            "timing section priced zero launches through the vectorized "
            "engine"
        )
    return {
        "modes": {
            "vectorized": {k: v for k, v in vectorized.items() if k != "results"},
            "scalar": {k: v for k, v in scalar.items() if k != "results"},
        },
        "counts": counts,
        "identical_results": True,
        "speedup": {
            "wall": scalar["wall_s"] / vectorized["wall_s"],
            "cpu": scalar["cpu_s"] / vectorized["cpu_s"],
        },
    }


def _time_interleaved(
    fns: Sequence[Tuple[str, Callable[[], Any]]],
    rounds: int,
) -> Dict[str, Tuple[Any, Dict[str, Any]]]:
    """Best-of-``rounds`` timing with the modes interleaved per round.

    Timing modes back-to-back (all rounds of A, then all rounds of B)
    lets a single background-CPU spike inflate one mode and flip an A/B
    ratio; interleaving lands any disturbance on every mode near
    symmetrically, and best-of then discards it.  The collector is
    paused around each timed window so one mode's allocator debt is not
    paid inside another's measurement.  Every round of one mode must
    return an equal value or the measurement fails.
    """
    best: Dict[str, Dict[str, Any]] = {
        name: {"wall_s": float("inf"), "cpu_s": float("inf")} for name, _ in fns
    }
    values: Dict[str, Any] = {}
    for index in range(max(1, rounds)):
        for name, fn in fns:
            gc_was_enabled = gc.isenabled()
            gc.collect()
            gc.disable()
            try:
                cpu0 = time.process_time()
                wall0 = time.perf_counter()
                result = fn()
                wall = time.perf_counter() - wall0
                cpu = time.process_time() - cpu0
            finally:
                if gc_was_enabled:
                    gc.enable()
            entry = best[name]
            entry["wall_s"] = min(entry["wall_s"], wall)
            entry["cpu_s"] = min(entry["cpu_s"], cpu)
            if index > 0 and result != values[name]:
                raise BenchDigestError("repeated rounds of one mode disagree")
            values[name] = result
    return {
        name: (values[name], {**best[name], "rounds": max(1, rounds)})
        for name, _ in fns
    }


def _shard_section(
    scenarios: Sequence[Dict[str, Any]],
    rounds: int = 5,
    enforce: bool = True,
) -> Dict[str, Any]:
    """Domain-sharding section: ``sharded`` and ``sharded_mp`` modes.

    For each scenario, runs four modes best-of-``rounds``, interleaved
    (see :func:`_time_interleaved`):

    * ``serial_warm`` — the single-heap engine, the baseline;
    * ``sharded`` — the in-process domain scheduler
      (:func:`repro.exec.shard.run_sharded_inproc`): each edge-free
      per-GPU domain runs to completion in turn, shrinking the
      superlinear scheduling state to one device group's size;
    * ``sharded_merge`` — the exact n-way-merge engine
      (``shards="per-gpu"``: per-domain event heaps, one process,
      event-by-event global order) — the general-case fallback, timed
      for the record but expected to track serial closely;
    * ``sharded_mp`` — the multiprocessing domain executor (per-GPU
      sub-simulations on a persistent farm pool).

    All summaries must be **equal** — sharding is a run mechanic, never
    a result change.

    ``enforce=True`` applies the acceptance bounds: the in-process
    domain scheduler must be at least break-even (CPU time, the
    steal-immune metric) on the headline scenario (``scenarios[0]``),
    and the multiprocessing executor must beat warm serial wall time on
    at least one scenario.
    """
    import hashlib as _hashlib

    from .jobs import scenario_shard_stats, scenario_summary
    from .shard import run_sharded_inproc, run_sharded_mp

    out: List[Dict[str, Any]] = []
    for entry in scenarios:
        kwargs = dict(entry["kwargs"])
        clear_all_caches()
        # Untimed warm pass; doubles as the engine-statistics probe.
        stats_bundle = scenario_shard_stats(shards="per-gpu", **kwargs)

        with ScenarioFarm(
            workers=kwargs.get("n_host_gpus", 1), persistent=True
        ) as farm:
            run_sharded_mp(farm=farm, **kwargs)  # pool start + worker warm
            timed = _time_interleaved(
                [
                    ("serial", lambda: scenario_summary(**kwargs)),
                    ("sharded", lambda: run_sharded_inproc(**kwargs)),
                    ("merge",
                     lambda: scenario_summary(shards="per-gpu", **kwargs)),
                    ("mp", lambda: run_sharded_mp(farm=farm, **kwargs)),
                ],
                rounds,
            )
        serial_value, serial_t = timed["serial"]
        sharded_value, sharded_t = timed["sharded"]
        merge_value, merge_t = timed["merge"]
        mp_value, mp_t = timed["mp"]

        for name, value in (
            ("sharded", sharded_value),
            ("sharded_merge", merge_value),
            ("sharded_mp", mp_value),
            ("warm-pass", stats_bundle["summary"]),
        ):
            if value != serial_value:
                raise BenchDigestError(
                    f"shard mode {name!r} changed simulation results for "
                    f"{entry['label']}"
                )
        digest = _hashlib.sha256(
            canonical_json(serial_value).encode()
        ).hexdigest()
        out.append({
            "label": entry["label"],
            "kwargs": kwargs,
            "digest": digest,
            "domain_stats": stats_bundle["domain_stats"],
            "modes": {
                "serial_warm": serial_t,
                "sharded": sharded_t,
                "sharded_merge": merge_t,
                "sharded_mp": mp_t,
            },
            "speedups": {
                "sharded_vs_serial_cpu": serial_t["cpu_s"] / sharded_t["cpu_s"],
                "sharded_vs_serial_wall":
                    serial_t["wall_s"] / sharded_t["wall_s"],
                "merge_vs_serial_cpu": serial_t["cpu_s"] / merge_t["cpu_s"],
                "mp_vs_serial_wall": serial_t["wall_s"] / mp_t["wall_s"],
            },
        })

    section = {
        "scenarios": out,
        "identical_results": True,
        "enforced": enforce,
    }
    if enforce:
        headline = out[0]
        ratio = headline["speedups"]["sharded_vs_serial_cpu"]
        if ratio < 1.0:
            raise BenchShardError(
                f"in-process domain scheduler is slower than warm serial on "
                f"the headline scenario {headline['label']}: "
                f"{ratio:.2f}x (need >= 1.0x)"
            )
        if not any(
            s["speedups"]["mp_vs_serial_wall"] > 1.0 for s in out
        ):
            raise BenchShardError(
                "multiprocessing domain executor beat warm serial wall "
                "time on no scenario"
            )
    return section


def run_bench(
    workers: int = 4,
    quick: bool = False,
    output: Optional[Path] = Path("BENCH_PR8.json"),
    jobs: Optional[Sequence[FarmJob]] = None,
    trace: bool = False,
    overhead_guard: bool = True,
    baseline: Optional[Path] = None,
    overhead_limit: float = DEFAULT_OVERHEAD_LIMIT,
    cold: bool = False,
    policy: Optional[str] = None,
    placement: Optional[str] = None,
    compare: bool = False,
    shard: bool = True,
) -> Dict[str, Any]:
    """Run the pinned suite serial-cold, serial-warm, and parallel-warm.

    Returns the report dict (also written to ``output`` as JSON) and
    raises :class:`BenchDigestError` if any mode's results differ.

    ``trace=True`` adds a **parallel-traced** mode (same farm, per-job
    observability capture on) whose digest must match the untraced
    modes; its merged trace sources and metrics land under the
    (non-serialized) ``report["artifacts"]`` key and its relative cost
    under ``report["tracing_overhead"]``.  ``overhead_guard`` compares
    the tracing-*disabled* serial-warm cost against ``baseline`` (the
    newest committed ``BENCH_*.json`` when ``None``, this run's own
    ``output`` excluded) and raises :class:`BenchOverheadError` past
    ``overhead_limit``.  ``compare=True`` additionally gates the run's
    per-job warm-serial times against the same newest committed point
    with the trajectory sign test
    (:func:`repro.exec.trajectory.compare_bench_report`), recording the
    verdict under ``report["trajectory_compare"]``.

    ``cold=True`` adds the persistent disk-cache cold-start section
    (:func:`_disk_section`, against a private temporary store) under
    ``report["disk_cache"]``.  The three standard modes always run with the disk tier *off* so their
    wall times keep measuring the in-memory paths of prior baselines.

    ``policy``/``placement`` thread registered scheduling stages through
    every sched-aware suite job (:func:`with_sched_stages`); the
    overhead guard is only meaningful against a like-for-like baseline,
    so it is skipped for non-default stages.

    Every run also records the execution-backend section
    (:func:`_backend_section`) under ``report["backend"]``: the
    functional suite once per available registered backend, digest-equal
    across all of them.

    ``shard=True`` (the default) appends the domain-sharding section
    (:func:`_shard_section`): the ``sharded`` (in-process domain
    scheduler), ``sharded_merge`` (partitioned exact-merge event loop)
    and ``sharded_mp`` (per-GPU worker processes) modes over the
    multi-GPU proof scenarios, digest-equal to warm serial and — on
    full runs — held to their speedup bounds.
    """
    suite = list(jobs) if jobs is not None else (QUICK_SUITE if quick else FULL_SUITE)
    if policy is not None or placement is not None:
        suite = with_sched_stages(suite, policy, placement)
        # Wall times of a different scheduling policy are not comparable
        # to the committed default-policy baseline.
        overhead_guard = False

    # Cold runs once (it is the long mode and only noise-inflated, which
    # if anything under-reports the speedups); warm modes are cheap, so
    # they take the best of three rounds to shrug off steal-time spikes.
    with _cache.disk_scope(False):
        clear_all_caches()
        with cache_scope(False):
            cold_mode = _run_mode(ScenarioFarm(workers=1, warmup=False), suite)

        clear_all_caches()
        warm = _run_mode(ScenarioFarm(workers=1, warmup=True), suite, rounds=3)

        # Persistent pool: the workers fork, warm and receive the static
        # job list once; rounds two and three submit bare indices to
        # already-warm processes, so the best-of-rounds estimator sees
        # the true steady-state parallel cost instead of per-round pool
        # startup plus warm-up (the historic ``parallel_vs_warm < 1``).
        clear_all_caches()
        with ScenarioFarm(workers=workers, persistent=True) as parallel_farm:
            parallel = _run_mode(parallel_farm, suite, rounds=3)

        modes = [
            ("serial_cold", cold_mode),
            ("serial_warm", warm),
            ("parallel_warm", parallel),
        ]

        traced: Optional[Dict[str, Any]] = None
        if trace:
            clear_all_caches()
            traced = _run_mode(
                ScenarioFarm(workers=workers, capture_obs=True), suite
            )
            modes.append(("parallel_traced", traced))

    digests = {name: mode["digest"] for name, mode in modes}
    if len(set(digests.values())) != 1:
        raise BenchDigestError(
            "bench modes disagree on simulation results: "
            + ", ".join(f"{k}={v[:12]}" for k, v in digests.items())
        )

    report = {
        "suite": "quick" if (jobs is None and quick) else
                 ("custom" if jobs is not None else "full"),
        "workers": workers,
        "n_jobs": len(suite),
        "jobs": [
            {"key": j.key, "fn": j.fn, "label": j.label, "kwargs": j.kwargs}
            for j in suite
        ],
        "modes": {
            name: {k: v for k, v in mode.items() if k != "results"}
            for name, mode in modes
        },
        "speedups": {
            # serial-cold is the seed-equivalent baseline in both ratios.
            "caches_only": cold_mode["wall_s"] / warm["wall_s"],
            "parallel": cold_mode["wall_s"] / parallel["wall_s"],
            "parallel_vs_warm": warm["wall_s"] / parallel["wall_s"],
        },
        "identical_results": True,
        "digest": cold_mode["digest"],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git_commit": _git_commit(),
    }
    if policy is not None or placement is not None:
        report["sched"] = {"policy": policy, "placement": placement}
    if traced is not None:
        # Within-run cost of turning tracing on (same farm shape).
        report["tracing_overhead"] = {
            "traced_wall_s": traced["wall_s"],
            "untraced_wall_s": parallel["wall_s"],
            "ratio": traced["wall_s"] / parallel["wall_s"],
        }
    with _cache.disk_scope(False):
        report["timing"] = _timing_section(suite, cold_mode["digest"])
        report["backend"] = _backend_section(quick=quick)
    if shard:
        # Quick (CI smoke) runs record the section but skip the speedup
        # bounds: the small smoke scenario's margin is noise-sized.
        with _cache.disk_scope(False):
            report["sharding"] = _shard_section(
                QUICK_SHARD_SCENARIOS if quick else SHARD_SCENARIOS,
                enforce=not quick,
            )
    if cold:
        report["disk_cache"] = _disk_section(
            suite, workers, cold_mode["digest"], warm["wall_s"]
        )
    if overhead_guard:
        if baseline is None:
            baseline = resolve_baseline(
                exclude=Path(output) if output is not None else None
            )
        report["overhead_guard"] = check_overhead(
            report, baseline_path=baseline, limit=overhead_limit
        )
    if compare:
        from .trajectory import compare_bench_report

        report["trajectory_compare"] = compare_bench_report(
            report,
            exclude=Path(output) if output is not None else None,
        )
    if output is not None:
        Path(output).write_text(json.dumps(report, indent=2) + "\n")
    if traced is not None:
        # Attached after serialization on purpose: trace buffers are
        # large and belong in their own artifact files, not the report.
        report["artifacts"] = {
            "trace_sources": farm_trace_sources(traced["results"]),
            "metrics": farm_merged_metrics(traced["results"]),
        }
    return report


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable summary of a bench report."""
    lines = [
        f"bench suite: {report['suite']} ({report['n_jobs']} jobs), "
        f"workers={report['workers']}",
        f"results identical across modes: {report['identical_results']} "
        f"(digest {report['digest'][:12]})",
    ]
    for name, mode in report["modes"].items():
        lines.append(f"  {name:<14} {mode['wall_s']:8.2f} s")
    speed = report["speedups"]
    lines.append(
        f"speedup from caches alone (serial warm vs cold): "
        f"{speed['caches_only']:.2f}x"
    )
    lines.append(
        f"speedup parallel+caches vs seed-equivalent serial: "
        f"{speed['parallel']:.2f}x"
    )
    disk = report.get("disk_cache")
    if disk:
        for name, mode in disk["modes"].items():
            lines.append(f"  disk:{name:<19} {mode['wall_s']:8.2f} s")
        ratios = disk["ratios"]
        lines.append(
            f"memory-cold + disk-warm vs fully-warm serial: "
            f"{ratios['disk_warm_vs_serial_warm']:.2f}x "
            f"(limit {disk['disk_warm_limit']:.1f}x)"
        )
        lines.append(
            f"disk cache cold-start speedup: "
            f"{ratios['cold_start_speedup']:.2f}x; "
            f"job-result layer: {ratios['job_warm_speedup']:.0f}x"
        )
    timing = report.get("timing")
    if timing:
        t_modes = timing["modes"]
        t_counts = timing["counts"]
        lines.append(
            f"timing engine (warm serial): scalar "
            f"{t_modes['scalar']['cpu_s']:.2f}s CPU -> vectorized "
            f"{t_modes['vectorized']['cpu_s']:.2f}s CPU "
            f"({timing['speedup']['cpu']:.2f}x); "
            f"{t_counts['launches']} launches in {t_counts['batches']} "
            f"batches, {t_counts['profile_reuse']} profile reuses; "
            f"digests identical: {timing['identical_results']}"
        )
    backend_section = report.get("backend")
    if backend_section:
        for name, mode in backend_section["modes"].items():
            counts = backend_section["counters"][name]
            lines.append(
                f"  backend:{name:<16} {mode['wall_s']:8.2f} s "
                f"({counts['launches']} launches)"
            )
        for skip in backend_section["skipped"]:
            lines.append(
                f"  backend:{skip['name']:<16} skipped: {skip['reason']}"
            )
        lines.append(
            f"backend digests identical: "
            f"{backend_section['identical_results']}"
        )
    sharding = report.get("sharding")
    if sharding:
        for scenario in sharding["scenarios"]:
            speed = scenario["speedups"]
            stats = scenario.get("domain_stats") or {}
            merge_ratio = speed.get("merge_vs_serial_cpu")
            merge_part = (
                f"merge {merge_ratio:.2f}x cpu, " if merge_ratio else ""
            )
            lines.append(
                f"  shard:{scenario['label']:<18} "
                f"sharded {speed['sharded_vs_serial_cpu']:.2f}x cpu, "
                f"{merge_part}"
                f"mp {speed['mp_vs_serial_wall']:.2f}x wall "
                f"({stats.get('domains', '?')} domains, "
                f"{stats.get('epochs', '?')} epochs, "
                f"lookahead {stats.get('lookahead_ms', '?')}ms)"
            )
        lines.append(
            f"sharding digests identical: {sharding['identical_results']}"
        )
    tracing = report.get("tracing_overhead")
    if tracing:
        lines.append(
            f"tracing-on vs tracing-off (parallel): "
            f"{tracing['ratio']:.2f}x "
            f"({tracing['untraced_wall_s']:.2f}s -> {tracing['traced_wall_s']:.2f}s)"
        )
    guard = report.get("overhead_guard")
    if guard:
        if guard.get("checked"):
            lines.append(
                f"disabled-mode overhead ({guard.get('metric', 'wall')}) "
                f"vs {guard['baseline']}: "
                f"{guard['overhead'] * 100.0:+.1f}% "
                f"(limit {guard['limit'] * 100.0:.1f}%)"
            )
        else:
            lines.append(f"overhead guard: {guard.get('note', 'skipped')}")
    compare = report.get("trajectory_compare")
    if compare:
        if compare.get("comparable"):
            lines.append(
                f"trajectory compare vs newest committed point: "
                f"{compare['faster']} faster / {compare['slower']} slower / "
                f"{compare['ties']} within band (p={compare['p_value']:.4f}) "
                f"-> {'REGRESSED' if compare['regressed'] else 'ok'}"
            )
        else:
            lines.append(
                f"trajectory compare: {compare.get('note', 'skipped')}"
            )
    return "\n".join(lines)
