"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                       — the workload catalog
* ``run APP [options]``          — simulate one app on N VPs and report
* ``table1``                     — regenerate the paper's Table 1
* ``fig9`` / ``fig10`` / ``fig11 [apps...]`` / ``fig12`` / ``fig13``
                                 — regenerate the paper's figures
* ``estimate APP``               — target time/power estimates (Sec. 4)
* ``validate [apps...]``         — cross-backend functional equivalence
* ``report [-o FILE] [--quick]`` — the full paper-vs-measured record
* ``trace APP [-o FILE]``        — record one scenario into a
                                   Chrome/Perfetto trace (+ metrics);
                                   ``--critpath`` prints what bounds it
* ``metrics APP``                — run one scenario, print its metrics
                                   (``--prom`` for Prometheus text)
* ``account APP``                — run one scenario, print the per-VP
                                   accounting table (``account.*``)
* ``trajectory``                 — build/gate the BENCH_*.json
                                   performance trajectory
* ``serve [options]``            — run the multi-tenant simulation
                                   daemon on a local Unix socket
                                   (docs/SERVICE.md)
* ``submit APP [options]``       — submit one scenario to a running
                                   daemon and (by default) wait for
                                   its result
* ``policies``                   — list registered scheduling policies
                                   and placement strategies
* ``backends``                   — list registered execution backends
                                   and their availability
* ``cache stats|clear``          — inspect / purge the persistent
                                   cross-process artifact cache

``run``, ``trace``, ``metrics``, and ``bench`` accept ``--policy`` /
``--placement`` to swap the scheduling pipeline's select/place stages
(see ``repro policies`` and ``docs/SCHEDULING.md``).

``--no-disk-cache`` (before the subcommand) disables the persistent
disk tier for the invocation; ``REPRO_DISK_CACHE=0`` does the same via
the environment and ``REPRO_CACHE_DIR`` relocates the store.
``--backend NAME`` (also before the subcommand) selects the execution
backend for functional kernel work — ``REPRO_BACKEND`` is the
environment equivalent; see ``repro backends`` and ``docs/BACKENDS.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import (
    build_table1,
    fig9a_series,
    fig9b_series,
    fig10a_series,
    fig11_series,
    fig12_series,
    fig13_series,
    render_series,
    render_table,
    render_table1,
)
from .analysis.timeline import collect_timeline, render_gantt
from .gpu.arch import CATALOG, GRID_K520, QUADRO_4000, TEGRA_K1
from .workloads import SUITE, get_workload


def _vps_list(text: str) -> List[int]:
    """argparse type for ``--vps``: an int or a comma list of ints."""
    counts = [int(v) for v in text.split(",") if v != ""]
    if not counts or any(n < 1 for n in counts):
        raise ValueError(f"need positive VP counts, got {text!r}")
    return counts


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {text!r}")
    return value


def _shards_value(text: str) -> object:
    """argparse type for ``--shards``: a domain count or a plan name."""
    value = text.strip().lower()
    if value in ("", "none", "0", "1"):
        return None
    if value.isdigit():
        return int(value)
    if value in ("per-gpu", "per-vp-group"):
        return value
    raise ValueError(
        f"need a domain count, 'per-gpu' or 'per-vp-group', got {text!r}"
    )


def _sched_options(parser_: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Attach the scheduling-stage overrides (see ``repro policies``)."""
    parser_.add_argument("--policy", default=None, metavar="NAME",
                         help="scheduling policy (default: follow "
                              "interleaving; see `repro policies`)")
    parser_.add_argument("--placement", default=None, metavar="NAME",
                         help="device placement strategy (default: "
                              "round-robin; see `repro policies`)")
    return parser_


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SigmaVP reproduction: host-GPU multiplexing for "
                    "simulating embedded GPUs (DAC 2015).",
    )
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="disable the persistent on-disk artifact cache "
                             "for this invocation (equivalent to "
                             "REPRO_DISK_CACHE=0)")
    parser.add_argument("--no-vectimes", action="store_true",
                        help="disable vectorized batched timing and fall "
                             "back to the scalar reference model "
                             "(equivalent to REPRO_VECTIMES=0; results "
                             "are bit-identical)")
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help="execution backend for functional kernel "
                             "work (equivalent to REPRO_BACKEND; see "
                             "`repro backends`; results are "
                             "bit-identical across backends)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the workload catalog")

    run = sub.add_parser("run", help="simulate one app on N virtual platforms")
    run.add_argument("app", help="workload name (see `repro list`)")
    run.add_argument("--vps", default="8", type=_vps_list,
                     help="number of VPs, or a comma list (e.g. 2,4,8) to "
                          "fan the sweep over the scenario farm")
    run.add_argument("--workers", type=_positive_int, default=1,
                     help="farm worker processes for a --vps comma list")
    run.add_argument("--gpus", type=int, default=1, help="host GPUs to multiplex")
    run.add_argument("--no-interleaving", action="store_true")
    run.add_argument("--no-coalescing", action="store_true")
    run.add_argument("--transport", choices=("socket", "shm"), default="socket")
    run.add_argument("--functional", action="store_true",
                     help="execute kernels numerically (numpy)")
    run.add_argument("--shards", type=_shards_value, default=None,
                     metavar="N|per-gpu|per-vp-group",
                     help="partition the event loop into time-decoupled "
                          "simulation domains (results are bit-identical "
                          "to the serial engine)")
    run.add_argument("--gantt", action="store_true",
                     help="print the engine timeline")
    run.add_argument("--account", action="store_true",
                     help="print per-VP / per-kind latency accounting")
    _sched_options(run)

    def with_workers(parser_, default=1):
        parser_.add_argument("--workers", type=_positive_int, default=default,
                             help="farm worker processes (1 = serial)")
        return parser_

    with_workers(sub.add_parser(
        "table1", help="regenerate Table 1 (matrixMul, six routes)"))
    with_workers(sub.add_parser(
        "fig9", help="regenerate Fig 9 (Kernel Interleaving)"))
    with_workers(sub.add_parser(
        "fig10", help="regenerate Fig 10(a) (Kernel Coalescing)"))
    fig11 = with_workers(sub.add_parser(
        "fig11", help="regenerate Fig 11 (the suite, 8 VPs)"))
    fig11.add_argument("apps", nargs="*", help="subset of apps (default: all)")
    with_workers(sub.add_parser(
        "fig12", help="regenerate Fig 12 (timing estimation)"))
    with_workers(sub.add_parser(
        "fig13", help="regenerate Fig 13 (power estimation)"))

    bench = sub.add_parser(
        "bench",
        help="benchmark-regression harness: pinned suite, serial cold/warm "
             "vs parallel, bit-identical results asserted",
    )
    bench.add_argument("--workers", type=_positive_int, default=4,
                       help="farm worker processes for the parallel mode")
    bench.add_argument("--quick", action="store_true",
                       help="CI smoke subset of the pinned suite")
    bench.add_argument("-o", "--output", default="BENCH_PR8.json",
                       help="JSON report path (use '-' to skip writing)")
    bench.add_argument("--no-shard", action="store_true",
                       help="skip the domain-sharding section "
                            "(sharded / sharded_mp modes)")
    bench.add_argument("--trace", action="store_true",
                       help="add a traced parallel mode and write one "
                            "merged multi-worker trace")
    bench.add_argument("--trace-out", default="bench_trace.json",
                       help="merged Chrome/Perfetto trace path (--trace)")
    bench.add_argument("--metrics-out", default="bench_metrics.json",
                       help="merged metrics snapshot path (--trace)")
    bench.add_argument("--no-overhead-guard", action="store_true",
                       help="skip the disabled-mode overhead check "
                            "against the newest committed BENCH_*.json")
    bench.add_argument("--compare", action="store_true",
                       help="gate this run's per-job warm-serial times "
                            "against the newest committed BENCH_*.json "
                            "with the trajectory sign test")
    bench.add_argument("--cold", action="store_true",
                       help="add the disk-cache cold-start and "
                            "batched-execution sections (private "
                            "temporary store; slower)")
    _sched_options(bench)

    sub.add_parser(
        "policies",
        help="list registered scheduling policies and placement strategies",
    )

    sub.add_parser(
        "backends",
        help="list registered execution backends, their availability and "
             "capability flags",
    )

    cache = sub.add_parser(
        "cache",
        help="inspect or purge the persistent cross-process artifact cache",
    )
    cache.add_argument("action", choices=("stats", "clear"),
                       help="'stats' prints the store location, entry "
                            "count, size, and hit counters as JSON; "
                            "'clear' removes every entry")

    def scenario_options(parser_):
        parser_.add_argument("app", help="workload name (see `repro list`)")
        parser_.add_argument("--vps", type=_positive_int, default=8,
                             help="number of virtual platforms")
        parser_.add_argument("--gpus", type=_positive_int, default=1,
                             help="host GPUs to multiplex")
        parser_.add_argument("--no-interleaving", action="store_true")
        parser_.add_argument("--no-coalescing", action="store_true")
        parser_.add_argument("--transport", choices=("socket", "shm"),
                             default="socket")
        _sched_options(parser_)
        return parser_

    trace = scenario_options(sub.add_parser(
        "trace",
        help="run one scenario with observability on; export a "
             "Chrome/Perfetto trace (open at ui.perfetto.dev)",
    ))
    trace.add_argument("-o", "--output", default="trace.json",
                       help="trace JSON path")
    trace.add_argument("--metrics-out", default=None,
                       help="also write the metrics snapshot here")
    trace.add_argument("--gantt", action="store_true",
                       help="print an ASCII gantt rebuilt from the trace")
    trace.add_argument("--critpath", action="store_true",
                       help="print critical-path attribution: which "
                            "engine/IPC/idle segment bounds the scenario")

    metrics = scenario_options(sub.add_parser(
        "metrics",
        help="run one scenario with metrics on; print the registry",
    ))
    metrics.add_argument("-o", "--output", default=None,
                         help="also write the snapshot JSON here "
                              "(a .prom sibling is written alongside)")
    metrics.add_argument("--prom", action="store_true",
                         help="print Prometheus text exposition instead "
                              "of the table")

    scenario_options(sub.add_parser(
        "account",
        help="run one scenario and print the per-VP accounting table "
             "(busy/wait, coalesce share, fairness, deadlines)",
    ))

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant simulation daemon on a local Unix "
             "socket (submit with `repro submit`; see docs/SERVICE.md)",
    )
    serve.add_argument("--socket", default=None, metavar="PATH",
                       help="Unix socket path (default: "
                            "$REPRO_SERVE_SOCKET or "
                            "<cache-root>/serve/serve.sock)")
    serve.add_argument("--state-dir", default=None, metavar="DIR",
                       help="journal directory (default: <cache-root>/serve)")
    serve.add_argument("--max-depth", type=_positive_int, default=None,
                       help="queue bound; submissions past it are "
                            "rejected with 'queue-full' (default 64)")
    serve.add_argument("--tenant-quota", type=int, default=None,
                       help="per-tenant queued+running cap, 0 = "
                            "unlimited (default 16)")
    serve.add_argument("--queue-policy", default="fair-share",
                       metavar="NAME",
                       help="tenant scheduling policy (any `repro "
                            "policies` name; default fair-share)")
    serve.add_argument("--workers", type=_positive_int, default=1,
                       help="concurrent worker processes (default 1)")
    serve.add_argument("--no-warm", action="store_true",
                       help="skip pre-fork kernel compilation warm-up")

    submit = scenario_options(sub.add_parser(
        "submit",
        help="submit one scenario to a running `repro serve` daemon",
    ))
    submit.add_argument("--functional", action="store_true",
                        help="execute kernels numerically (numpy)")
    submit.add_argument("--shards", type=_shards_value, default=None,
                        metavar="N|per-gpu|per-vp-group",
                        help="partition the event loop into "
                             "time-decoupled simulation domains")
    submit.add_argument("--tenant", default="default",
                        help="tenant to account this job to")
    submit.add_argument("--qos", type=int, default=None,
                        help="QoS tier for priority-deadline queue "
                             "scheduling (0 = most urgent)")
    submit.add_argument("--socket", default=None, metavar="PATH",
                        help="daemon socket path (default: "
                             "$REPRO_SERVE_SOCKET or the serve default)")
    submit.add_argument("--detach", action="store_true",
                        help="return after the job is accepted instead "
                             "of waiting for its result")

    trajectory = sub.add_parser(
        "trajectory",
        help="build the BENCH_*.json performance trajectory and apply "
             "the statistical regression gate",
    )
    trajectory.add_argument("-o", "--output", default="TRAJECTORY.json",
                            help="trajectory JSON path ('-' to skip writing)")
    trajectory.add_argument("--tolerance", type=float, default=None,
                            help="relative per-job change treated as a tie "
                                 "(default 0.10)")
    trajectory.add_argument("--alpha", type=float, default=None,
                            help="sign-test significance level (default 0.05)")
    trajectory.add_argument("--no-gate", action="store_true",
                            help="report only; never exit non-zero on a "
                                 "flagged regression")

    estimate = sub.add_parser("estimate", help="target time/power for one app")
    estimate.add_argument("app")
    estimate.add_argument("--host", choices=("quadro", "grid"), default="quadro")

    report = sub.add_parser(
        "report", help="regenerate the full paper-vs-measured report"
    )
    report.add_argument("-o", "--output", default="report.md")
    report.add_argument("--quick", action="store_true",
                        help="reduced Fig-11 app set")

    validate = sub.add_parser(
        "validate",
        help="check functional equivalence across all execution routes",
    )
    validate.add_argument("apps", nargs="*",
                          help="workloads to validate (default: a core set)")

    return parser


def _cmd_list() -> None:
    rows = []
    for name in sorted(SUITE):
        spec = SUITE[name]
        rows.append((
            name,
            spec.elements,
            spec.iterations,
            f"{spec.fp_fraction:.0%}",
            "yes" if spec.coalescible else "no",
            "yes" if spec.uses_noncuda else "no",
            spec.description[:46],
        ))
    print(render_table(
        ["Workload", "Elements", "Iters", "FP", "Coalescible",
         "Non-CUDA", "Description"],
        rows,
        title=f"Workload catalog ({len(SUITE)} applications)",
    ))


def _scenario_request(args: argparse.Namespace, n_vps: Optional[int] = None):
    """The :class:`~repro.api.RunRequest` a CLI scenario describes.

    One construction shared by ``run``, ``trace``, ``metrics``,
    ``account``, and ``submit``; the request's non-default-only kwargs
    rule keeps every default invocation on its pre-existing config-hash
    key.  An explicit ``--backend`` *does* enter the job key (it names
    how the run was produced), even though results are digest-identical
    across backends by contract.
    """
    from .api import RunRequest

    return RunRequest(
        app=args.app,
        n_vps=n_vps if n_vps is not None else args.vps,
        interleaving=not args.no_interleaving,
        coalescing=not args.no_coalescing,
        transport=args.transport,
        n_host_gpus=args.gpus,
        functional=getattr(args, "functional", False),
        policy=getattr(args, "policy", None),
        placement=getattr(args, "placement", None),
        shards=getattr(args, "shards", None),
        backend=getattr(args, "backend", None),
        tenant=getattr(args, "tenant", None) or "default",
        qos=getattr(args, "qos", None),
    )


def _cmd_run_sweep(args: argparse.Namespace, vps_list: List[int]) -> None:
    """Fan one app across several VP counts over the scenario farm."""
    from .exec import ScenarioFarm

    farm = ScenarioFarm(workers=args.workers)
    results = farm.map([
        _scenario_request(args, n_vps=n).to_farm_job() for n in vps_list
    ])
    rows = []
    for result in results:
        value = result.value
        rows.append((
            value["n_instances"],
            value["total_ms"],
            value.get("ipc_messages", "-"),
            value.get("coalesce_merges", "-"),
            f"{result.duration_s:.2f}",
        ))
    print(render_table(
        ["VPs", "Total (ms)", "IPC msgs", "Merges", "Host wall (s)"],
        rows,
        title=f"{args.app}: VP-count sweep on {farm.workers} worker(s)",
    ))


def _cmd_run(args: argparse.Namespace) -> None:
    vps_list = args.vps
    if len(vps_list) > 1:
        if args.functional or args.gantt or args.account:
            raise SystemExit(
                "repro run: error: --functional/--gantt/--account "
                "need a single --vps count"
            )
        _cmd_run_sweep(args, vps_list)
        return
    args.vps = vps_list[0]
    from .api import scenario

    result = scenario(_scenario_request(args))
    framework = result.extras["framework"]
    total = result.total_ms
    print(f"{result.workload}: {args.vps} VPs on {args.gpus} host GPU(s), "
          f"interleaving={'on' if not args.no_interleaving else 'off'}, "
          f"coalescing={'on' if not args.no_coalescing else 'off'}, "
          f"policy={framework.dispatcher.policy.name}, "
          f"placement={framework.dispatcher.pipeline.placement.name}")
    print(f"total simulated time: {total:.3f} ms")
    print(f"IPC messages: {framework.ipc.messages_sent}")
    if framework.coalescer is not None:
        stats = framework.coalescer.stats
        print(f"coalescer: {stats.merges} merges covering "
              f"{stats.kernels_coalesced} kernels")
    print(f"kernels profiled: {len(framework.profiler)}")
    stats_fn = getattr(framework.env, "domain_stats", None)
    if callable(stats_fn):
        stats = stats_fn()
        print(f"domains: {stats['domains']} (plan {stats['plan']}), "
              f"lookahead {stats['lookahead_ms']:.3f} ms, "
              f"{stats['epochs']} epochs, "
              f"{stats['switches']} domain switches")
    if args.gantt:
        print()
        print(render_gantt(collect_timeline(framework)))
    if args.account:
        from .analysis.accounting import render_accounting

        print()
        print(render_accounting(framework))


def _cmd_table1(workers: int = 1) -> None:
    print(render_table1(build_table1(workers=workers)))


def _cmd_fig9(workers: int = 1) -> None:
    points = fig9b_series(workers=workers)
    print(render_series(
        "Fig 9(b): interleaving speedup vs N programs (Tk = Tm)",
        [int(p.x) for p in points],
        [("Results", [p.measured for p in points]),
         ("Expected", [p.expected for p in points])],
        x_label="N",
    ))
    print()
    points = fig9a_series(kernel_lengths_ms=(2.0, 8.0, 13.44, 30.0, 60.0),
                          workers=workers)
    print(render_series(
        "Fig 9(a): speedup vs kernel length (2 programs, Tm = 13.44 ms)",
        [f"{p.x:.2f}" for p in points],
        [("Results", [p.measured for p in points]),
         ("Expected", [p.expected for p in points])],
        x_label="kernel ms",
    ))


def _cmd_fig10(workers: int = 1) -> None:
    points = fig10a_series(workers=workers)
    print(render_series(
        "Fig 10(a): coalescing 64 vectorAdd programs",
        [p.batch for p in points],
        [("Time (ms)", [p.total_ms for p in points]),
         ("Speedup", [p.speedup for p in points])],
        x_label="coalesced",
    ))


def _cmd_fig11(apps: List[str], workers: int = 1) -> None:
    kwargs = {"apps": tuple(apps)} if apps else {}
    points = fig11_series(workers=workers, **kwargs)
    print(render_table(
        ["App", "Emulation (s)", "x multiplexing", "x optimized"],
        [(p.app, p.emulation_ms / 1e3, p.multiplexing_speedup,
          p.optimized_speedup) for p in points],
        title="Fig 11: 8 VPs, emulation vs SigmaVP",
    ))


def _cmd_fig12(workers: int = 1) -> None:
    points = fig12_series(workers=workers)
    print(render_table(
        ["Host", "App", "H", "T", "C", "C'", "C''"],
        [(p.host, p.app, p.h_normalized, p.t_normalized, p.c_normalized,
          p.c_prime_normalized, p.c_double_prime_normalized) for p in points],
        title="Fig 12: normalized execution times (target = Tegra K1)",
    ))


def _cmd_fig13(workers: int = 1) -> None:
    points = fig13_series(workers=workers)
    print(render_table(
        ["Host", "App", "Measured (W)", "Estimate (W)", "Error (%)"],
        [(p.host, p.app, p.measured_w, p.estimated_w, p.error_pct)
         for p in points],
        title="Fig 13: target power, measured vs estimated",
    ))


def _cmd_estimate(args: argparse.Namespace) -> None:
    from .core.estimation import ExecutionAnalyzer

    host = QUADRO_4000 if args.host == "quadro" else GRID_K520
    spec = get_workload(args.app)
    analyzer = ExecutionAnalyzer(host, TEGRA_K1)
    kernel, launch = spec.kernel, spec.launch_config()
    profile = analyzer.profile_on_host(kernel, launch)
    estimate = analyzer.analyze(kernel, launch, host_profile=profile)
    power = analyzer.estimate_power(kernel, launch, host_profile=profile)
    as_ms = analyzer.estimated_time_ms
    print(f"{spec.name} on {host.name} -> Tegra K1")
    print(f"  host execution:     {profile.time_ms:10.3f} ms")
    print(f"  estimate C:         {as_ms(estimate.c_cycles):10.3f} ms")
    print(f"  estimate C':        {as_ms(estimate.c_prime_cycles):10.3f} ms")
    print(f"  estimate C'':       {as_ms(estimate.c_double_prime_cycles):10.3f} ms")
    print(f"  estimated power:    {power.total_w:10.3f} W "
          f"(static {power.static_w:.2f} + dynamic {power.dynamic_w:.2f})")


def _captured_scenario(args: argparse.Namespace):
    """Run one scenario with capture on; returns (job, FarmResult).

    Routing through the request's :class:`FarmJob` projection gives the
    run the farm's config-hash identity and deterministic seed for
    free, so exported artifacts are stamped exactly like the equivalent
    farm job.
    """
    from .exec import ScenarioFarm

    job = _scenario_request(args).to_farm_job()
    result = ScenarioFarm(workers=1, warmup=False, capture_obs=True).map([job])[0]
    return job, result


def _cmd_trace(args: argparse.Namespace) -> None:
    from pathlib import Path

    from .analysis.timeline import render_gantt, timeline_from_trace
    from .obs import run_stamp, span_counts_by_lane, write_metrics, write_trace

    job, result = _captured_scenario(args)
    stamp = run_stamp(job.fn, job.kwargs, seed=job.seed, label=job.label)
    path = write_trace(Path(args.output), [(job.label, result.trace)], stamp)
    value = result.value
    print(f"{job.label}: total simulated time {value['total_ms']:.3f} ms "
          f"(config {stamp['config_hash']}, seed {stamp['seed']})")
    for lane, count in span_counts_by_lane(result.trace).items():
        print(f"  {lane:<28} {count:5d} spans")
    print(f"trace written to {path} (open at ui.perfetto.dev)")
    if args.metrics_out:
        mpath = write_metrics(Path(args.metrics_out), result.metrics, stamp)
        print(f"metrics written to {mpath}")
    if args.gantt:
        print()
        print(render_gantt(timeline_from_trace(result.trace)))
    if args.critpath:
        from .analysis.critpath import attribute, render_critpath

        print()
        print(render_critpath(attribute(result.trace)))


def _cmd_metrics(args: argparse.Namespace) -> None:
    from pathlib import Path

    from .obs import (
        metrics_snapshot,
        render_metrics,
        run_stamp,
        to_prometheus,
        write_metrics,
    )

    job, result = _captured_scenario(args)
    stamp = run_stamp(job.fn, job.kwargs, seed=job.seed, label=job.label)
    snapshot = metrics_snapshot(result.metrics, stamp)
    if args.prom:
        print(to_prometheus(snapshot), end="")
    else:
        print(render_metrics(snapshot))
    if args.output:
        path = write_metrics(Path(args.output), result.metrics, stamp)
        print(f"metrics written to {path} "
              f"(+ {Path(path).with_suffix('.prom').name})")


def _cmd_account(args: argparse.Namespace) -> None:
    from .api import scenario
    from .obs import render_accounts

    result = scenario(_scenario_request(args))
    framework = result.extras["framework"]
    print(f"{result.workload}: {args.vps} VPs on {args.gpus} host GPU(s), "
          f"policy={framework.dispatcher.policy.name}, "
          f"total simulated time {result.total_ms:.3f} ms")
    print()
    print(render_accounts(framework))


DEFAULT_VALIDATION_APPS = ("vectorAdd", "BlackScholes", "mergeSort",
                           "physxParticles", "histogram")


def _cmd_validate(apps: List[str]) -> int:
    from .analysis.validation import validate_workload

    names = apps or list(DEFAULT_VALIDATION_APPS)
    failures = 0
    rows = []
    for name in names:
        spec = get_workload(name)
        if spec.elements > 16384:
            spec = spec.scaled_to(8192, iterations=min(spec.iterations, 2))
        result = validate_workload(spec)
        rows.append((
            name,
            "OK" if result.ok else "FAIL",
            f"{result.max_abs_difference:g}",
            result.detail or "-",
        ))
        if not result.ok:
            failures += 1
    print(render_table(
        ["Workload", "Equivalent", "Max |diff|", "Detail"],
        rows,
        title="Cross-backend functional validation "
              "(emulation vs native vs SigmaVP)",
    ))
    return 1 if failures else 0


def _cmd_policies() -> None:
    from .sched import available_placements, available_policies

    print(render_table(
        ["Policy", "Description"],
        available_policies(),
        title="Scheduling policies (select stage)",
    ))
    print()
    print(render_table(
        ["Placement", "Description"],
        available_placements(),
        title="Placement strategies (place stage)",
    ))
    print()
    print("Use with: repro run/trace/metrics/bench --policy NAME "
          "--placement NAME")


def _cmd_backends() -> None:
    from .backend import backend_status, default_backend_name

    default = default_backend_name()
    rows = []
    for status in backend_status():
        name = status["name"]
        rows.append((
            name + (" *" if name == default else ""),
            "yes" if status["available"] else "no",
            "yes" if status["zero_copy"] else "no",
            status["description"] if status["available"]
            else status["reason"] or status["description"],
        ))
    print(render_table(
        ["Backend", "Available", "Zero-copy", "Description"],
        rows,
        title="Execution backends (* = process default)",
    ))
    print()
    print("Select with: repro --backend NAME <command>, REPRO_BACKEND=NAME, "
          "or backend= in SchedulerConfig")


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from .serve import ServeDaemon

    kwargs = {}
    if args.max_depth is not None:
        kwargs["max_depth"] = args.max_depth
    if args.tenant_quota is not None:
        kwargs["tenant_quota"] = args.tenant_quota
    daemon = ServeDaemon(
        socket_path=args.socket,
        state_dir=args.state_dir,
        policy=args.queue_policy,
        max_workers=args.workers,
        warm=not args.no_warm,
        **kwargs,
    )
    daemon.start()
    print(f"repro serve: listening on {daemon.socket_path}")
    print(f"  state dir:  {daemon.state_dir}")
    print(f"  policy:     {daemon.queue.policy_name}, "
          f"max depth {daemon.queue.max_depth}, "
          f"tenant quota {daemon.queue.tenant_quota}, "
          f"{daemon.max_workers} worker(s)")
    recovery = daemon.recovery
    if recovery["resumed"] or recovery["faulted"]:
        print(f"  recovered:  {recovery['resumed']} job(s) requeued, "
              f"{recovery['faulted']} faulted (mid-run at crash)")
    try:
        while daemon.running:
            time.sleep(0.2)
    except KeyboardInterrupt:
        print("repro serve: shutting down (requeueing running jobs)")
        daemon.stop()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .serve import JobState, ServeClient, ServeError

    request = _scenario_request(args)
    try:
        with ServeClient.connect(args.socket) as client:
            record = client.submit(request)
            print(f"{record['job_id']}: {record['label']} submitted for "
                  f"tenant {record['tenant']} "
                  f"(config {record['config_hash']})")
            if args.detach:
                print(f"query with: repro.api.connect()"
                      f".status({record['job_id']!r})")
                return 0
            record = client.wait(record["job_id"])
    except ServeError as exc:
        print(f"repro submit: error: {exc}", file=sys.stderr)
        return 1
    state = record["state"]
    if state == JobState.DONE.value:
        value = record["value"]
        print(f"total simulated time: {value['total_ms']:.3f} ms")
        print(f"digest: {record['digest']}")
        return 0
    error = record.get("error") or {}
    print(f"{record['job_id']}: {state}"
          + (f" [{error.get('code')}] {error.get('message')}" if error else ""),
          file=sys.stderr)
    return 1


def _cmd_cache(action: str) -> None:
    import json

    from . import cache as repro_cache

    if action == "clear":
        stats = repro_cache.cache_stats()
        repro_cache.clear_disk()
        print(f"cleared {stats['entries']} entries "
              f"({stats['total_bytes']} bytes) from {stats['root']}")
        return
    print(json.dumps(repro_cache.cache_stats(), indent=2))


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.no_disk_cache:
        from . import cache as repro_cache

        repro_cache.set_disk_enabled(False)
    if args.no_vectimes:
        from .gpu import vectimes as _vectimes

        _vectimes.set_vectimes_enabled(False)
    if args.backend is not None:
        from .backend import set_default_backend

        try:
            set_default_backend(args.backend)
        except ValueError as exc:
            parser.error(str(exc))
    if args.command == "list":
        _cmd_list()
    elif args.command == "run":
        _cmd_run(args)
    elif args.command == "table1":
        _cmd_table1(args.workers)
    elif args.command == "fig9":
        _cmd_fig9(args.workers)
    elif args.command == "fig10":
        _cmd_fig10(args.workers)
    elif args.command == "fig11":
        _cmd_fig11(args.apps, args.workers)
    elif args.command == "fig12":
        _cmd_fig12(args.workers)
    elif args.command == "fig13":
        _cmd_fig13(args.workers)
    elif args.command == "bench":
        from pathlib import Path

        from .exec.bench import render_report, run_bench

        report = run_bench(
            workers=args.workers,
            quick=args.quick,
            output=None if args.output == "-" else Path(args.output),
            trace=args.trace,
            overhead_guard=not args.no_overhead_guard,
            cold=args.cold,
            policy=args.policy,
            placement=args.placement,
            compare=args.compare,
            shard=not args.no_shard,
        )
        print(render_report(report))
        if args.output != "-":
            print(f"report written to {args.output}")
        if args.trace:
            from .obs import run_stamp, write_metrics, write_trace

            stamp = run_stamp(
                "repro.exec.bench:run_bench",
                {"suite": report["suite"], "workers": report["workers"]},
                label=f"bench:{report['suite']}",
            )
            artifacts = report["artifacts"]
            tpath = write_trace(
                Path(args.trace_out), artifacts["trace_sources"], stamp
            )
            mpath = write_metrics(
                Path(args.metrics_out), artifacts["metrics"]["totals"], stamp
            )
            print(f"merged trace written to {tpath} "
                  f"({len(artifacts['trace_sources'])} jobs)")
            print(f"merged metrics written to {mpath}")
    elif args.command == "trace":
        _cmd_trace(args)
    elif args.command == "metrics":
        _cmd_metrics(args)
    elif args.command == "account":
        _cmd_account(args)
    elif args.command == "trajectory":
        from pathlib import Path

        from .exec import trajectory as trajectory_mod

        kwargs = {}
        if args.tolerance is not None:
            kwargs["tolerance"] = args.tolerance
        if args.alpha is not None:
            kwargs["alpha"] = args.alpha
        report = trajectory_mod.build(**kwargs)
        print(trajectory_mod.render_trajectory(report))
        if args.output != "-":
            path = trajectory_mod.write_trajectory(Path(args.output), report)
            print(f"trajectory written to {path}")
        if report["regressions"] and not args.no_gate:
            return 1
    elif args.command == "estimate":
        _cmd_estimate(args)
    elif args.command == "report":
        from pathlib import Path

        from .analysis.report_builder import write_report

        path = write_report(Path(args.output), quick=args.quick)
        print(f"report written to {path}")
    elif args.command == "policies":
        _cmd_policies()
    elif args.command == "backends":
        _cmd_backends()
    elif args.command == "serve":
        return _cmd_serve(args)
    elif args.command == "submit":
        return _cmd_submit(args)
    elif args.command == "cache":
        _cmd_cache(args.action)
    elif args.command == "validate":
        return _cmd_validate(args.apps)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
