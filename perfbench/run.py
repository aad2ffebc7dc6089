"""The repo benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload paper-suite --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout (``src/`` must sit beside this
directory).  ``--trace 0`` measures the end-to-end metrics with every
layer untouched; ``--trace 1`` is the separate traced run that wraps
each layer's entry points and reports the per-layer metrics (and
writes the spans plus a layer table under ``.perfbench_out/``).  Every
simulated result is checked: batch digests against the pins in
``pins.json`` (default seed) or the run's first pass, daemon digests
against direct ``repro.api.run`` calls.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("paper-suite", "event-bound", "functional", "serve-mixed")

#: Fresh processes started per batch run, before and after its timed
#: passes: contention on a shared host comes in bursts, and samples
#: taken at both ends of the run are less likely to share one.
#: setup_s is their median; the last also measures peak_rss_mb over
#: one serial pass.
SETUP_SAMPLES = (4, 3)


def _isolate(run_dir: Path) -> Dict[str, str]:
    """Private cache/temp dirs for this run; no inherited repro settings."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    (run_dir / "tmp").mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    return dict(os.environ, PYTHONPATH=str(SRC))


def _probe(workload: str, seed: int, env: Dict[str, str], n: int,
           rss: bool = False) -> Tuple[List[float], float]:
    """Set-up times of ``n`` fresh processes; the last one's peak RSS
    over one pass if ``rss``, else 0."""
    samples = []
    peak = 0.0
    for i in range(n):
        last = rss and i == n - 1
        # An empty cache of its own: every sample starts from the same
        # state, not from what earlier samples or the timed passes wrote.
        cache = tempfile.mkdtemp(prefix="probe-cache-", dir=env["TMPDIR"])
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
            + (["rss"] if last else []),
            cwd=ROOT, env=dict(env, REPRO_CACHE_DIR=cache),
            stdout=subprocess.PIPE, text=True,
        )
        assert child.stdout is not None
        line = child.stdout.readline()
        samples.append(time.perf_counter() - started)
        rest = child.stdout.read().split()
        if child.wait() != 0 or not line.startswith("ready"):
            raise RuntimeError(f"set-up probe failed: {line!r}")
        if last:
            peak = float(rest[rest.index("rss") + 1])
    return samples, peak


def _write_trace(out_dir: Path, table: Dict[str, Any], metrics: Dict[str, float]) -> None:
    """Chrome-trace JSON of the spans plus the per-layer table."""
    out_dir.mkdir(parents=True, exist_ok=True)
    spans = table.pop("spans", [])
    t0 = min((s[2] for s in spans), default=0.0)
    events = [
        {"name": name, "ph": "X", "pid": 1, "tid": 1, "ts": 1e6 * (start - t0),
         "dur": 1e6 * (end - start), "args": {"id": sid, "parent": parent, "request": req}}
        for sid, name, start, end, parent, req in spans
    ]
    (out_dir / "trace.json").write_text(json.dumps({"traceEvents": events}))
    lines = [f"{'layer metric':<36} {'value':>14}"]
    lines += [f"{name:<36} {value:>14.6g}" for name, value in metrics.items()]
    window = table.get("traced_window_s")
    lines.append("")
    lines.append(f"self time share of the traced window ({window:.3f} s):")
    for name, share in sorted(table.get("shares", {}).items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<32} {100 * share:6.1f}%")
    (out_dir / "layers.txt").write_text("\n".join(lines) + "\n")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    run_dir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    env = _isolate(run_dir)
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import repro

        if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
            print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        return _run(args, run_dir, env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass


def _run(args: argparse.Namespace, run_dir: Path, env: Dict[str, str]) -> int:
    import layers
    from stats import failed_pct, median

    pins = json.loads((HERE / "pins.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace = bool(args.trace)
    if args.workload == "serve-mixed":
        import servemix

        outcome = servemix.run(ROOT, run_dir, args.seed, args.seconds, trace)
    else:
        import batch

        before, after = SETUP_SAMPLES
        setup = [] if trace else _probe(args.workload, args.seed, env, before)[0]
        outcome = batch.run(args.workload, args.seed, args.seconds, trace, pins,
                            pins["default_seed"])
        if not trace:
            more, outcome.metrics["peak_rss_mb"] = _probe(
                args.workload, args.seed, env, after, rss=True)
            setup += more
            outcome.metrics["setup_s"] = median(setup)
            outcome.table["setup_samples_s"] = setup

    # BENCHMARK.json names the metrics each kind of run reports.
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        metrics = layers.complete(outcome.metrics, units)
        out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}"
        _write_trace(out_dir, outcome.table, metrics)
        print(f"perfbench: trace and layer table in {out_dir.relative_to(ROOT)}")
    else:
        metrics = {name: outcome.metrics[name] for name in units}
    outcome.table.pop("spans", None)
    outcome.table.pop("shares", None)

    correct = outcome.failed == 0
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for key, value in outcome.table.items():
        print(f"  {key}: {value}")
    for note in outcome.notes:
        print(f"  CHECK FAILED: {note}")
    print(f"  failed_pct: {failed_pct(outcome.attempted, outcome.failed):.3f} % "
          f"({outcome.failed} of {outcome.attempted})")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
