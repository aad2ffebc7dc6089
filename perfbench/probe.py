"""Set-up probe: a fresh process brought to the point of its first request.

``python3 probe.py <workload> <seed> [rss]`` imports the package,
pre-warms the compiler over the workload catalog, builds the workload's
inputs and, for paper-suite, forks and warms the farm's worker pool;
then prints ``ready``.  The parent times spawn -> ``ready``.

With ``rss`` the probe then runs one pass of the job list serially and
prints ``rss <MB>``, its peak resident set: the memory one process needs
for the workload's largest job, free of whatever garbage a long-lived
process or farm worker happens to still hold from earlier jobs.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(workload: str, seed: int, rss: bool) -> None:
    from repro import cache as repro_cache
    from repro.exec.farm import ScenarioFarm, warm_worker

    import batch
    import gen
    import proc

    repro_cache.set_job_results_enabled(False)
    warm_worker()
    jobs = {"paper-suite": gen.paper_suite, "event-bound": gen.event_bound,
            "functional": gen.functional}[workload](seed)
    if workload == "paper-suite":
        with ScenarioFarm(workers=batch.FARM_WORKERS, persistent=True) as farm:
            # Two trivial jobs fork and warm the whole pool.
            farm.map(gen.estimation_jobs()[:batch.FARM_WORKERS])
            print("ready", len(jobs), flush=True)
    else:
        print("ready", len(jobs), flush=True)
    if rss:
        # Collector off inside each job and run between jobs: the peak is
        # the largest job's own, whatever the order or when a collection
        # would otherwise have run.
        runner = batch.SerialRunner(jobs)
        gc.disable()
        for job in runner.jobs:
            gc.collect()
            runner.one(job)
        print("rss", proc.hwm_mb(), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3:] == ["rss"])
