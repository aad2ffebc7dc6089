"""Seeded input generators for the four workloads.

Each generator turns a workload seed into the exact ``RunRequest`` /
``FarmJob`` list the program receives; nothing else about a run depends
on the seed.  The seed varies order and assignments *within* a fixed
cost envelope, so the figures of two seeds are comparable and a spread
across seeds measures the host, not the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Set, Union

from repro.api import RunRequest
from repro.exec.bench import FULL_SUITE
from repro.exec.farm import FarmJob
from repro.workloads.catalog import ESTIMATION_APPS

Job = Union[RunRequest, FarmJob]

#: The Fig. 12/13 estimation hosts (paper: Quadro 4000 and Grid K520).
ESTIMATION_HOSTS = ("Quadro 4000", "Grid K520")


def estimation_jobs() -> List[FarmJob]:
    """The Fig. 12/13 points: ESTIMATION_APPS x the two hosts."""
    return [
        FarmJob(fn=f"repro.exec.jobs:{fn}", kwargs={"host": host, "app": app},
                label=f"{fn}:{host}:{app}")
        for fn in ("fig12_point", "fig13_point")
        for host in ESTIMATION_HOSTS
        for app in ESTIMATION_APPS
    ]


#: paper-suite's large jobs, longest first.  The farm ships jobs in
#: chunks of three; each large job leads its own chunk and small jobs
#: fill the rest, so the pass makespan is set by the longest job.
PAPER_LARGE = ("fig11:BlackScholes", "fig9b:n8", "matrixMul8", "mergeSort8",
               "fig10a:b64", "fig10a:b16", "table1:sigma-vp")


def paper_suite(seed: int) -> List[FarmJob]:
    """The pinned ``repro bench`` suite plus the estimation points.

    The seed permutes the submission order of the small jobs (the
    estimation points and the three sub-50 ms scenarios) across the
    slots between the large ones.  A free permutation of all jobs would
    let the draw decide which jobs share a farm chunk, and with it the
    makespan and each worker's peak memory.  The digest is order-free.
    """
    jobs = list(FULL_SUITE) + estimation_jobs()
    large = [next(j for j in jobs if j.label == label) for label in PAPER_LARGE]
    small = [j for j in jobs if j.label not in PAPER_LARGE]
    random.Random(seed).shuffle(small)
    order: List[FarmJob] = []
    for job in large:
        order += [job] + small[:2]
        small = small[2:]
    return order + small


def _jitter(rng: random.Random, base: int, pct: int = 3) -> int:
    """``base`` moved by up to ``pct`` percent, in steps of 32 elements.

    New element counts give new config hashes (so new data and digests)
    while the cost stays within a few percent of the base shape.
    """
    step = max(1, base * pct // 100 // 32)
    return base + 32 * rng.randint(-step, step)


def event_bound(seed: int) -> List[Job]:
    """Many-VP, two-GPU, tiny-data timing-only scenarios (12 per pass).

    vectorAdd over 48 VPs and BlackScholes over 24 VPs on two GPUs at
    1-4 iterations, with two non-default policies, a non-default
    placement and per-gpu shards in fixed slots, plus fig10a b64/b16
    over 64 VPs.  The seed draws each scenario's element count
    (1024 +-3%, so new inputs and digests) and the order; the shapes
    stay fixed so a pass costs the same for every seed.
    """
    rng = random.Random(seed)
    variants = {
        ("vectorAdd", 2): {"policy": "sjf"},
        ("vectorAdd", 4): {"shards": "per-gpu"},
        ("BlackScholes", 3): {"policy": "priority-deadline"},
    }
    jobs: List[Job] = []
    for app, vps in (("vectorAdd", 48), ("BlackScholes", 24)):
        for iters in (1, 2, 3, 4):
            jobs.append(RunRequest(app=app, n_vps=vps, n_host_gpus=2,
                                   scale_elements=_jitter(rng, 1024),
                                   scale_iterations=iters,
                                   **variants.get((app, iters), {})))
    jobs.append(RunRequest(app="vectorAdd", n_vps=32, n_host_gpus=2,
                           scale_elements=_jitter(rng, 1024), scale_iterations=2,
                           placement="least-backlog"))
    jobs.append(RunRequest(app="vectorAdd", n_vps=48, n_host_gpus=2,
                           scale_elements=_jitter(rng, 1024), scale_iterations=2,
                           shards="per-gpu"))
    jobs.append(FarmJob(fn="repro.exec.jobs:fig10a_point", label="fig10a:b64",
                        kwargs={"batch": 64, "n_programs": 64}))
    jobs.append(FarmJob(fn="repro.exec.jobs:fig10a_point", label="fig10a:b16",
                        kwargs={"batch": 16, "n_programs": 64}))
    rng.shuffle(jobs)
    return jobs


def functional(seed: int) -> List[Job]:
    """Numerically executed scenarios, scaled to stay within ~200 MB.

    Includes the batched-signature kernels (vectorAdd, BlackScholes,
    fig10a functional), matrixMul, and the feedback workload
    ``physxParticles`` whose kernel rewrites its own input every
    iteration.  The seed draws element counts (+-3%) and the order.
    """
    rng = random.Random(seed)
    jobs: List[Job] = [
        RunRequest(app="vectorAdd", n_vps=8, functional=True,
                   scale_elements=_jitter(rng, 1 << 16), scale_iterations=2),
        RunRequest(app="vectorAdd", n_vps=4, functional=True,
                   scale_elements=_jitter(rng, 1 << 17), scale_iterations=2),
        RunRequest(app="BlackScholes", n_vps=8, functional=True,
                   scale_elements=_jitter(rng, 1 << 16), scale_iterations=2),
        RunRequest(app="BlackScholes", n_vps=4, functional=True,
                   scale_elements=_jitter(rng, 1 << 15), scale_iterations=4),
        RunRequest(app="matrixMul", n_vps=4, functional=True,
                   scale_elements=_jitter(rng, 16384), scale_iterations=2),
        RunRequest(app="physxParticles", n_vps=4, functional=True,
                   scale_elements=_jitter(rng, 1 << 16), scale_iterations=4),
        RunRequest(app="physxParticles", n_vps=2, functional=True,
                   scale_elements=_jitter(rng, 1 << 15), scale_iterations=8),
        FarmJob(fn="repro.exec.jobs:fig10a_point", label="fig10a:b16:functional",
                kwargs={"batch": 16, "n_programs": 32, "functional": True}),
    ]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# serve-mixed: an open-loop request stream
# ---------------------------------------------------------------------------

#: Offered rate (requests/s): about half the daemon's closed-loop
#: capacity (16-18 jobs/s for these shapes on a 2-core host) with its
#: default single worker.
SERVE_RATE = 8.0
#: Requests per stream never drop below this, so p95 has >= 10 samples
#: beyond it.
SERVE_MIN_REQUESTS = 210
#: Share of requests that repeat an earlier one (whole-job cache hits).
SERVE_REPEAT = 0.25
SERVE_TENANTS = ("tenant-a", "tenant-b", "tenant-c")
SERVE_QOS = (0, 1, 2)
#: Small scenarios: (app, n_vps, elements, iterations).
SERVE_SHAPES = (
    ("vectorAdd", 2, 2048, 1),
    ("vectorAdd", 4, 1024, 1),
    ("BlackScholes", 2, 1024, 1),
    ("mergeSort", 2, 2048, 1),
    ("scalarProd", 2, 2048, 1),
    ("reduction", 2, 2048, 1),
    ("matrixMul", 2, 1024, 1),
    ("transpose", 2, 2048, 1),
)


@dataclass(frozen=True)
class Arrival:
    """One request of the stream and when it is due (s after start)."""

    due_s: float
    request: RunRequest
    repeat: bool


def serve_stream(seed: int, seconds: float) -> List[Arrival]:
    """The seeded open-loop stream for ``seconds`` of offered load.

    Inter-arrival gaps are the mean gap times U(0.5, 1.5): random, but
    without the long bursts of an exponential draw that would make the
    p95 a property of the seed.  A ``SERVE_REPEAT`` share re-sends an
    earlier request verbatim (same config hash, served from the whole-job
    disk cache); the rest are scenarios not requested before, drawn from
    ``SERVE_SHAPES`` with element counts +-50%.
    """
    rng = random.Random(seed)
    count = max(SERVE_MIN_REQUESTS, int(round(SERVE_RATE * seconds)))
    gap = 1.0 / SERVE_RATE
    arrivals: List[Arrival] = []
    fresh: List[RunRequest] = []
    seen: Set[str] = set()
    due = 0.0
    for _ in range(count):
        repeat = bool(fresh) and rng.random() < SERVE_REPEAT
        if repeat:
            request = rng.choice(fresh)
        else:
            while True:  # fresh means a config hash not seen before
                app, vps, elements, iters = rng.choice(SERVE_SHAPES)
                request = RunRequest(
                    app=app, n_vps=vps, scale_elements=_jitter(rng, elements, pct=50),
                    scale_iterations=iters, tenant=rng.choice(SERVE_TENANTS),
                    qos=rng.choice(SERVE_QOS),
                )
                if request.config_hash not in seen:
                    break
            seen.add(request.config_hash)
            fresh.append(request)
        arrivals.append(Arrival(due_s=due, request=request, repeat=repeat))
        due += gap * rng.uniform(0.5, 1.5)
    return arrivals
