"""Tests of the benchmark's own arithmetic and generators.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

import gen  # noqa: E402
import stats  # noqa: E402
import servemix  # noqa: E402
from servemix import LATENCY_LIMIT_S, Sample, tally  # noqa: E402
from spans import Recorder  # noqa: E402

# -- percentile rule ----------------------------------------------------------


def test_p95_refused_with_fewer_than_ten_samples_beyond():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(199)), 95)  # 9 samples beyond
    assert stats.percentile(list(range(200)), 95) == pytest.approx(189.05)


def test_p95_of_ten_slow_jobs_is_refused():
    # Ten jobs: the "p95" would only be the slowest job.
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([1, 2, 3, 4, 5, 6, 7, 8, 9, 2700], 95)


def test_percentile_interpolates_like_numpy_linear():
    samples = [float(x) for x in range(1000)]
    assert stats.percentile(samples, 95) == pytest.approx(949.05)
    assert stats.median(samples) == statistics.median(samples)


# -- self time ------------------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        (0, "outer", 0.0, 10.0, None, "r1"),
        (1, "mid", 2.0, 5.0, 0, "r1"),
        (2, "inner", 3.0, 4.0, 1, "r1"),
        (3, "mid", 6.0, 8.0, 0, "r1"),
    ]
    selfs = stats.self_times(spans)
    assert selfs == pytest.approx({0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0})
    by_name = stats.self_time_by_name(spans)
    assert by_name["mid"] == (2, pytest.approx(4.0))
    # Self times partition the outermost span exactly.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        (0, "parent", 0.0, 10.0, None, None),
        (1, "a", 1.0, 6.0, 0, None),
        (2, "b", 4.0, 8.0, 0, None),  # overlaps a on [4, 6]
        (3, "c", 9.0, 12.0, 0, None),  # sticks out past the parent
    ]
    assert stats.self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_recorder_spans_nest_and_restore():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    import spans as spans_mod

    points = {"t.outer": [(__name__, "Layer", "outer")],
              "t.inner": [(__name__, "Layer", "inner")]}
    saved = spans_mod.SPAN_POINTS, spans_mod.COUNT_POINTS, spans_mod.BYTE_POINTS
    spans_mod.SPAN_POINTS, spans_mod.COUNT_POINTS, spans_mod.BYTE_POINTS = points, {}, {}
    globals()["Layer"] = Layer
    original = Layer.__dict__["outer"]
    try:
        with Recorder() as recorder:
            recorder.request = "req-7"
            assert Layer().outer() == 2
        assert Layer.__dict__["outer"] is original
        (inner,) = [s for s in recorder.spans if s[1] == "t.inner"]
        (outer,) = [s for s in recorder.spans if s[1] == "t.outer"]
        assert inner[4] == outer[0] and outer[4] is None
        assert inner[5] == outer[5] == "req-7"
    finally:
        spans_mod.SPAN_POINTS, spans_mod.COUNT_POINTS, spans_mod.BYTE_POINTS = saved
        del globals()["Layer"]


# -- open-loop latency ------------------------------------------------------------


def test_open_loop_latency_runs_from_due_time():
    # Requests due every 100 ms; the first reply stalls 1 s and the two
    # queued behind it come back right after.  Timed from the due time,
    # the stall shows on all three.
    due = [0.0, 0.1, 0.2]
    sent = [0.0, 0.6, 0.9]  # the generator itself ran late
    held = [1.0, 1.01, 1.02]
    latencies = stats.open_loop_latencies(due, held)
    assert latencies == pytest.approx([1.0, 0.91, 0.82])
    # Timing from when a request was actually sent would hide the stall
    # from the requests queued behind it.
    from_sent = [h - s for s, h in zip(sent, held)]
    assert from_sent == pytest.approx([1.0, 0.41, 0.12])
    assert all(d >= s for d, s in zip(latencies, from_sent))
    assert stats.lateness(due, sent) == pytest.approx([0.0, 0.5, 0.7])


class _OneWorkerDaemon:
    """A fake client of a one-worker daemon that ran job 2 before job 1."""

    def __init__(self, clock):
        self.clock = clock
        self.order = ["job-2", "job-1", "job-3"]  # the scheduler's pick order
        self.done = []

    def _state(self, job_id):
        if job_id in self.done:
            return "done"
        running = next(j for j in self.order if j not in self.done)
        return "running" if job_id == running else "queued"

    def status(self, job_id):
        self.clock.tick()
        return {"job_id": job_id, "state": self._state(job_id)}

    def result(self, job_id):
        assert job_id in self.done
        return {"job_id": job_id, "state": "done"}

    def wait(self, job_id, timeout=None):
        assert self._state(job_id) == "running", "waited on a job that cannot finish next"
        self.clock.tick(1.0)  # the job runs for a second
        self.done.append(job_id)
        if job_id == "job-1":
            self.done.append("job-3")  # finishes before the client looks again
        return {"job_id": job_id, "state": "done"}


class _Clock:
    def __init__(self):
        self.now = 100.0

    def tick(self, seconds=0.001):
        self.now += seconds

    def __call__(self):
        return self.now


def test_receiver_stamps_jobs_in_completion_order(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(servemix.time, "time", clock)
    daemon = _OneWorkerDaemon(clock)
    samples = {job: _sample(100.0, 0.0) for job in ("job-1", "job-2", "job-3")}
    pending = servemix.queue.Queue()
    for job, sample in samples.items():
        sample.held, sample.record = 0.0, None
        pending.put((sample, job))
    pending.put(None)
    servemix.receive(daemon, pending)
    held = {job: s.held for job, s in samples.items()}
    # Job 2 ran first and is stamped when it finished, one run after the
    # start, not after job 1 (submitted before it) came back a run later.
    assert held["job-2"] == pytest.approx(101.0, abs=0.01)
    assert held["job-1"] == pytest.approx(102.0, abs=0.01)
    assert held["job-1"] < held["job-3"] < 102.01
    assert all(s.record["state"] == "done" for s in samples.values())


# -- failure accounting ------------------------------------------------------------


def _sample(due, held, state="done", error=None):
    arrival = gen.Arrival(due_s=due, request=None, repeat=False)
    record = None if error else {"state": state, "job_id": f"job-{due}"}
    return Sample(arrival, due, sent=due, acked=due, held=held, record=record, error=error)


def test_failed_pct_denominator_includes_rejected_requests():
    samples = [
        _sample(0.0, 0.05),
        _sample(0.1, 0.15),
        _sample(0.2, 0.2, error="queue-full"),  # refused at submit
        _sample(0.3, 0.3 + LATENCY_LIMIT_S + 1),  # over the latency limit
        _sample(0.4, 0.45, state="failed"),
    ]
    notes = []
    done, failed = tally(samples, notes)
    assert [s.due for s in done] == [0.0, 0.1]
    assert failed == 3
    assert stats.failed_pct(len(samples), failed) == pytest.approx(60.0)


def test_failed_pct_needs_attempts():
    with pytest.raises(ValueError):
        stats.failed_pct(0, 0)


# -- seeded generators --------------------------------------------------------------


@pytest.mark.parametrize("make", [gen.paper_suite, gen.event_bound, gen.functional])
def test_batch_generators_are_deterministic(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_paper_suite_seed_only_permutes_order():
    base = {job.key for job in gen.paper_suite(0)}
    for seed in range(5):
        jobs = gen.paper_suite(seed)
        assert len(jobs) == len(base) and {job.key for job in jobs} == base
        # The large jobs keep their longest-first slots.
        assert [j.label for j in jobs[0:21:3]] == list(gen.PAPER_LARGE)


def test_event_bound_has_required_shapes():
    for seed in range(5):
        jobs = gen.event_bound(seed)
        requests = [j for j in jobs if hasattr(j, "policy")]
        assert any(r.policy is not None for r in requests)
        assert any(r.shards == "per-gpu" for r in requests)
        assert any(getattr(j, "label", "") == "fig10a:b64" for j in jobs)
        assert all(r.scale_elements and 990 <= r.scale_elements <= 1060 for r in requests)


def test_functional_includes_feedback_and_batched_kernels():
    apps = {getattr(j, "app", None) for j in gen.functional(3)}
    assert {"vectorAdd", "BlackScholes", "matrixMul", "physxParticles"} <= apps
    assert all(getattr(j, "functional", True) for j in gen.functional(3))


def test_serve_stream_is_deterministic_and_mixed():
    a, b = gen.serve_stream(11, 20.0), gen.serve_stream(11, 20.0)
    assert a == b and a != gen.serve_stream(12, 20.0)
    assert len(a) >= gen.SERVE_MIN_REQUESTS
    assert len({x.request.tenant for x in a}) >= 2
    assert len({x.request.qos for x in a}) >= 2
    assert all(y.due_s > x.due_s for x, y in zip(a, a[1:]))
    repeats = [x for x in a if x.repeat]
    assert 0.15 < len(repeats) / len(a) < 0.35
    fresh = [x.request.config_hash for x in a if not x.repeat]
    assert len(fresh) == len(set(fresh))
    earlier = set()
    for x in a:
        assert (x.request.config_hash in earlier) == x.repeat
        earlier.add(x.request.config_hash)


# -- best pass ----------------------------------------------------------------------


def test_best_pass_rebuilds_a_serial_pass_from_each_jobs_best_time():
    from batch import Pass, best_pass

    def serial(per_job):
        return Pass(0.0, 0.0, [], "", len(per_job), per_job.count(None), per_job=per_job)

    passes = [
        serial([(1.0, 0.9), (2.0, 1.8), (0.5, 0.5)]),
        serial([(1.5, 1.4), (1.0, 0.95), None]),  # third job failed here
        serial([(1.1, 0.8), (3.0, 2.9), (0.7, 0.6)]),
    ]
    wall, cpu = best_pass(passes)
    assert wall == pytest.approx(1.0 + 1.0 + 0.5)
    assert cpu == pytest.approx(0.8 + 0.95 + 0.5)


def test_best_pass_of_farm_passes_is_the_fastest_pass():
    from batch import Pass, best_pass

    passes = [Pass(3.0, 5.0, [], "", 1, 0), Pass(2.5, 5.5, [], "", 1, 0)]
    assert best_pass(passes) == (2.5, 5.0)

