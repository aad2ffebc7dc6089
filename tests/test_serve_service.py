"""Service lifecycle: submit/status/result, cancel, backpressure, replay.

These tests drive a real :class:`~repro.serve.server.ServeDaemon` over
its Unix socket (state dirs live under short ``/tmp`` paths — AF_UNIX
caps socket paths at ~108 bytes, so pytest's deep ``tmp_path`` roots are
unusable).  Determinism notes:

* backpressure/quota tests pin the single worker slot with a slow job
  first, so queued depth is exact when the over-limit submit arrives;
* crash recovery is tested by writing journal bytes directly and
  constructing a fresh daemon over them — the replay fold is pure, so
  no real ``kill -9`` is needed to exercise it.
"""

import shutil
import tempfile
import time
from pathlib import Path

import pytest

from repro.api import RunRequest, run
from repro.serve import ServeDaemon, ServeClient, ServeError
from repro.serve.journal import Journal, replay_journal
from repro.serve.protocol import JobState
from repro.serve.queue import (
    QueueFullError,
    QuotaExceededError,
    ServiceJob,
    ServiceQueue,
)

#: Fast enough to finish within a wait() in every test (<0.2 s warm).
SMALL = RunRequest(app="vectorAdd", n_vps=2, scale_elements=256,
                   scale_iterations=2)

#: Slow enough (~3 s) that a poll loop reliably observes it RUNNING.
SLOW = RunRequest(app="vectorAdd", n_vps=4, scale_iterations=80)


@pytest.fixture()
def state_dir():
    # Short /tmp root: the daemon's socket lives inside it.
    path = Path(tempfile.mkdtemp(prefix="reprosrv-", dir="/tmp"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _daemon(state_dir, **kw):
    kw.setdefault("warm", False)
    kw.setdefault("fsync_journal", False)
    return ServeDaemon(
        socket_path=state_dir / "serve.sock", state_dir=state_dir, **kw
    )


def _wait_for(predicate, timeout=20.0, interval=0.01):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached within timeout")


def _connect(daemon):
    _wait_for(lambda: daemon.socket_path.exists(), timeout=10.0)
    return ServeClient.connect(daemon.socket_path)


# -- happy path ------------------------------------------------------------------


def test_submit_status_result_roundtrip(state_dir):
    with _daemon(state_dir) as daemon, _connect(daemon) as client:
        accepted = client.submit(SMALL)
        job_id = accepted["job_id"]
        assert accepted["state"] == "queued"
        assert accepted["config_hash"] == SMALL.config_hash
        final = client.wait(job_id, timeout=60.0)
        assert final["state"] == "done"
        assert final["value"]["total_ms"] > 0
        assert client.status(job_id)["state"] == "done"
        assert client.result(job_id)["digest"] == final["digest"]


def test_daemon_digest_is_bit_identical_to_local_run(state_dir):
    """The acceptance property: service and direct paths share one
    execution (``repro.api.run``), so digests match exactly."""
    local = run(SMALL)
    with _daemon(state_dir) as daemon, _connect(daemon) as client:
        job_id = client.submit(SMALL)["job_id"]
        final = client.wait(job_id, timeout=60.0)
    assert final["digest"] == local.digest
    assert final["value"] == local.value


def test_result_before_finish_is_structured_error(state_dir):
    with _daemon(state_dir, max_workers=1) as daemon, _connect(daemon) as client:
        running_id = client.submit(SLOW)["job_id"]
        _wait_for(lambda: client.status(running_id)["state"] == "running")
        with pytest.raises(ServeError) as excinfo:
            client.result(running_id)
        assert excinfo.value.code == "not-finished"
        client.cancel(running_id)
        client.wait(running_id, timeout=30.0)


def test_ping_and_stats_report_shape(state_dir):
    with _daemon(state_dir) as daemon, _connect(daemon) as client:
        pong = client.ping()
        assert pong["policy"] == "fair-share"
        assert pong["recovery"]["replayed"] == 0
        job_id = client.submit(SMALL)["job_id"]
        client.wait(job_id, timeout=60.0)
        stats = client.stats()
        assert stats["states"].get("done") == 1
        assert stats["tenants"] == {"default": 1}
        assert stats["journal_records"] >= 2  # submit + done at least


# -- cancellation ----------------------------------------------------------------


def test_cancel_mid_queue(state_dir):
    with _daemon(state_dir, max_workers=1) as daemon, _connect(daemon) as client:
        running_id = client.submit(SLOW)["job_id"]
        _wait_for(lambda: client.status(running_id)["state"] == "running")
        queued_id = client.submit(SMALL)["job_id"]
        assert client.status(queued_id)["state"] == "queued"
        cancelled = client.cancel(queued_id)
        assert cancelled["event"] == "cancelled"
        assert cancelled["state"] == "cancelled"
        # Cancelling a terminal job is rejected, structurally.
        with pytest.raises(ServeError) as excinfo:
            client.cancel(queued_id)
        assert excinfo.value.code == "already-finished"
        client.cancel(running_id)
        client.wait(running_id, timeout=30.0)


def test_cancel_mid_run_terminates_worker(state_dir):
    with _daemon(state_dir, max_workers=1) as daemon, _connect(daemon) as client:
        job_id = client.submit(SLOW)["job_id"]
        _wait_for(lambda: client.status(job_id)["state"] == "running")
        pid = client.status(job_id)["worker_pid"]
        assert pid is not None
        acked = client.cancel(job_id)
        assert acked["event"] == "cancelling"
        final = client.wait(job_id, timeout=30.0)
        assert final["state"] == "cancelled"
        # The forked worker is gone (cancellation boundary = process).
        _wait_for(lambda: not Path(f"/proc/{pid}").exists(), timeout=10.0)


# -- admission control -----------------------------------------------------------


def test_backpressure_rejects_at_max_depth(state_dir):
    with _daemon(state_dir, max_workers=1, max_depth=2) as daemon:
        with _connect(daemon) as client:
            running_id = client.submit(SLOW)["job_id"]
            _wait_for(lambda: client.status(running_id)["state"] == "running")
            queued = [client.submit(SMALL)["job_id"] for _ in range(2)]
            with pytest.raises(ServeError) as excinfo:
                client.submit(SMALL)
            assert excinfo.value.code == "queue-full"
            # The rejected submission left no trace: no new job id.
            assert {j["job_id"] for j in client.jobs()} == {
                running_id, *queued
            }
            client.cancel(running_id)
            for job_id in queued:
                client.wait(job_id, timeout=60.0)


def test_tenant_quota_rejects_but_other_tenants_proceed(state_dir):
    with _daemon(
        state_dir, max_workers=1, tenant_quota=2
    ) as daemon, _connect(daemon) as client:
        running_id = client.submit(SLOW.with_overrides(tenant="acme"))["job_id"]
        _wait_for(lambda: client.status(running_id)["state"] == "running")
        client.submit(SMALL.with_overrides(tenant="acme"))
        with pytest.raises(ServeError) as excinfo:
            client.submit(SMALL.with_overrides(tenant="acme"))
        assert excinfo.value.code == "quota-exceeded"
        other = client.submit(SMALL.with_overrides(tenant="zenith"))
        assert other["state"] == "queued"
        client.cancel(running_id)


# -- protocol errors -------------------------------------------------------------


def test_malformed_and_unknown_frames_get_structured_errors(state_dir):
    with _daemon(state_dir) as daemon, _connect(daemon) as client:
        client._send({"op": "frobnicate"})
        with pytest.raises(ServeError) as excinfo:
            client._raise_on_error(client._recv_frame(timeout=10.0))
        assert excinfo.value.code == "unknown-op"

        client._sock.sendall(b"this is not json\n")
        with pytest.raises(ServeError) as excinfo:
            client._raise_on_error(client._recv_frame(timeout=10.0))
        assert excinfo.value.code == "bad-frame"

        with pytest.raises(ServeError) as excinfo:
            client._raise_on_error(
                client.request(
                    "submit", timeout=10.0,
                    request={"app": "vectorAdd", "schema": 99},
                )
            )
        assert excinfo.value.code == "bad-schema"

        with pytest.raises(ServeError) as excinfo:
            client._raise_on_error(
                client.request(
                    "submit", timeout=10.0,
                    request={"app": "vectorAdd", "colour": "red"},
                )
            )
        assert excinfo.value.code == "bad-field"

        with pytest.raises(ServeError) as excinfo:
            client.status("job-999999")
        assert excinfo.value.code == "unknown-job"


def test_submit_with_unregistered_backend_is_rejected_unjournaled(state_dir):
    with _daemon(state_dir) as daemon, _connect(daemon) as client:
        frame = client.request(
            "submit", timeout=10.0,
            request={"app": "vectorAdd", "backend": "bogus"},
        )
        assert frame["ok"] is False
        assert frame["error"]["code"] == "bad-value"
        assert "numpy" in frame["error"]["message"]
        assert client.stats()["journal_records"] == 0
        assert client.jobs() == []
    journal = state_dir / "journal.jsonl"
    assert not journal.exists() or journal.read_text() == ""


# -- queue unit behavior ---------------------------------------------------------


def _service_job(number, tenant="default", qos=None, request=SMALL):
    return ServiceJob(
        job_id=f"job-{number:06d}",
        request=request.with_overrides(tenant=tenant, qos=qos),
        tenant=tenant,
        qos=qos,
    )


def test_queue_admission_raises_before_any_state_change():
    queue = ServiceQueue(max_depth=1, tenant_quota=0)
    queue.submit(_service_job(1))
    with pytest.raises(QueueFullError):
        queue.submit(_service_job(2))
    assert queue.depth() == 1

    quota_queue = ServiceQueue(max_depth=8, tenant_quota=1)
    quota_queue.submit(_service_job(3, tenant="acme"))
    with pytest.raises(QuotaExceededError):
        quota_queue.submit(_service_job(4, tenant="acme"))
    quota_queue.submit(_service_job(5, tenant="zenith"))
    assert quota_queue.tenant_load("acme") == 1
    assert quota_queue.tenant_load("zenith") == 1


def test_fair_share_interleaves_tenants():
    queue = ServiceQueue(policy="fair-share")
    for number in range(4):
        queue.submit(_service_job(number, tenant="acme"))
    queue.submit(_service_job(10, tenant="zenith"))
    first, second = queue.next_job(), queue.next_job()
    # DRR across tenants: the lone zenith job is not starved behind
    # acme's four even though every acme seq is older.
    assert {first.tenant, second.tenant} == {"acme", "zenith"}


def test_priority_deadline_prefers_higher_qos_tier():
    queue = ServiceQueue(policy="priority-deadline")
    queue.submit(_service_job(0, tenant="batch", qos=2))
    queue.submit(_service_job(1, tenant="interactive", qos=0))
    picked = queue.next_job()
    assert picked.tenant == "interactive"


# -- crash recovery --------------------------------------------------------------


def _journal_submit(journal, job_id, request, seq):
    journal.append({
        "type": "submit", "job_id": job_id, "request": request.to_dict(),
        "tenant": request.tenant, "qos": request.qos, "seq": seq,
    })


def test_replay_promotes_mid_run_job_to_faulted(state_dir):
    with Journal(state_dir / "journal.jsonl", fsync=False) as journal:
        _journal_submit(journal, "job-000001", SMALL, 0)
        journal.append({"type": "start", "job_id": "job-000001"})
        _journal_submit(journal, "job-000002", SMALL, 1)
    daemon = _daemon(state_dir)
    assert daemon.recovery["faulted"] == 1
    assert daemon.recovery["resumed"] == 1
    crashed = daemon._jobs["job-000001"]
    assert crashed.state is JobState.FAULTED
    assert crashed.error["code"] == "daemon-crash"
    survivor = daemon._jobs["job-000002"]
    assert survivor.state is JobState.QUEUED
    assert survivor.requeues == 0
    # The promotion was made durable: a second replay folds to the same
    # answer without re-deciding (no new fault records pile up).
    daemon2 = _daemon(state_dir)
    assert daemon2.recovery["faulted"] == 0
    assert daemon2._jobs["job-000001"].state is JobState.FAULTED
    records = (state_dir / "journal.jsonl").read_text().splitlines()
    assert sum(1 for r in records if '"type":"fault"' in r) == 1


def test_replay_faults_a_journaled_request_that_no_longer_parses(state_dir):
    # A backend name an older build accepted and this one has removed.
    stale = dict(SMALL.to_dict(), backend="retired-backend")
    with Journal(state_dir / "journal.jsonl", fsync=False) as journal:
        journal.append({
            "type": "submit", "job_id": "job-000001", "request": stale,
            "tenant": "default", "qos": None, "seq": 0,
        })
        journal.append({"type": "start", "job_id": "job-000001"})
    with _daemon(state_dir) as daemon, _connect(daemon) as client:
        assert daemon.recovery["resumed"] == 0
        assert daemon.recovery["faulted"] == 0  # nothing new journaled
        status = client.status("job-000001")
        assert status["state"] == "faulted"
        assert status["error"]["code"] == "bad-value"
        assert "retired-backend" in status["error"]["message"]
        assert status["request"] is None and status["config_hash"] is None
        assert client.submit(SMALL)["job_id"] == "job-000002"


def test_replay_ignores_torn_tail(state_dir):
    path = state_dir / "journal.jsonl"
    with Journal(path, fsync=False) as journal:
        _journal_submit(journal, "job-000001", SMALL, 0)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"type":"start","job_id":"job-0')  # crash mid-append
    records, stats = replay_journal(path)
    assert stats["torn"] == 1
    assert records[0]["state"] is JobState.QUEUED  # the torn start never took


def test_recovered_queued_job_runs_to_completion(state_dir):
    with Journal(state_dir / "journal.jsonl", fsync=False) as journal:
        _journal_submit(journal, "job-000001", SMALL, 0)
    with _daemon(state_dir) as daemon, _connect(daemon) as client:
        final = client.wait("job-000001", timeout=60.0)
        assert final["state"] == "done"
        assert final["digest"] == run(SMALL).digest
        # New submissions never reuse a replayed id.
        assert client.submit(SMALL)["job_id"] == "job-000002"


def test_graceful_stop_requeues_running_job(state_dir):
    daemon = _daemon(state_dir, max_workers=1)
    daemon.start()
    try:
        with _connect(daemon) as client:
            job_id = client.submit(SLOW)["job_id"]
            _wait_for(lambda: client.status(job_id)["state"] == "running")
    finally:
        daemon.stop(drain=False)
    job = daemon._jobs[job_id]
    assert job.state is JobState.QUEUED
    assert job.requeues == 1
    # A restarted daemon resumes it from the journal alone.
    daemon2 = _daemon(state_dir)
    assert daemon2.recovery["resumed"] == 1
    assert daemon2._jobs[job_id].state is JobState.QUEUED


def test_watch_streams_transitions_to_terminal(state_dir):
    with _daemon(state_dir) as daemon, _connect(daemon) as client:
        job_id = client.submit(SMALL)["job_id"]
        with ServeClient.connect(daemon.socket_path) as watcher:
            states = [f["state"] for f in watcher.watch(job_id)]
        assert states[-1] == "done"
        assert states == sorted(
            states, key=["queued", "running", "done"].index
        )
