"""Sandbox contracts: policies, replay fidelity, process control, limit checks."""

from __future__ import annotations

import os
import selectors
import tempfile
import threading
import time

import pytest

from warden import sandbox
from warden.datagen import gen_trace, profiles_by_name
from warden.records import (
    ENTER,
    RES_ROW,
    SYS_ROW,
    ResourceSample,
    SyscallEvent,
    read_trace_file,
    write_trace_file,
)
from warden.sandbox import (
    REPLAY_CHUNK_RECORDS,
    DuplicateJobId,
    JobDescriptor,
    JobStatus,
    KillReason,
    ProcessBackend,
    ReplayBackend,
    ReplaySourceMissing,
    SandboxPolicy,
    SpawnFailure,
    LimitTracker,
    TelemetryStream,
    replay_job,
    syscall_sampling_supported,
    validate_policy,
)

PHASE_ORDER = {"pending": 0, "running": 1, "completed": 2, "killed": 2}


def stream_rows(chunks):
    """One entry per streamed row: a syscall row's time, name, thread and direction, or the sample or log record."""
    out = []
    for c in chunks:
        samples, logs = iter(c.samples), iter(c.logs)
        for t, kind, name, thread, enter in zip(
            c.t_ns.tolist(), c.kind.tolist(), c.name_id.tolist(), c.thread_id.tolist(), c.enter.tolist()
        ):
            if kind == SYS_ROW:
                out.append((t, c.names[name], c.threads[thread], enter))
            else:
                out.append(next(samples) if kind == RES_ROW else next(logs))
    return out


def record_rows(records):
    """stream_rows of records: what a stream carries of each (no syscall args or return value)."""
    return [(r.t_ns, r.name, (r.pid, r.tid), r.direction == ENTER) if isinstance(r, SyscallEvent) else r for r in records]


def flat(chunks):
    return [item for chunk in chunks for item in chunk]


def rs(t_s, cpu=0.0, rss=0, rx=0, tx=0, job="j1"):
    return ResourceSample(
        t_ns=int(t_s * 1e9), job_id=job, cpu_pct=cpu, rss_bytes=rss,
        net_rx_bytes=rx, net_tx_bytes=tx, io_read_bytes=0, io_write_bytes=0,
    )


# --- policy validation ---------------------------------------------------------

def test_default_policy_is_valid():
    assert validate_policy(SandboxPolicy()) == []


def test_policy_violations_name_fields():
    bad = SandboxPolicy(mem_limit_bytes=0)
    assert [v.field for v in validate_policy(bad)] == ["mem_limit_bytes"]
    rel = SandboxPolicy(fs_hidden_paths=("etc/passwd",))
    assert [v.field for v in validate_policy(rel)] == ["fs_hidden_paths[0]"]
    multi = SandboxPolicy(cpu_limit_pct=0, wallclock_limit_s=-1)
    assert {v.field for v in validate_policy(multi)} == {"cpu_limit_pct", "wallclock_limit_s"}


@pytest.mark.parametrize("job_id", ["job-1\n", "j\n", "a.b_c-9\n"])
def test_a_job_id_that_ends_in_a_newline_is_refused(job_id):
    with pytest.raises(ValueError, match="job_id must match"):
        JobDescriptor(job_id=job_id, command=("x",))


# --- replay backend --------------------------------------------------------------

@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    trace = gen_trace(profiles_by_name()["batch-compute"], 12.0, "job-r", seed=5)
    path = tmp_path_factory.mktemp("traces") / "job-r.trc"
    write_trace_file(path, trace.records)
    return {"path": str(path), "records": trace.records}


def test_replay_stream_fidelity(small_trace):
    handle = replay_job(small_trace["path"], "job-r")
    streamed = list(handle.telemetry)
    assert handle.wait(5.0) == JobStatus.completed(0)
    assert {chunk.job_id for chunk in streamed} == {"job-r"}
    assert stream_rows(streamed) == record_rows(small_trace["records"])


def test_replay_missing_source():
    backend = ReplayBackend("/nonexistent/trace.trc")
    with pytest.raises(ReplaySourceMissing):
        backend.launch(JobDescriptor(job_id="gone", command=("replay",)))


def test_replay_completion_status(small_trace):
    handle = replay_job(small_trace["path"], "job-c")
    for _ in handle.telemetry:
        pass
    status = handle.wait(5.0)
    assert status.phase == "completed" and status.exit_code == 0


def test_status_never_regresses_over_polls(small_trace):
    handle = replay_job(small_trace["path"], "job-poll")
    consumer = threading.Thread(target=lambda: [None for _ in handle.telemetry], daemon=True)
    consumer.start()
    seen = []
    for _ in range(1000):
        seen.append(handle.status().phase)
    handle.wait(5.0)
    seen.append(handle.status().phase)
    ranks = [PHASE_ORDER[p] for p in seen]
    assert ranks == sorted(ranks)
    # terminal phase never flips between completed and killed
    terminal = [p for p in seen if PHASE_ORDER[p] == 2]
    assert len(set(terminal)) <= 1


def test_terminate_idempotent_and_terminal_immutable(small_trace):
    handle = replay_job(small_trace["path"], "job-t")
    first = handle.terminate(KillReason.DETECTOR_ACTION)
    assert first in (JobStatus.killed(KillReason.DETECTOR_ACTION), JobStatus.completed(0))
    second = handle.terminate(KillReason.WALLCLOCK_EXCEEDED)
    third = handle.terminate(KillReason.POLICY_VIOLATION)
    assert second == first and third == first

    done = replay_job(small_trace["path"], "job-t2")
    for _ in done.telemetry:
        pass
    done.wait(5.0)
    assert done.terminate(KillReason.POLICY_VIOLATION) == JobStatus.completed(0)


def test_randomized_terminate_poll_interleavings(small_trace):
    from warden.hashing import SplitMix64

    rng = SplitMix64(77)
    for trial in range(100):
        handle = replay_job(small_trace["path"], f"job-i{trial}")
        observed = []

        def poller():
            for _ in range(50):
                observed.append(handle.status().phase)

        threads = [threading.Thread(target=poller) for _ in range(3)]
        for t in threads:
            t.start()
        if rng.uniform() < 0.7:
            handle.terminate(KillReason.POLICY_VIOLATION)
        consumer = threading.Thread(target=lambda: [None for _ in handle.telemetry], daemon=True)
        consumer.start()
        for t in threads:
            t.join()
        final = handle.wait(5.0)
        assert final.terminal
        # every poller saw a monotone prefix of pending -> running -> terminal
        # (observed interleaves pollers, so only check the global invariant:
        # once terminal appears, no non-terminal value may follow)
        ranks = [PHASE_ORDER[p] for p in observed]
        peak = 0
        for r in ranks:
            assert r >= peak or r == peak  # never below an already-seen terminal
            if peak == 2:
                assert r == 2
            peak = max(peak, r)


# --- telemetry stream and chunked replay -----------------------------------------

def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_put_many_blocks_once_maxsize_records_are_buffered():
    stream = TelemetryStream(maxsize=4)
    stream.put_many([0, 1, 2])
    producer = threading.Thread(target=stream.put_many, args=([3, 4, 5],), daemon=True)
    producer.start()
    time.sleep(0.2)
    assert producer.is_alive()  # 4 records buffered, 2 still waiting for room
    assert stream._size == 4
    consumed = []
    consumer = threading.Thread(target=lambda: consumed.extend(flat(stream)), daemon=True)
    consumer.start()
    producer.join(5.0)
    assert not producer.is_alive()
    stream.close()
    consumer.join(5.0)
    assert not consumer.is_alive()
    assert consumed == [0, 1, 2, 3, 4, 5]


def test_close_releases_a_blocked_producer():
    stream = TelemetryStream(maxsize=2)
    stream.put_many([0, 1])
    producer = threading.Thread(target=stream.put_many, args=([2],), daemon=True)
    producer.start()
    time.sleep(0.1)
    assert producer.is_alive()
    stream.close()
    producer.join(5.0)
    assert not producer.is_alive()
    assert flat(stream) == [0, 1]


def test_a_timed_put_returns_the_rows_the_full_stream_did_not_take():
    stream = TelemetryStream(maxsize=4)
    assert stream.put_many([0, 1, 2], timeout=0) == []
    start = time.monotonic()
    assert stream.put_many([3, 4, 5], timeout=0.2) == [4, 5]  # room for one row, then none before the timeout
    assert 0.15 <= time.monotonic() - start < 2.0
    assert stream.put_many([6], timeout=-1) == [6]  # a timeout already past does not wait
    stream.close()
    assert flat(stream) == [0, 1, 2, 3]


@pytest.mark.parametrize("maxsize", [0, -1])
def test_a_stream_without_room_for_one_row_is_refused(maxsize):
    with pytest.raises(ValueError, match="maxsize must be >= 1"):
        TelemetryStream(maxsize=maxsize)


def test_put_after_close_is_ignored_and_iteration_ends_after_buffered_records():
    stream = TelemetryStream(maxsize=10)
    stream.put_many([0, 1])
    stream.put_many([2])
    stream.close()
    stream.put_many([3])
    stream.put_many([4, 5])
    stream.close()
    assert list(stream) == [[0, 1], [2]]
    assert list(stream) == []


def test_many_producers_lose_no_record_and_keep_each_producers_order():
    import sys

    stream = TelemetryStream(maxsize=7)
    got = []
    consumer = threading.Thread(target=lambda: got.extend(flat(stream)), daemon=True)

    def produce(p):
        for i in range(0, 600, 3):
            if p % 2:
                stream.put_many([(p, i), (p, i + 1), (p, i + 2)])
            else:
                for j in range(i, i + 3):
                    stream.put_many([(p, j)])

    producers = [threading.Thread(target=produce, args=(p,), daemon=True) for p in range(4)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        consumer.start()
        for t in producers:
            t.start()
        for t in producers:
            t.join(30.0)
            assert not t.is_alive()
        stream.close()
        consumer.join(30.0)
        assert not consumer.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    assert sorted(got) == [(p, i) for p in range(4) for i in range(600)]
    for p in range(4):
        assert [i for q, i in got if q == p] == list(range(600))


def test_speed0_replay_yields_read_trace_file_records_in_chunks(small_trace, monkeypatch):
    chunks = []
    real_put_many = TelemetryStream.put_many
    monkeypatch.setattr(
        TelemetryStream, "put_many", lambda self, records: (chunks.append(len(records)), real_put_many(self, records))[1]
    )
    handle = replay_job(small_trace["path"], "job-chunks")
    streamed = list(handle.telemetry)
    assert handle.wait(5.0) == JobStatus.completed(0)
    expected = read_trace_file(small_trace["path"])
    assert stream_rows(streamed) == record_rows(expected)
    assert [len(chunk) for chunk in streamed] == chunks
    assert len(expected) > REPLAY_CHUNK_RECORDS  # at least one full chunk and a partial one
    assert sum(chunks) == len(expected)
    assert chunks[:-1] == [REPLAY_CHUNK_RECORDS] * (len(chunks) - 1)


def test_timed_replay_delivers_each_record_before_sleeping(tmp_path):
    from warden.records import ENTER, SyscallEvent

    records = [
        SyscallEvent(t_ns=int(t * 1e9), job_id="job-timed", pid=1, tid=1, name="read", direction=ENTER)
        for t in range(4)
    ]
    path = tmp_path / "job-timed.trc"
    write_trace_file(path, records)
    start = time.monotonic()
    handle = ReplayBackend(path, speed=0.2).launch(JobDescriptor(job_id="job-timed", command=("replay",)))
    arrivals = []
    for _ in handle.telemetry:
        arrivals.append(time.monotonic() - start)
    assert handle.wait(5.0) == JobStatus.completed(0)
    assert len(arrivals) == 4
    assert arrivals[0] < 0.3  # not held back until the 0.6 s of recorded gaps have passed
    assert arrivals[-1] - arrivals[0] >= 0.5


def test_terminate_during_chunked_replay_ends_killed(tmp_path, monkeypatch):
    trace = gen_trace(profiles_by_name()["batch-compute"], 40.0, "job-long", seed=6)
    path = tmp_path / "job-long.trc"
    write_trace_file(path, trace.records)
    # a buffer smaller than two chunks keeps the replay thread waiting for room
    monkeypatch.setattr(sandbox, "REPLAY_STREAM_ROWS", REPLAY_CHUNK_RECORDS + 10)
    backend = ReplayBackend(path, speed=0)
    handle = backend.launch(JobDescriptor(job_id="job-kill-chunks", command=("replay",)))
    assert wait_until(lambda: handle.telemetry._size == REPLAY_CHUNK_RECORDS + 10)
    assert handle.status() == JobStatus.running()
    assert handle.terminate(KillReason.POLICY_VIOLATION) == JobStatus.killed(KillReason.POLICY_VIOLATION)
    streamed = list(handle.telemetry)  # ends: the replay stops and closes the stream
    assert handle.wait(5.0) == JobStatus.killed(KillReason.POLICY_VIOLATION)
    expected = record_rows(read_trace_file(path))
    rows = stream_rows(streamed)
    # the chunk in flight is delivered, then the replay stops
    assert len(expected) > 3 * REPLAY_CHUNK_RECORDS
    assert REPLAY_CHUNK_RECORDS + 10 <= len(rows) <= 2 * REPLAY_CHUNK_RECORDS
    assert rows == expected[: len(rows)]


# --- process backend -------------------------------------------------------------

def test_process_exit_code_passthrough():
    backend = ProcessBackend(sample_interval_ms=200)
    handle = backend.launch(JobDescriptor(job_id="exit3", command=("/bin/sh", "-c", "exit 3")))
    for _ in handle.telemetry:
        pass
    assert handle.wait(10.0) == JobStatus.completed(3)


def test_process_stdout_becomes_log_records():
    backend = ProcessBackend(sample_interval_ms=100)
    handle = backend.launch(JobDescriptor(job_id="echoer", command=("/bin/sh", "-c", "echo hello-out; echo oops >&2")))
    chunks = list(handle.telemetry)
    handle.wait(10.0)
    logs = [log for chunk in chunks for log in chunk.logs]
    assert any(r.source == "stdout" and r.message == "hello-out" for r in logs)
    assert any(r.source == "stderr" and r.message == "oops" for r in logs)


def test_process_env_is_replaced():
    backend = ProcessBackend(sample_interval_ms=100)
    os.environ["WARDEN_TEST_LEAK"] = "should-not-appear"
    try:
        handle = backend.launch(
            JobDescriptor(job_id="envjob", command=("/bin/sh", "-c", "echo v=$WARDEN_TEST_LEAK w=$WANTED"),
                          env={"WANTED": "yes", "PATH": "/usr/bin:/bin"})
        )
        records = [log for chunk in handle.telemetry for log in chunk.logs]
        handle.wait(10.0)
        out = [r.message for r in records if r.source == "stdout"]
        assert out == ["v= w=yes"]
    finally:
        del os.environ["WARDEN_TEST_LEAK"]


def test_duplicate_job_id_while_live():
    backend = ProcessBackend(sample_interval_ms=100)
    handle = backend.launch(JobDescriptor(job_id="dup", command=("/bin/sleep", "5")))
    consumer = threading.Thread(target=lambda: [None for _ in handle.telemetry], daemon=True)
    consumer.start()
    try:
        with pytest.raises(DuplicateJobId):
            backend.launch(JobDescriptor(job_id="dup", command=("/bin/sleep", "5")))
    finally:
        handle.terminate(KillReason.POLICY_VIOLATION)
        handle.wait(10.0)
    # after release the id is reusable
    handle2 = backend.launch(JobDescriptor(job_id="dup", command=("/bin/true",)))
    for _ in handle2.telemetry:
        pass
    assert handle2.wait(10.0).phase == "completed"


def test_job_id_is_free_as_soon_as_wait_returns(small_trace):
    backend = ProcessBackend(sample_interval_ms=100)
    # the background sleep keeps the job's pipes open after the shell exits,
    # so the pipe readers are still draining when wait returns
    exits = ("/bin/sh", "-c", "sleep 0.3 & exit 0")
    for i in range(24):
        handle = backend.launch(JobDescriptor(job_id="again", command=("/bin/sleep", "5") if i % 2 else exits))
        if i % 2:
            assert handle.terminate(KillReason.POLICY_VIOLATION).phase == "killed"
        assert handle.wait(10.0).terminal
        backend.launch(JobDescriptor(job_id="again", command=("/bin/true",))).wait(10.0)
    replay = ReplayBackend(small_trace["path"], speed=0)
    for i in range(20):
        handle = replay.launch(JobDescriptor(job_id="again", command=("replay",)))
        if i % 2:
            handle.terminate(KillReason.POLICY_VIOLATION)
        assert handle.wait(10.0).terminal
        replay.launch(JobDescriptor(job_id="again", command=("replay",))).terminate(KillReason.POLICY_VIOLATION)


def test_spawn_failure():
    backend = ProcessBackend()
    with pytest.raises(SpawnFailure):
        backend.launch(JobDescriptor(job_id="nope", command=("/no/such/binary",)))


def test_a_job_leaves_no_working_directory_behind(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    backend = ProcessBackend(sample_interval_ms=100)
    done = backend.launch(JobDescriptor(job_id="wd-done", command=("/bin/sh", "-c", "echo x > out")))
    killed = backend.launch(JobDescriptor(job_id="wd-killed", command=("/bin/sleep", "30")))
    assert any(p.name.startswith("warden-wd-killed-") for p in tmp_path.iterdir())  # made where the test looks
    assert killed.terminate(KillReason.POLICY_VIOLATION).phase == "killed"
    with pytest.raises(SpawnFailure):
        backend.launch(JobDescriptor(job_id="wd-spawn", command=("/no/such/binary",)))
    for handle in (done, killed):
        for _ in handle.telemetry:  # the stream closes once the directory is gone
            pass
        assert handle.wait(10.0).terminal
    assert done.status() == JobStatus.completed(0)
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith("warden-")] == []


def test_wallclock_kill_within_grace_budget():
    backend = ProcessBackend(sample_interval_ms=200)
    policy = SandboxPolicy(wallclock_limit_s=1.0)
    start = time.monotonic()
    handle = backend.launch(JobDescriptor(job_id="sleeper", command=("/bin/sleep", "60"), policy=policy))
    consumer = threading.Thread(target=lambda: [None for _ in handle.telemetry], daemon=True)
    consumer.start()
    status = handle.wait(10.0)
    elapsed = time.monotonic() - start
    assert status == JobStatus.killed(KillReason.WALLCLOCK_EXCEEDED)
    assert elapsed <= 3.5  # limit + 2 s grace + 0.5 s slack


def test_detector_kill_reason_reported():
    backend = ProcessBackend(sample_interval_ms=100)
    handle = backend.launch(JobDescriptor(job_id="tokill", command=("/bin/sleep", "30")))
    consumer = threading.Thread(target=lambda: [None for _ in handle.telemetry], daemon=True)
    consumer.start()
    time.sleep(0.2)
    status = handle.terminate(KillReason.DETECTOR_ACTION)
    assert status == JobStatus.killed(KillReason.DETECTOR_ACTION)
    assert handle.wait(5.0) == status


def drain_logs(handle):
    """(stdout messages, stderr messages, resource samples, chunks) of a job's whole stream."""
    chunks = list(handle.telemetry)
    logs = [log for chunk in chunks for log in chunk.logs]
    samples = [sample for chunk in chunks for sample in chunk.samples]
    by_source = {source: [log.message for log in logs if log.source == source] for source in ("stdout", "stderr")}
    return by_source["stdout"], by_source["stderr"], samples, chunks


def test_a_live_job_adds_exactly_one_thread():
    backend = ProcessBackend(sample_interval_ms=100)
    before = set(threading.enumerate())
    handle = backend.launch(JobDescriptor(job_id="one-thread", command=("/bin/sleep", "1")))
    added = [t for t in threading.enumerate() if t not in before]
    assert len(added) == 1 and added[0].is_alive()
    drain_logs(handle)
    assert handle.wait(10.0) == JobStatus.completed(0)
    added[0].join(5.0)
    assert not added[0].is_alive()  # the thread ends with the stream


@pytest.mark.skipif(not syscall_sampling_supported(), reason="/proc/<pid>/syscall not readable on this kernel")
def test_a_tick_puts_its_syscall_probe_and_resource_sample_in_one_chunk():
    backend = ProcessBackend(sample_interval_ms=100)
    handle = backend.launch(JobDescriptor(job_id="one-tick", command=("/bin/sleep", "0.6")))
    chunks = drain_logs(handle)[3]
    assert handle.wait(10.0) == JobStatus.completed(0)
    both = [c for c in chunks if SYS_ROW in c.kind and RES_ROW in c.kind]
    assert both  # a sleeping job's probe reads its sleep, so sample ticks carry a syscall row too
    for chunk in both:
        assert len(set(chunk.t_ns.tolist())) == 1  # the probe and the sample share the tick's time


def test_lines_an_empty_one_and_an_unfinished_last_one_are_logged_and_sampling_outlives_the_pipes():
    backend = ProcessBackend(sample_interval_ms=100)
    command = "printf 'a\\n\\nlast'; printf 'e1\\n' >&2; exec >&- 2>&-; sleep 0.6"
    handle = backend.launch(JobDescriptor(job_id="lines", command=("/bin/sh", "-c", command)))
    out, err, samples, chunks = drain_logs(handle)
    assert handle.wait(10.0) == JobStatus.completed(0)
    assert out == ["a", "", "last"] and err == ["e1"]
    assert len(samples) >= 3
    last_log = max(log.t_ns for chunk in chunks for log in chunk.logs)
    assert samples[-1].t_ns - last_log > 0.3e9  # the pipes closed, the process went on and so did sampling


def test_a_long_line_is_cut_and_a_character_split_across_writes_is_decoded_whole():
    backend = ProcessBackend(sample_interval_ms=100)
    command = "head -c 5000 /dev/zero | tr '\\0' x; echo; printf 'caf\\303'; sleep 0.2; printf '\\251\\n\\377\\n'"
    handle = backend.launch(JobDescriptor(job_id="long-line", command=("/bin/sh", "-c", command)))
    out = drain_logs(handle)[0]
    assert handle.wait(10.0) == JobStatus.completed(0)
    assert out == ["x" * 4096, "café", "\ufffd"]


# what lies across the 16,384-byte cut of a line that starts with 4,095 four-byte characters
CUT_TAILS = {
    "ascii": b"",
    "a whole 4-byte character": "\U0001f600".encode(),
    "a 4-byte character cut short by ASCII": b"\xf0\x9f\x98A",
    "a 3-byte character": "\u20ac".encode(),
    "a 3-byte character cut after 2 bytes": b"\xe2\x82",
    "invalid bytes": b"\xff\xfe\x80",
    "an encoded surrogate": b"\xed\xa0\x80",
}


@pytest.mark.parametrize("tail", CUT_TAILS.values(), ids=list(CUT_TAILS))
def test_an_overlong_line_is_bounded_as_it_arrives_and_cut_as_if_read_whole(tail):
    line = "\U0001f600".encode() * 4095 + tail + b"x\xc3" * (3 * 2**19)  # 3 MiB with no newline
    r, w = os.pipe()

    def write():
        with os.fdopen(w, "wb") as fh:
            fh.write(line + b"\n" + b"next\n")

    writer = threading.Thread(target=write)
    writer.start()
    pipes, buf, messages, largest = selectors.DefaultSelector(), bytearray(), [], 0
    pipes.register(r, selectors.EVENT_READ, ("stdout", "info", buf))
    try:
        while pipes.get_map():
            messages += [log.message for log in sandbox._read_lines(pipes, "j1", 5.0)]
            largest = max(largest, len(buf))
    finally:
        pipes.close()
        os.close(r)  # a writer still blocked on the pipe gets a broken pipe
        writer.join(10.0)
    assert not writer.is_alive()
    assert largest <= 4 * 4096
    assert messages == [line.decode("utf-8", errors="replace")[:4096], "next"]


def test_lines_read_in_one_tick_reach_the_stream_in_one_chunk():
    backend = ProcessBackend(sample_interval_ms=1000)
    handle = backend.launch(JobDescriptor(job_id="chatty", command=("seq", "1", "5000")))
    out, _, _, chunks = drain_logs(handle)
    assert handle.wait(10.0) == JobStatus.completed(0)
    assert out == [str(i) for i in range(1, 5001)]
    assert len(chunks) < 100  # one chunk per tick, not per line


def test_a_job_that_closes_its_pipes_still_ends_at_the_wallclock_limit():
    backend = ProcessBackend(sample_interval_ms=200)
    policy = SandboxPolicy(wallclock_limit_s=1.0)
    start = time.monotonic()
    command = ("/bin/sh", "-c", "exec >&- 2>&-; sleep 60")
    handle = backend.launch(JobDescriptor(job_id="closed-pipes", command=command, policy=policy))
    drain_logs(handle)
    assert handle.wait(10.0) == JobStatus.killed(KillReason.WALLCLOCK_EXCEEDED)
    assert time.monotonic() - start <= 3.5  # limit + 2 s grace + 0.5 s slack


def launch_unread(backend, descriptor):
    """(handle, the job's telemetry thread) of a job launched with nobody reading its stream."""
    before = set(threading.enumerate())
    handle = backend.launch(descriptor)
    (thread,) = [t for t in threading.enumerate() if t not in before]
    return handle, thread


def test_a_writer_that_outlives_the_job_holds_at_most_one_tick_of_rows_outside_a_full_stream(monkeypatch):
    sizes = []
    from_records = sandbox.TraceColumns.from_records
    monkeypatch.setattr(
        sandbox.TraceColumns, "from_records", lambda records, job_id: sizes.append(len(records)) or from_records(records, job_id)
    )
    backend = ProcessBackend(sample_interval_ms=100)
    command = ("/bin/sh", "-c", "seq 1 300000 & exit 0")  # seq keeps the pipe open after the job's exit
    handle, thread = launch_unread(backend, JobDescriptor(job_id="outlived", command=command))
    assert handle.wait(5.0) == JobStatus.completed(0)
    thread.join(sandbox.KILL_GRACE_S + 3.0)
    assert not thread.is_alive()  # the drain ends at KILL_GRACE_S even while the stream is full and unread
    out, _, _, chunks = drain_logs(handle)
    assert out == [str(i) for i in range(1, len(out) + 1)]
    assert sum(map(len, chunks)) == sandbox.PROCESS_STREAM_ROWS  # what the stream buffered; the rest was never read
    assert sizes and max(sizes) <= sandbox.PROCESS_STREAM_ROWS  # one tick's rows, not the whole drain's


def test_a_chatty_job_that_nobody_reads_still_ends_at_the_wallclock_limit():
    backend = ProcessBackend(sample_interval_ms=100)
    policy = SandboxPolicy(wallclock_limit_s=1.0)
    descriptor = JobDescriptor(job_id="unread", command=("seq", "1", "1000000"), policy=policy)
    handle, thread = launch_unread(backend, descriptor)
    assert handle.wait(5.0) == JobStatus.killed(KillReason.WALLCLOCK_EXCEEDED)
    thread.join(sandbox.KILL_GRACE_S + 3.0)
    assert not thread.is_alive()
    assert sum(map(len, drain_logs(handle)[3])) == sandbox.PROCESS_STREAM_ROWS


def test_the_loop_does_not_spin_while_another_terminate_waits_out_its_grace():
    backend = ProcessBackend(sample_interval_ms=100)
    policy = SandboxPolicy(wallclock_limit_s=0.3)
    command = ("/bin/sh", "-c", "trap '' TERM; sleep 30")  # ignores SIGTERM, so terminate waits KILL_GRACE_S
    handle = backend.launch(JobDescriptor(job_id="grace", command=command, policy=policy))
    cpu = time.process_time()
    assert handle.terminate(KillReason.DETECTOR_ACTION) == JobStatus.killed(KillReason.DETECTOR_ACTION)
    drain_logs(handle)
    assert time.process_time() - cpu < 0.5  # the wallclock ticks inside the grace wait SYSCALL_POLL_S each


# --- LimitTracker ------------------------------------------------------------------

def push_all(samples, policy, t_start_ns=0):
    """Every violation LimitTracker.push reports over ``samples``, in sample order."""
    tracker = LimitTracker(policy, t_start_ns)
    return [v for sample in samples for v in tracker.push(sample)]


def test_cpu_limit_violation():
    policy = SandboxPolicy(cpu_limit_pct=100.0)
    out = push_all([rs(1.0, cpu=150.0)], policy)
    assert [(v.kind, v.observed, v.limit) for v in out] == [("CpuLimit", 150.0, 100.0)]


def test_zero_net_delta_is_not_forbidden():
    policy = SandboxPolicy(net_allowed=False)
    out = push_all([rs(1.0, tx=0), rs(2.0, tx=0)], policy)
    assert out == []


def test_net_forbidden_fires_on_first_positive_delta():
    policy = SandboxPolicy(net_allowed=False)
    samples = [rs(1.0, tx=0), rs(2.0, tx=0), rs(3.0, tx=700), rs(4.0, tx=900)]
    out = push_all(samples, policy)
    net = [v for v in out if v.kind == "NetForbidden"]
    assert net[0].t_ns == int(3e9) and net[0].observed == 700.0
    assert len(net) == 2


def test_ddos_trace_net_forbidden_against_independent_scan():
    trace = gen_trace(profiles_by_name()["ddos-flood"], 60.0, "job-dd", seed=13)
    samples = [r for r in trace.records if isinstance(r, ResourceSample)]
    policy = SandboxPolicy(net_allowed=False)
    out = [v for v in push_all(samples, policy) if v.kind == "NetForbidden"]
    # oracle: recompute deltas with an independent scan (first sample vs zero)
    expected = []
    prev_rx = prev_tx = 0
    for s in samples:
        delta = (s.net_rx_bytes - prev_rx) + (s.net_tx_bytes - prev_tx)
        if delta > 0:
            expected.append((s.t_ns, float(delta)))
        prev_rx, prev_tx = s.net_rx_bytes, s.net_tx_bytes
    assert [(v.t_ns, v.observed) for v in out] == expected
    assert len(out) >= 1
    assert out[0].t_ns == expected[0][0]


def test_wallclock_violation_exactly_once():
    policy = SandboxPolicy(wallclock_limit_s=2.0)
    samples = [rs(float(t)) for t in range(1, 7)]
    out = push_all(samples, policy)
    wall = [v for v in out if v.kind == "Wallclock"]
    assert len(wall) == 1
    assert wall[0].t_ns == int(3e9)  # first sample strictly past the limit


def test_mem_limit_violation_order_preserved():
    policy = SandboxPolicy(mem_limit_bytes=100, cpu_limit_pct=50.0)
    samples = [rs(1.0, cpu=80.0, rss=200), rs(2.0, cpu=10.0, rss=50)]
    out = push_all(samples, policy)
    assert [v.kind for v in out] == ["CpuLimit", "MemLimit"]


def test_limit_tracker_checks_a_late_sample_without_basing_net_deltas_on_it():
    policy = SandboxPolicy(cpu_limit_pct=50.0, net_allowed=False)
    tracker = LimitTracker(policy, t_start_ns=0)
    pushed = [rs(1.0, rx=100), rs(3.0, cpu=80.0, rx=300), rs(2.0, cpu=90.0, rx=200), rs(4.0, rx=300)]
    got = [[(v.kind, v.observed) for v in tracker.push(sample)] for sample in pushed]
    assert got == [
        [("NetForbidden", 100.0)],
        [("CpuLimit", 80.0), ("NetForbidden", 200.0)],
        [("CpuLimit", 90.0)],  # late: limits checked, no net delta
        [],  # delta against the 3-s sample, not the late one
    ]
