"""Job isolation policies and the two execution backends.

The process backend runs a real command in its own session with a scrubbed
environment and best-effort OS resource limits. One thread per live job
captures stdout/stderr lines as log records, samples resource use and the
current syscall (via /proc/<pid>/syscall, where available), and puts one
chunk per tick. The replay backend streams a recorded `.trc` file and is
fully deterministic; the detection pipeline consumes both through the same
telemetry-stream interface.

Limit enforcement is split deliberately: a wallclock breach ends the job
here with kill reason WALLCLOCK_EXCEEDED, while CPU/memory/network breaches
only surface as violation records for the detector to weigh.
"""

from __future__ import annotations

import collections
import enum
import os
import platform
import re
import selectors
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field

from .records import (
    ENTER,
    LogRecord,
    ResourceSample,
    SyscallEvent,
    TraceColumns,
    read_trace_columns,
    read_trace_file,  # no caller here; kept importable for tools that look the parse up on this module
)

KILL_GRACE_S = 2.0
REPLAY_CHUNK_RECORDS = 512  # rows per stream hand-off when replaying faster than recorded gaps
# rows a job's stream buffers before its producer blocks; a replay's bound
# holds a whole online-detect trace (under about 15k rows), so that replay
# never waits for the consumer
REPLAY_STREAM_ROWS = 100000
PROCESS_STREAM_ROWS = 10000
SYSCALL_POLL_S = 0.05  # how often a live job's current syscall is sampled


class KillReason(enum.IntEnum):
    POLICY_VIOLATION = 1
    DETECTOR_ACTION = 2
    WALLCLOCK_EXCEEDED = 3


class SandboxError(Exception):
    pass


class DuplicateJobId(SandboxError):
    pass


class SpawnFailure(SandboxError):
    pass


class ReplaySourceMissing(SandboxError):
    pass


class InvalidPolicy(SandboxError):
    pass


@dataclass(frozen=True)
class FieldViolation:
    field: str
    detail: str


@dataclass(frozen=True)
class SandboxPolicy:
    """Resource/isolation limits a job runs under. Validate with validate_policy."""

    cpu_limit_pct: float = 100.0
    mem_limit_bytes: int = 2 * 2**30
    net_allowed: bool = True
    max_pids: int = 64
    wallclock_limit_s: float = 3600.0
    fs_hidden_paths: tuple[str, ...] = ()


def validate_policy(policy: SandboxPolicy) -> list[FieldViolation]:
    """Every invariant violation, one entry per offending field; [] iff valid."""
    out: list[FieldViolation] = []
    # counts are integers, limits any real number; each must be positive
    for name, kinds, detail in (
        ("cpu_limit_pct", (int, float), "must be > 0"),
        ("mem_limit_bytes", int, "must be > 0"),
        ("max_pids", int, "must be >= 1"),
        ("wallclock_limit_s", (int, float), "must be > 0"),
    ):
        value = getattr(policy, name)
        if isinstance(value, bool) or not isinstance(value, kinds):
            out.append(FieldViolation(name, f"must be {'an integer' if kinds is int else 'a number'}, got {value!r}"))
        elif not value > 0:
            out.append(FieldViolation(name, detail))
    if not isinstance(policy.net_allowed, bool):
        out.append(FieldViolation("net_allowed", "must be a boolean"))
    for i, path in enumerate(policy.fs_hidden_paths):
        if not isinstance(path, str) or not path.startswith("/"):
            out.append(FieldViolation(f"fs_hidden_paths[{i}]", "must be an absolute path"))
    return out


_JOB_ID_RE = re.compile(r"[A-Za-z0-9._-]+")


@dataclass(frozen=True)
class JobDescriptor:
    job_id: str
    command: tuple[str, ...]
    env: dict = field(default_factory=dict)
    policy: SandboxPolicy = field(default_factory=SandboxPolicy)

    def __post_init__(self):
        if not isinstance(self.job_id, str) or len(self.job_id) > 64 or not _JOB_ID_RE.fullmatch(self.job_id):
            raise ValueError(f"job_id must match [A-Za-z0-9._-]+ and be at most 64 chars, got {self.job_id!r}")
        object.__setattr__(self, "command", tuple(self.command))
        if not self.command:
            raise ValueError("command must be non-empty")


@dataclass(frozen=True)
class JobStatus:
    """Job lifecycle state; Completed/Killed are terminal and never change."""

    phase: str  # "pending" | "running" | "completed" | "killed"
    exit_code: int | None = None
    kill_reason: KillReason | None = None

    @classmethod
    def pending(cls) -> "JobStatus":
        return cls("pending")

    @classmethod
    def running(cls) -> "JobStatus":
        return cls("running")

    @classmethod
    def completed(cls, exit_code: int) -> "JobStatus":
        return cls("completed", exit_code=exit_code)

    @classmethod
    def killed(cls, reason: KillReason) -> "JobStatus":
        return cls("killed", kill_reason=reason)

    @property
    def terminal(self) -> bool:
        return self.phase in ("completed", "killed")


@dataclass(frozen=True)
class PolicyViolation:
    job_id: str
    t_ns: int
    kind: str  # "CpuLimit" | "MemLimit" | "NetForbidden" | "PidLimit" | "Wallclock"
    observed: float
    limit: float


class LimitTracker:
    """Incremental policy check over a job's resource samples, one at a time.

    Lets the detection pipeline raise violations online; the Wallclock kind
    fires at most once. Net deltas are taken against the previous sample
    (counters are cumulative from job start, so the first sample's delta is
    its absolute value). A sample older than the newest one seen (a wall
    clock that stepped back) is still checked against the CPU, memory and
    wallclock limits, but it is neither given a net delta nor used as the
    base of the next one, which is taken against the newest sample.
    """

    def __init__(self, policy: SandboxPolicy, t_start_ns: int):
        self.policy = policy
        self.t_start_ns = t_start_ns
        self._prev: ResourceSample | None = None
        self._wallclock_fired = False

    def push(self, sample: ResourceSample) -> list[PolicyViolation]:
        late = self._prev is not None and sample.t_ns < self._prev.t_ns
        out: list[PolicyViolation] = []
        p = self.policy
        if sample.cpu_pct > p.cpu_limit_pct:
            out.append(PolicyViolation(sample.job_id, sample.t_ns, "CpuLimit", sample.cpu_pct, p.cpu_limit_pct))
        if sample.rss_bytes > p.mem_limit_bytes:
            out.append(PolicyViolation(sample.job_id, sample.t_ns, "MemLimit", float(sample.rss_bytes), float(p.mem_limit_bytes)))
        if not p.net_allowed and not late:
            prev_rx = self._prev.net_rx_bytes if self._prev else 0
            prev_tx = self._prev.net_tx_bytes if self._prev else 0
            delta = (sample.net_rx_bytes - prev_rx) + (sample.net_tx_bytes - prev_tx)
            if delta > 0:
                out.append(PolicyViolation(sample.job_id, sample.t_ns, "NetForbidden", float(delta), 0.0))
        if not self._wallclock_fired and sample.t_ns - self.t_start_ns > p.wallclock_limit_s * 1e9:
            self._wallclock_fired = True
            out.append(
                PolicyViolation(
                    sample.job_id,
                    sample.t_ns,
                    "Wallclock",
                    (sample.t_ns - self.t_start_ns) / 1e9,
                    p.wallclock_limit_s,
                )
            )
        if not late:
            self._prev = sample
        return out


class TelemetryStream:
    """Bounded stream of row chunks from one or more producer threads to one consumer.

    A chunk is TraceColumns (what the backends put), or any sequence that
    slices by rows; ``put_many`` hands one over. At most ``maxsize`` rows
    (at least 1) are buffered: a producer that finds the stream full blocks
    until the consumer makes room, or until its ``timeout``, so no row is
    lost unless put_many returns it. Iteration yields the
    chunks in put order and ends after the buffered ones once the stream is
    closed; chunks put after ``close`` are ignored, and ``close`` releases a
    blocked producer.
    """

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self._maxsize = maxsize
        self._chunks: collections.deque = collections.deque()
        self._size = 0  # rows in self._chunks
        self._cond = threading.Condition()
        self._closed = False

    def put_many(self, chunk, timeout: float | None = None):
        """Put the chunk's rows; returns those not put, which is none unless ``timeout`` s passed without room."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while len(chunk) and not self._closed:
                room = self._maxsize - self._size
                if room <= 0:
                    remaining = None if deadline is None else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
                    continue
                part = chunk[:room]
                self._chunks.append(part)
                self._size += len(part)
                self._cond.notify_all()
                chunk = chunk[room:]
        return chunk

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def __iter__(self):
        cond = self._cond
        while True:
            with cond:
                while not self._chunks:
                    if self._closed:
                        return
                    cond.wait()
                chunk = self._chunks.popleft()
                self._size -= len(chunk)
                cond.notify_all()
            yield chunk


class JobHandle:
    """Live view of one sandboxed job: status, telemetry, termination.

    Status moves pending -> running -> (completed | killed); the first
    terminal transition wins and later ones are ignored, which makes
    terminate idempotent by construction.
    """

    def __init__(self, job_id: str, stream: TelemetryStream, backend: "ExecutionBackend"):
        self.job_id = job_id
        self.telemetry = stream
        self._backend = backend
        self._stop = threading.Event()  # set when the backend should stop feeding the stream
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._status = JobStatus.pending()

    def status(self) -> JobStatus:
        with self._lock:
            return self._status

    def _set_running(self) -> None:
        with self._cond:
            if self._status.phase == "pending":
                self._status = JobStatus.running()
                self._cond.notify_all()

    def _set_terminal(self, status: JobStatus) -> JobStatus:
        """First terminal status sticks and frees the job id before waking waiters; returns the effective status."""
        with self._cond:
            if not self._status.terminal:
                self._backend._release(self.job_id)
                self._status = status
                self._cond.notify_all()
            return self._status

    def wait(self, timeout: float | None = None) -> JobStatus:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._status.terminal:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            return self._status

    def terminate(self, reason: KillReason) -> JobStatus:
        """Stop the job if it still runs; a finished job keeps its status."""
        return self._backend._terminate(self, reason)


class ExecutionBackend:
    """Common launch bookkeeping: per-node job_id uniqueness and release."""

    def __init__(self):
        self._live: set[str] = set()
        self._live_lock = threading.Lock()

    def launch(self, descriptor: JobDescriptor) -> JobHandle:
        problems = validate_policy(descriptor.policy)
        if problems:
            raise InvalidPolicy(f"policy invalid: {problems}")
        with self._live_lock:
            if descriptor.job_id in self._live:
                raise DuplicateJobId(f"job {descriptor.job_id!r} is already live on this node")
            self._live.add(descriptor.job_id)
        try:
            return self._launch(descriptor)
        except Exception:
            self._release(descriptor.job_id)
            raise

    def _release(self, job_id: str) -> None:
        with self._live_lock:
            self._live.discard(job_id)

    def _launch(self, descriptor: JobDescriptor) -> JobHandle:
        raise NotImplementedError

    def _terminate(self, handle: JobHandle, reason: KillReason) -> JobStatus:
        raise NotImplementedError


class ReplayBackend(ExecutionBackend):
    """Streams a recorded trace file as the job's telemetry, deterministically.

    ``speed`` scales recorded inter-record delays: 0 replays as fast as
    possible, 1 replays in real time. The file is scanned into TraceColumns
    at launch, so a malformed file fails the launch; the stream carries row
    slices of those columns, which hold no syscall ``args`` or ``ret``.
    Slices hold up to REPLAY_CHUNK_RECORDS rows, and a timed replay also cuts
    one before every delay, so it still delivers each row on time.
    """

    def __init__(self, trace_path, speed: float = 0.0):
        super().__init__()
        self.trace_path = str(trace_path)
        self.speed = speed

    def _launch(self, descriptor: JobDescriptor) -> JobHandle:
        if not os.path.exists(self.trace_path):
            raise ReplaySourceMissing(f"no trace at {self.trace_path}")
        columns = read_trace_columns(self.trace_path, descriptor.job_id)
        stream = TelemetryStream(REPLAY_STREAM_ROWS)
        handle = JobHandle(descriptor.job_id, stream, self)

        def run():
            handle._set_running()
            start = 0
            for end, delay in self._cuts(columns.t_ns):
                if handle._stop.is_set():
                    break
                stream.put_many(columns[start:end])
                start = end
                if delay:
                    time.sleep(delay)
            if not handle._stop.is_set():
                handle._set_terminal(JobStatus.completed(0))
            stream.close()

        handle._thread = threading.Thread(target=run, name=f"replay-{descriptor.job_id}", daemon=True)
        handle._thread.start()
        return handle

    def _cuts(self, t_ns):
        """(end row, pause after it) of each hand-off: every REPLAY_CHUNK_RECORDS rows, and before each step forward in time when timed."""
        if self.speed <= 0:
            yield from ((row, 0.0) for row in range(REPLAY_CHUNK_RECORDS, len(t_ns), REPLAY_CHUNK_RECORDS))
        else:
            times, start = t_ns.tolist(), 0
            for row in range(1, len(times)):
                step = times[row] - times[row - 1]
                if step > 0 or row - start >= REPLAY_CHUNK_RECORDS:
                    yield row, max(step, 0) / 1e9 * self.speed
                    start = row
        yield len(t_ns), 0.0

    def _terminate(self, handle: JobHandle, reason: KillReason) -> JobStatus:
        if not handle.status().terminal:
            handle._stop.set()
        return handle._set_terminal(JobStatus.killed(reason))


# --- process backend ----------------------------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100

# common x86_64 syscall numbers for the sampled /proc/<pid>/syscall probe; elsewhere every number reads sys_<n>
_SYSCALL_NAMES = {
    0: "read", 1: "write", 2: "open", 3: "close", 4: "stat", 5: "fstat", 7: "poll",
    8: "lseek", 9: "mmap", 10: "mprotect", 11: "munmap", 12: "brk", 13: "rt_sigaction",
    14: "rt_sigprocmask", 16: "ioctl", 17: "pread64", 18: "pwrite64", 19: "readv",
    20: "writev", 22: "pipe", 23: "select", 24: "sched_yield", 28: "madvise",
    32: "dup", 33: "dup2", 34: "pause", 35: "nanosleep", 39: "getpid", 41: "socket",
    42: "connect", 43: "accept", 44: "sendto", 45: "recvfrom", 46: "sendmsg",
    47: "recvmsg", 56: "clone", 57: "fork", 59: "execve", 60: "exit", 61: "wait4",
    62: "kill", 72: "fcntl", 78: "getdents", 79: "getcwd", 89: "readlink",
    96: "gettimeofday", 102: "getuid", 104: "getgid", 107: "geteuid", 202: "futex",
    228: "clock_gettime", 230: "clock_nanosleep", 231: "exit_group", 232: "epoll_wait",
    257: "openat", 262: "newfstatat", 270: "pselect6", 271: "ppoll", 281: "epoll_pwait",
    318: "getrandom",
} if platform.machine() == "x86_64" else {}


def syscall_sampling_supported() -> bool:
    try:
        with open("/proc/self/syscall", "r") as fh:
            fh.read()
        return True
    except OSError:
        return False


_LINE_CHARS = 4096  # a log message's length cap
_LINE_BYTES = 4 * _LINE_CHARS  # every decoded character takes 1 to 4 bytes, so these decode to the first _LINE_CHARS


def _read_lines(pipes: selectors.BaseSelector, job_id: str, timeout: float) -> list[LogRecord]:
    """Log records of the lines the pipes deliver within ``timeout`` s, each cut at 4096 characters.

    One read per ready pipe, of at most PROCESS_STREAM_ROWS // 2 bytes, so a call gives at most
    PROCESS_STREAM_ROWS records. An unfinished line waits in its pipe's buffer and counts at the
    pipe's end, where the pipe is unregistered. The buffer keeps a line's first _LINE_BYTES bytes
    and drops the rest as it arrives. Once both pipes are unregistered, a sleep.
    """
    if not pipes.get_map():
        time.sleep(max(timeout, 0.0))
        return []
    records = []
    for key, _ in pipes.select(timeout):  # a timeout below 0 polls
        source, severity, buf = key.data
        data = os.read(key.fd, PROCESS_STREAM_ROWS // 2)
        if not data:  # the pipe's end: an unfinished last line counts too
            pipes.unregister(key.fileobj)
            data = b"\n" if buf else b""
        lines = data.split(b"\n")
        lines[0] = buf + lines[0][: _LINE_BYTES - len(buf)]
        buf[:] = lines.pop()[:_LINE_BYTES]  # the unfinished line
        t_ns = time.time_ns()
        records += [
            LogRecord(t_ns, job_id, source, severity, line[:_LINE_BYTES].decode("utf-8", errors="replace")[:_LINE_CHARS])
            for line in lines
        ]
    return records


class ProcessBackend(ExecutionBackend):
    """Runs the command as a real subprocess under best-effort limits.

    One thread per live job (``_run``) works in ticks. A tick waits at most
    SYSCALL_POLL_S for the job's stdout and stderr lines, then checks for
    exit, else for the wallclock limit, else probes the current syscall and,
    every ``sample_interval_ms``, samples resource use; the tick's records
    reach the stream as one chunk. While the stream is full, a tick waits
    for room instead of reading or probing, so at most one tick's rows wait
    outside the stream and the exit and wallclock checks go on. After the
    exit, ticks drain the pipes for at most KILL_GRACE_S.

    Isolation notes (documented limitations): memory is limited via
    RLIMIT_AS, CPU share is not throttled (breaches surface as violations),
    fs_hidden_paths is advisory (environment scrubbing plus a private working
    directory, removed when the job ends), and per-process network counters are not observable from
    /proc, so live ResourceSamples carry zero network deltas.
    """

    def __init__(self, sample_interval_ms: int = 1000):
        super().__init__()
        self.sample_interval_ms = sample_interval_ms

    def _launch(self, descriptor: JobDescriptor) -> JobHandle:
        policy = descriptor.policy
        workdir = tempfile.mkdtemp(prefix=f"warden-{descriptor.job_id}-")
        env = dict(descriptor.env)

        def preexec():
            os.setsid()
            try:
                import resource

                resource.setrlimit(resource.RLIMIT_AS, (policy.mem_limit_bytes, policy.mem_limit_bytes))
            except Exception:
                pass  # best-effort: missing permissions must not block the launch

        try:
            proc = subprocess.Popen(
                list(descriptor.command),
                env=env,
                cwd=workdir,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                preexec_fn=preexec,
            )
        except (OSError, ValueError) as exc:
            shutil.rmtree(workdir, ignore_errors=True)
            raise SpawnFailure(f"cannot spawn {descriptor.command!r}: {exc}") from None

        handle = JobHandle(descriptor.job_id, TelemetryStream(PROCESS_STREAM_ROWS), self)
        handle._proc = proc
        handle._set_running()
        # launch has validated the policy, so the limit is positive
        threading.Thread(target=self._run, args=(handle, workdir, policy.wallclock_limit_s), daemon=True).start()
        return handle

    def _read_proc(self, pid: int):
        """(cpu_ticks, rss_bytes, io_read, io_write) or None once the process is gone."""
        try:
            with open(f"/proc/{pid}/stat", "rb") as fh:
                stat = fh.read().decode("ascii", errors="replace")
            fields = stat[stat.rindex(")") + 2 :].split()
            utime, stime = int(fields[11]), int(fields[12])  # fields 14/15, 1-based
            rss_pages = int(fields[21])  # field 24
            rss = rss_pages * os.sysconf("SC_PAGE_SIZE")
        except (OSError, ValueError, IndexError):
            return None
        io_r = io_w = 0
        try:
            with open(f"/proc/{pid}/io", "rb") as fh:
                for line in fh.read().decode("ascii", errors="replace").splitlines():
                    if line.startswith("read_bytes:"):
                        io_r = int(line.split()[1])
                    elif line.startswith("write_bytes:"):
                        io_w = int(line.split()[1])
        except OSError:
            pass
        return utime + stime, rss, io_r, io_w

    def _run(self, handle: JobHandle, workdir: str, wallclock_s: float) -> None:
        """Tick until the process exits and its pipes are drained (at most KILL_GRACE_S after the exit); then clean up."""
        proc, job_id, pid = handle._proc, handle.job_id, handle._proc.pid
        interval = self.sample_interval_ms / 1000.0
        last_sample = time.monotonic()
        # until: where a tick's wait ends, which is the next probe, or once the process has exited the drain's end
        deadline, until = last_sample + wallclock_s, last_sample + SYSCALL_POLL_S
        prev_ticks, rc, held = None, None, ()  # held: rows the full stream has not taken yet
        pipes = selectors.DefaultSelector()
        pipes.register(proc.stdout, selectors.EVENT_READ, ("stdout", "info", bytearray()))
        pipes.register(proc.stderr, selectors.EVENT_READ, ("stderr", "error", bytearray()))
        try:
            while rc is None or (time.monotonic() < until and (pipes.get_map() or held)):
                if held:  # the stream is full: wait for room, not for more output
                    records, held = [], handle.telemetry.put_many(held, until - time.monotonic())
                else:
                    records = _read_lines(pipes, job_id, until - time.monotonic())
                now = time.monotonic()
                if rc is None and (rc := proc.poll()) is not None:
                    handle._set_terminal(JobStatus.completed(rc))
                    until = now + KILL_GRACE_S
                elif rc is None and now >= until:
                    until = now + SYSCALL_POLL_S
                    if now >= deadline:
                        handle.terminate(KillReason.WALLCLOCK_EXCEEDED)
                    elif not held:
                        now_ns = time.time_ns()
                        try:  # a kernel without /proc/<pid>/syscall fails the open
                            with open(f"/proc/{pid}/syscall", "r") as fh:
                                first = fh.read().split()[0]
                            if first not in ("-1", "running"):
                                name = _SYSCALL_NAMES.get(int(first), f"sys_{first}")
                                records.append(SyscallEvent(now_ns, job_id, pid, pid, name, ENTER))
                        except (OSError, ValueError, IndexError):
                            pass
                        if now - last_sample >= interval and (snap := self._read_proc(pid)) is not None:
                            ticks, rss, io_r, io_w = snap
                            cpu_pct = 0.0 if prev_ticks is None else max(0.0, (ticks - prev_ticks) / _CLK_TCK / interval * 100)
                            last_sample, prev_ticks = now, ticks
                            records.append(ResourceSample(now_ns, job_id, cpu_pct, rss, 0, 0, io_r, io_w))
                if records:
                    held = handle.telemetry.put_many(TraceColumns.from_records(records, job_id), 0)
        finally:
            pipes.close()
            proc.stdout.close()
            proc.stderr.close()
            shutil.rmtree(workdir, ignore_errors=True)
            handle.telemetry.close()  # after the removal, so a consumer that reads to the end finds it gone

    def _terminate(self, handle: JobHandle, reason: KillReason) -> JobStatus:
        killed = JobStatus.killed(reason)
        final = handle._set_terminal(killed)
        if final is not killed:
            return final  # already terminal, or lost the race to another terminal transition
        proc = handle._proc
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(proc.pid, sig)  # the job leads its own process group (setsid at launch)
            except (ProcessLookupError, PermissionError):
                pass
            try:
                proc.wait(timeout=KILL_GRACE_S)
                break
            except subprocess.TimeoutExpired:
                pass
        return final


def replay_job(trace_path, job_id: str, speed: float = 0.0) -> JobHandle:
    """Convenience: launch a replay of one trace file under a default policy."""
    return ReplayBackend(trace_path, speed=speed).launch(JobDescriptor(job_id=job_id, command=("replay",)))

