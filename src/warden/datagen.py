"""Deterministic synthetic trace generator with labeled behavior profiles.

Real farm telemetry and captured malware runs cannot ship with the code, so
training and evaluation run against seeded surrogates: each profile is a
first-order Markov chain over syscall names plus resource/log envelopes.
Malicious profiles model the classic batch-farm abuse patterns (flooding,
coin mining, privilege escalation, lateral scanning) and share a low-rate
background of probing syscalls, which makes the two classes separable by
construction and the ML acceptance thresholds meaningful.

Generation is byte-deterministic in (profile, duration, job_id, seed): all
randomness comes from the splitmix64 stream of the trace's seed, and every
draw has a fixed offset in it. Draw 0 picks the pid and draw 1 the first
state. Each syscall event then takes a run of draws from its own offset:
its interval, its next state, its tid, its args (none, one choice, or three
for a synthesized ip:port), a fail draw if its name can fail, and its
service time. The run's length depends only on the event's syscall name, so
the chain walk, which finds each event's offset, is the one sequential step.
It runs over one array drawn counter-wise (``hashing.splitmix64_outputs``),
and every other syscall field is a numpy gather at known offsets. The draw
after the interval that ends the trace starts the resource samples and then
the log lines, which are scalar loops over a ``SplitMix64`` placed there.

One generator core produces a trace's rows sorted by time, each syscall row
a code into the trace's distinct (tid, name, args, retval) keys, and two
views read them: ``gen_dataset`` hands them to ``records.write_coded_rows``,
which formats each key's line tail once, and ``gen_trace`` returns them as
records. A profile's checks cover every field a syscall row takes from it,
so the rows need no per-event validation.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .hashing import SplitMix64, derive_seed, derive_tagged_seed, splitmix64_outputs
from .records import (
    ENTER,
    EXIT,
    MAX_ARGS,
    MAX_NAME,
    SYSCALL_NAME_RE,
    LabeledTrace,
    LogRecord,
    ResourceSample,
    SyscallEvent,
    write_coded_rows,
)

SAMPLE_PERIOD_S = 1.0
JITTER_FRAC = 0.05
MAX_THREADS = 2**32  # keeps every tid an int64


class InvalidProfile(ValueError):
    """A behavior profile violates its invariants."""


class InvalidSpec(ValueError):
    """A scenario spec violates its invariants."""


@dataclass(frozen=True)
class BehaviorProfile:
    """Parameters of one synthetic job behavior.

    Every number a profile holds must be finite. ``transition`` rows follow
    ``syscall_vocab`` order and each row must sum to 1 (tolerance 1e-9).
    Network rates are piecewise-constant (duration_s, bytes_per_s)
    segments, cycled over the trace duration.
    The vocab, args and return-value checks are the ones a ``SyscallEvent``
    makes, so every syscall row generated from a valid profile is valid.
    """

    name: str
    label: str  # "normal" | "malicious"
    syscall_vocab: tuple[str, ...]
    transition: tuple[tuple[float, ...], ...]
    rate_events_per_s: float
    cpu_envelope: tuple[float, float]  # (mean pct, std pct)
    rss_envelope: tuple[int, int]  # (base bytes, growth bytes/s)
    net_tx_rate: tuple[tuple[float, float], ...]  # (duration_s, bytes/s) segments
    net_rx_rate: tuple[tuple[float, float], ...]
    log_lines_per_s: float
    n_threads: int = 1
    args_choices: dict = field(default_factory=dict)  # syscall -> tuple of digests
    fail_retval: dict = field(default_factory=dict)  # syscall -> (prob, retval)

    def __post_init__(self):
        if self.label not in ("normal", "malicious"):
            raise InvalidProfile(f"label must be normal|malicious, got {self.label!r}")
        if not self.syscall_vocab:
            raise InvalidProfile("syscall_vocab must be non-empty")
        for name in self.syscall_vocab:
            if not isinstance(name, str) or not SYSCALL_NAME_RE.fullmatch(name):
                raise InvalidProfile(f"syscall name must match [a-z0-9_]{{1,{MAX_NAME}}}, got {name!r}")
        for name, choices in self.args_choices.items():
            if not isinstance(choices, tuple) or not all(isinstance(a, str) and len(a) <= MAX_ARGS for a in choices):
                raise InvalidProfile(f"args_choices[{name!r}] must be a tuple of strings of at most {MAX_ARGS} chars")
        for name, entry in self.fail_retval.items():
            if not (
                isinstance(entry, tuple)
                and len(entry) == 2
                and isinstance(entry[0], (int, float))
                and not isinstance(entry[0], bool)
                and 0.0 <= entry[0] <= 1.0
                and isinstance(entry[1], int)
                and not isinstance(entry[1], bool)
            ):
                raise InvalidProfile(f"fail_retval[{name!r}] must be (probability in [0, 1], integer), got {entry!r}")
        if len(self.transition) != len(self.syscall_vocab):
            raise InvalidProfile("transition must be square over the vocab")
        for i, row in enumerate(self.transition):
            if len(row) != len(self.syscall_vocab):
                raise InvalidProfile(f"transition row {i} has wrong length")
            if not all(0 <= p < math.inf for p in row):  # NaN fails too
                raise InvalidProfile(f"transition row {i} must hold finite entries >= 0")
            if abs(sum(row) - 1.0) > 1e-9:
                raise InvalidProfile(f"transition row {i} sums to {sum(row)!r}, not 1")
        if not 0 < self.rate_events_per_s < math.inf:
            raise InvalidProfile("rate_events_per_s must be finite and positive")
        if not 0 <= self.log_lines_per_s < math.inf:
            raise InvalidProfile("log_lines_per_s must be finite and >= 0")
        for segs in (self.net_tx_rate, self.net_rx_rate):
            for dur, rate in segs:
                if not (0 < dur < math.inf and 0 <= rate < math.inf):
                    raise InvalidProfile("net rate segments need a finite positive duration and a finite rate >= 0")
        if not all(-math.inf < x < math.inf for x in (*self.cpu_envelope, *self.rss_envelope)):
            raise InvalidProfile("cpu_envelope and rss_envelope must hold finite numbers")
        if not 1 <= self.n_threads <= MAX_THREADS:
            raise InvalidProfile(f"n_threads must be in [1, {MAX_THREADS}]")


@dataclass(frozen=True)
class ScenarioSpec:
    """How many traces of each class to generate, and from which profiles."""

    n_normal: int
    n_malicious: int
    duration_s: float = 120.0
    seed: int = 0
    profile_mix: dict = field(default_factory=dict)  # profile name -> weight

    def __post_init__(self):
        if self.n_normal < 0 or self.n_malicious < 0:
            raise InvalidSpec("trace counts must be >= 0")
        if self.duration_s <= 0:
            raise InvalidSpec("duration_s must be positive")
        for name, weight in self.profile_mix.items():
            if weight <= 0:
                raise InvalidSpec(f"profile weight for {name!r} must be positive")


def _chain(stationary: dict[str, float], self_loop: float = 0.15):
    """Markov chain whose stationary distribution is exactly ``stationary``.

    Rows are (1 - a) * stationary + a * I; the identity component adds self-
    transition structure without moving the stationary point.
    """
    total = sum(stationary.values())
    if abs(total - 1.0) > 1e-9:
        raise InvalidProfile(f"stationary distribution sums to {total!r}")
    vocab = tuple(stationary)
    probs = [stationary[t] for t in vocab]
    rows = []
    for i in range(len(vocab)):
        row = [(1.0 - self_loop) * p for p in probs]
        row[i] += self_loop
        rows.append(tuple(row))
    return vocab, tuple(rows)


# steady background of probing syscalls shared by every malicious profile;
# 0.28 of the stationary mass, absent from both normal profiles
_MALICIOUS_BACKGROUND = {"ptrace": 0.10, "prctl": 0.10, "kill": 0.08}


def _profile(name, label, stationary, rate, cpu, rss, tx, rx, logs, threads=1, args=None, fails=None):
    vocab, transition = _chain(stationary)
    return BehaviorProfile(
        name=name,
        label=label,
        syscall_vocab=vocab,
        transition=transition,
        rate_events_per_s=rate,
        cpu_envelope=cpu,
        rss_envelope=rss,
        net_tx_rate=tuple(tx),
        net_rx_rate=tuple(rx),
        log_lines_per_s=logs,
        n_threads=threads,
        args_choices=args or {},
        fail_retval=fails or {},
    )


MIB = 2**20


def builtin_profiles() -> list[BehaviorProfile]:
    """The six published profiles: 2 normal, 4 malicious."""
    flat = lambda rate: ((3600.0, float(rate)),)
    return [
        _profile(
            "batch-compute",
            "normal",
            {"read": 0.30, "write": 0.22, "brk": 0.12, "mmap": 0.12, "munmap": 0.06, "fstat": 0.08, "lseek": 0.06, "futex": 0.04},
            rate=40.0,
            cpu=(85.0, 6.0),
            rss=(256 * MIB, 200 * 1024),
            tx=flat(0),
            rx=flat(0),
            logs=0.2,
            threads=2,
        ),
        _profile(
            "data-transfer",
            "normal",
            {"recvfrom": 0.28, "sendto": 0.22, "read": 0.18, "write": 0.14, "poll": 0.08, "epoll_wait": 0.06, "fcntl": 0.04},
            rate=50.0,
            cpu=(20.0, 4.0),
            rss=(128 * MIB, 0),
            tx=flat(1_000_000),
            rx=flat(1_000_000),
            logs=0.5,
        ),
        _profile(
            "ddos-flood",
            "malicious",
            {"socket": 0.12, "connect": 0.16, "sendto": 0.24, "close": 0.12, "setsockopt": 0.08, **_MALICIOUS_BACKGROUND},
            rate=60.0,
            cpu=(30.0, 5.0),
            rss=(64 * MIB, 0),
            # alternating idle/burst phases; bursts exceed every normal profile's peak
            tx=((20.0, 10_000.0), (30.0, 60_000_000.0)),
            rx=flat(10_000),
            logs=0.1,
        ),
        _profile(
            "cryptominer",
            "malicious",
            {"sched_yield": 0.20, "futex": 0.26, "getrandom": 0.10, "read": 0.08, "write": 0.04, "nanosleep": 0.04, **_MALICIOUS_BACKGROUND},
            rate=25.0,
            cpu=(99.0, 1.0),
            rss=(512 * MIB, 0),
            # pool beacon: ~1 KB once per 60 s period
            tx=((59.0, 0.0), (1.0, 1000.0)),
            rx=flat(0),
            logs=0.05,
            threads=4,
        ),
        _profile(
            "priv-escalation",
            "malicious",
            {"open": 0.20, "setuid": 0.14, "execve": 0.12, "geteuid": 0.08, "chmod": 0.06, "stat": 0.12, **_MALICIOUS_BACKGROUND},
            rate=35.0,
            cpu=(45.0, 8.0),
            rss=(96 * MIB, 0),
            tx=flat(0),
            rx=flat(0),
            logs=1.0,
            args={
                "open": ("/etc/shadow", "/etc/sudoers", "/root/.ssh/id_rsa", "/etc/passwd"),
                "execve": ("/usr/bin/sudo", "/bin/su", "/usr/bin/pkexec"),
            },
            fails={"setuid": (0.8, -1), "open": (0.6, -13)},
        ),
        _profile(
            "scanner",
            "malicious",
            {"socket": 0.18, "connect": 0.34, "close": 0.18, "getsockopt": 0.02, **_MALICIOUS_BACKGROUND},
            rate=55.0,
            cpu=(25.0, 5.0),
            rss=(48 * MIB, 0),
            tx=flat(200_000),
            rx=flat(50_000),
            logs=0.3,
            args={"connect": ()},  # synthesized per event: varied ip:port digests
            fails={"connect": (0.7, -111)},
        ),
    ]


def profiles_by_name() -> dict[str, BehaviorProfile]:
    return {p.name: p for p in builtin_profiles()}


def _rate_at(segments, t: float) -> float:
    """Piecewise rate at time t; the segment list cycles."""
    period = sum(d for d, _ in segments)
    t = t % period
    for dur, rate in segments:
        if t < dur:
            return rate
        t -= dur
    return segments[-1][1]


_LOG_TEMPLATES = {
    "normal": (("info", "job heartbeat ok"), ("info", "checkpoint written"), ("debug", "worker tick")),
    "malicious": (("warn", "operation not permitted"), ("error", "permission denied"), ("info", "retrying connection")),
}


def _expected_events(rate: float, duration_s: float) -> int:
    """A first length for the chain walk: the mean event count plus four standard deviations."""
    mean = rate * duration_s
    return int(mean + 4.0 * math.sqrt(mean)) + 8


def _walk(rows: list, steps: list, state: int, uniforms: list, n: int) -> tuple[list, list, int]:
    """n steps of the Markov chain from ``state``: each event's state and the offset of its first draw.

    An event's draws start at its offset o: the interval, then the next state
    from the uniform ``uniforms[o]`` (which is draw o + 1: the list skips the
    first interval), then tid, args, fail and service draws, which ``steps``
    counts per state. ``rows`` holds each transition row's running sums, the
    sums ``SplitMix64.weighted_index`` forms, so ``bisect_right`` picks the
    index it picks. Returns the states, the offsets and the offset after the
    last event.
    """
    last = len(steps) - 1
    table = [(sums, sums[-1]) for sums in rows]
    states = [0] * n
    offsets = [0] * n
    o = 0
    for i in range(n):
        sums, total = table[state]
        state = states[i] = bisect_right(sums, uniforms[o] * total, 0, last)
        offsets[i] = o
        o += steps[state]
    return states, offsets, o


def _trace_rows(profile: BehaviorProfile, duration_s: float, job_id: str, seed: int) -> tuple:
    """The generator core: a trace's pid and its rows, sorted by time, as codes.

    Returns ``(pid, t_ns, codes, keys, others)``: row i is the syscall key
    ``keys[codes[i]]``, a ``(tid, name, args, retval)`` tuple with retval None
    on enter, at ``t_ns[i]``, or the resource sample or log record
    ``others[-1 - codes[i]]``. Equal times keep generation order: each
    event's enter and exit, then samples, then logs.
    """
    if duration_s <= 0:
        raise InvalidProfile("duration_s must be positive")
    rng = SplitMix64(seed)
    pid = 1000 + rng.randrange(9000)
    duration_ns = int(duration_s * 1e9)

    # --- syscall enter/exit pairs driven by the Markov chain -----------------
    vocab = profile.syscall_vocab
    weights0 = [sum(row[j] for row in profile.transition) / len(vocab) for j in range(len(vocab))]
    state = rng.weighted_index(weights0)
    # draws per event: interval, state, tid, args (none, a choice, or three for
    # a synthesized ip:port), a fail draw for a name that can fail, service time
    n_args = [0 if name not in profile.args_choices else 1 if profile.args_choices[name] else 3 for name in vocab]
    can_fail = [name in profile.fail_retval for name in vocab]
    steps = [4 + a + f for a, f in zip(n_args, can_fail)]
    row_sums = [list(accumulate(row)) for row in profile.transition]
    n = _expected_events(profile.rate_events_per_s, duration_s)
    while True:
        # draw k of this array is draw 2 + k of the trace's stream
        draws = splitmix64_outputs(seed, 2, n * max(steps) + 1)
        uniforms = (draws >> np.uint64(11)) * 2.0**-53
        states, offsets, end = _walk(row_sums, steps, state, uniforms[1:].tolist(), n)
        offsets.append(end)  # the interval draw after the last event walked
        of = np.array(offsets)
        gaps = list(map(math.log, (1.0 - uniforms[of]).tolist()))
        t = np.add.accumulate(-np.array(gaps) / profile.rate_events_per_s)  # in the order of t += gap
        count = int(t.searchsorted(duration_s))  # events before the first time past the trace's end
        if count <= n:
            break
        n = 2 * n + 1
    rng = SplitMix64(seed, 2 + offsets[count] + 1)  # samples and logs draw after the interval that ended the trace
    t = t[:count]
    st = np.array(states[:count], dtype=np.int64)
    of = of[:count]
    t_ns = (t * 1e9).astype(np.int64)
    tid = pid + (draws[of + 2] % np.uint64(profile.n_threads)).astype(np.int64)
    args = [""]  # args strings; arg_id indexes them
    arg_id = np.zeros(count, dtype=np.int64)
    failed = np.zeros(count, dtype=bool)
    for s, name in enumerate(vocab):
        if not (n_args[s] or can_fail[s]):
            continue
        mine = st == s
        at = of[mine] + 3
        if n_args[s] == 1:
            choices = profile.args_choices[name]
            arg_id[mine] = len(args) + (draws[at] % np.uint64(len(choices))).astype(np.int64)
            args += choices
        elif n_args[s] == 3:
            ip = (
                (draws[at] % np.uint64(256)) << np.uint64(24)
                | (draws[at + 1] % np.uint64(256)) << np.uint64(16)
                | draws[at + 2] % np.uint64(65536)
            )
            distinct, inverse = np.unique(ip.astype(np.int64), return_inverse=True)
            arg_id[mine] = len(args) + inverse
            args += [f"10.0.{v >> 24}.{v >> 16 & 255}:{v & 65535}" for v in distinct.tolist()]
        if can_fail[s]:
            failed[mine] = uniforms[at + n_args[s]] < profile.fail_retval[name][0]
    service_ns = 1000 + (draws[of + np.array(steps)[st] - 1] % np.uint64(49000)).astype(np.int64)

    # each event's enter row, then its exit row; one key per distinct (tid, name, args, retval)
    row_t = np.stack([t_ns, np.minimum(t_ns + service_ns, duration_ns - 1)], axis=1).ravel()
    row_kind = np.stack([np.zeros(count, dtype=np.int64), 1 + failed], axis=1).ravel()  # enter, exit, failed exit
    _, tid_id = np.unique(tid, return_inverse=True)  # dense, so the key stays within int64
    event_key = (tid_id * len(vocab) + st) * len(args) + arg_id
    _, first, codes = np.unique(np.repeat(event_key, 2) * 3 + row_kind, return_index=True, return_inverse=True)
    i = first >> 1  # the event of each key's first row
    bad = [profile.fail_retval[name][1] if f else None for name, f in zip(vocab, can_fail)]
    keys = [
        (tid, vocab[s], args[a], None if kind == 0 else 0 if kind == 1 else bad[s])
        for tid, s, a, kind in zip(tid[i].tolist(), st[i].tolist(), arg_id[i].tolist(), row_kind[first].tolist())
    ]

    # --- resource samples every second ---------------------------------------
    sec = t.astype(np.int64)
    n_samples = int(duration_s // SAMPLE_PERIOD_S)
    reads = np.isin(st, [s for s, name in enumerate(vocab) if name in ("read", "recvfrom")])
    writes = np.isin(st, [s for s, name in enumerate(vocab) if name in ("write", "sendto")])
    read_counts = np.bincount(sec[reads], minlength=n_samples).tolist()  # read-ish enters per second
    write_counts = np.bincount(sec[writes], minlength=n_samples).tolist()
    others: list = []
    cpu_mean, cpu_std = profile.cpu_envelope
    rss_base, rss_growth = profile.rss_envelope
    rx = tx = io_r = io_w = 0
    for s in range(1, n_samples + 1):
        t_s = s * SAMPLE_PERIOD_S
        cpu = max(0.0, rng.gauss(cpu_mean, cpu_std))
        rss = max(0, int(rss_base + rss_growth * t_s + rng.gauss(0.0, rss_base * 0.005)))
        jitter = 1.0 + rng.uniform_in(-JITTER_FRAC, JITTER_FRAC)
        rx += max(0, int(_rate_at(profile.net_rx_rate, t_s - SAMPLE_PERIOD_S) * SAMPLE_PERIOD_S * jitter))
        jitter = 1.0 + rng.uniform_in(-JITTER_FRAC, JITTER_FRAC)
        tx += max(0, int(_rate_at(profile.net_tx_rate, t_s - SAMPLE_PERIOD_S) * SAMPLE_PERIOD_S * jitter))
        io_r += read_counts[s - 1] * 8192
        io_w += write_counts[s - 1] * 4096
        others.append(
            ResourceSample(
                t_ns=int(t_s * 1e9) if t_s < duration_s else duration_ns - 1,
                job_id=job_id,
                cpu_pct=cpu,
                rss_bytes=rss,
                net_rx_bytes=rx,
                net_tx_bytes=tx,
                io_read_bytes=io_r,
                io_write_bytes=io_w,
            )
        )

    # --- log lines ------------------------------------------------------------
    if profile.log_lines_per_s > 0:
        templates = _LOG_TEMPLATES[profile.label]
        t_log = 0.0
        ln = 0
        while True:
            t_log += rng.expovariate(profile.log_lines_per_s)
            if t_log >= duration_s:
                break
            severity, text = templates[rng.randrange(len(templates))]
            ln += 1
            others.append(
                LogRecord(
                    t_ns=int(t_log * 1e9),
                    job_id=job_id,
                    source=profile.name,
                    severity=severity,
                    message=f"{text} seq={ln}",
                )
            )

    all_t = np.concatenate([row_t, np.array([r.t_ns for r in others], dtype=np.int64)])
    all_codes = np.concatenate([codes, -1 - np.arange(len(others))])
    order = all_t.argsort(kind="stable")  # equal times keep generation order
    return pid, all_t[order].tolist(), all_codes[order].tolist(), keys, others


def gen_trace(profile: BehaviorProfile, duration_s: float, job_id: str, seed: int) -> LabeledTrace:
    """Generate one labeled trace: time-ordered, one job_id, cumulative counters that never go down."""
    pid, t_ns, codes, keys, others = _trace_rows(profile, duration_s, job_id, seed)
    fields = [(tid, name, ENTER if retval is None else EXIT, args, retval) for tid, name, args, retval in keys]
    records = [SyscallEvent(t, job_id, pid, *fields[c]) if c >= 0 else others[-1 - c] for t, c in zip(t_ns, codes)]
    return LabeledTrace(job_id=job_id, label=profile.label, profile_name=profile.name, records=tuple(records))


# --- dataset generation -------------------------------------------------------

def gen_dataset(spec: ScenarioSpec, out_dir) -> dict:
    """Write the corpus and its manifest; returns the manifest dict.

    Files are named ``<label>-<profile>-<index>.trc`` with a global index
    (normal traces first). The per-trace seed is FNV-1a-64 over (seed, index);
    the profile draw for a trace uses an independent tagged sub-seed so it
    does not alias the trace's own stream.
    """
    profiles = profiles_by_name()
    mix = spec.profile_mix or {name: 1.0 for name in profiles}
    for name in mix:
        if name not in profiles:
            raise InvalidSpec(f"unknown profile {name!r}")
    by_label = {
        "normal": sorted(n for n in mix if profiles[n].label == "normal"),
        "malicious": sorted(n for n in mix if profiles[n].label == "malicious"),
    }
    if spec.n_normal > 0 and not by_label["normal"]:
        raise InvalidSpec("no normal profile in the mix")
    if spec.n_malicious > 0 and not by_label["malicious"]:
        raise InvalidSpec("no malicious profile in the mix")

    os.makedirs(out_dir, exist_ok=True)
    entries = []
    total = spec.n_normal + spec.n_malicious
    for index in range(total):
        label = "normal" if index < spec.n_normal else "malicious"
        trace_seed = derive_seed(spec.seed, index)
        choice_rng = SplitMix64(derive_tagged_seed(trace_seed, "profile"))
        names = by_label[label]
        name = names[choice_rng.weighted_index([mix[n] for n in names])]
        job_id = f"job-{index:04d}"
        pid, t_ns, codes, keys, others = _trace_rows(profiles[name], spec.duration_s, job_id, trace_seed)
        filename = f"{label}-{name}-{index:04d}.trc"
        write_coded_rows(os.path.join(out_dir, filename), job_id, pid, t_ns, codes, keys, others)
        entries.append({"file": filename, "job_id": job_id, "label": label, "profile": name, "seed": trace_seed})

    manifest = {"seed": spec.seed, "duration_s": spec.duration_s, "entries": entries}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return manifest
