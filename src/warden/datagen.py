"""Deterministic synthetic trace generator with labeled behavior profiles.

Real farm telemetry and captured malware runs cannot ship with the code, so
training and evaluation run against seeded surrogates: each profile is a
first-order Markov chain over syscall names plus resource/log envelopes.
Malicious profiles model the classic batch-farm abuse patterns (flooding,
coin mining, privilege escalation, lateral scanning) and share a low-rate
background of probing syscalls, which makes the two classes separable by
construction and the ML acceptance thresholds meaningful.

Generation is byte-deterministic in (profile, duration, job_id, seed): all
randomness flows through one splitmix64 stream consumed in a fixed order.
One generator core produces a trace's time-sorted rows, and two views read
them: ``gen_dataset`` hands the rows to ``records.write_trace_rows``, which
writes each syscall row straight to its canonical ``.trc`` line, and
``gen_trace`` returns the rows as records. A profile's checks cover every
field a syscall row takes from it, so the rows need no per-event validation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from operator import itemgetter

from .hashing import SplitMix64, derive_seed, derive_tagged_seed
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
    write_trace_rows,
)

SAMPLE_PERIOD_S = 1.0
JITTER_FRAC = 0.05


class InvalidProfile(ValueError):
    """A behavior profile violates its invariants."""


class InvalidSpec(ValueError):
    """A scenario spec violates its invariants."""


@dataclass(frozen=True)
class BehaviorProfile:
    """Parameters of one synthetic job behavior.

    ``transition`` rows follow ``syscall_vocab`` order and each row must sum
    to 1 (tolerance 1e-9). Network rates are piecewise-constant
    (duration_s, bytes_per_s) segments, cycled over the trace duration.
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
            if any(p < 0 for p in row):
                raise InvalidProfile(f"transition row {i} has negative entries")
            if abs(sum(row) - 1.0) > 1e-9:
                raise InvalidProfile(f"transition row {i} sums to {sum(row)!r}, not 1")
        if self.rate_events_per_s <= 0:
            raise InvalidProfile("rate_events_per_s must be positive")
        if self.log_lines_per_s < 0:
            raise InvalidProfile("log_lines_per_s must be >= 0")
        for segs in (self.net_tx_rate, self.net_rx_rate):
            for dur, rate in segs:
                if dur <= 0 or rate < 0:
                    raise InvalidProfile("net rate segments need positive duration, rate >= 0")
        if self.n_threads < 1:
            raise InvalidProfile("n_threads must be >= 1")


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


def _trace_rows(profile: BehaviorProfile, duration_s: float, job_id: str, seed: int) -> tuple[int, list[tuple]]:
    """The generator core: a trace's pid and its rows, sorted by time.

    A syscall row is ``(t_ns, tid, name, args, retval)`` with retval None on
    enter; a resource sample or log line is ``(t_ns, record)``. Equal times
    keep generation order: syscalls, then samples, then logs.
    """
    if duration_s <= 0:
        raise InvalidProfile("duration_s must be positive")
    rng = SplitMix64(seed)
    pid = 1000 + rng.randrange(9000)
    duration_ns = int(duration_s * 1e9)

    rows: list[tuple] = []
    records: list = []  # resource samples and logs

    # --- syscall enter/exit pairs driven by the Markov chain -----------------
    vocab = profile.syscall_vocab
    weights0 = [sum(row[j] for row in profile.transition) / len(vocab) for j in range(len(vocab))]
    state = rng.weighted_index(weights0)
    t = 0.0
    read_counts: dict[int, int] = {}  # second index -> read-ish enters (drives io counters)
    write_counts: dict[int, int] = {}
    while True:
        t += rng.expovariate(profile.rate_events_per_s)
        if t >= duration_s:
            break
        state = rng.weighted_index(profile.transition[state])
        name = vocab[state]
        tid = pid + rng.randrange(profile.n_threads)
        t_ns = int(t * 1e9)
        args = ""
        if name in profile.args_choices:
            choices = profile.args_choices[name]
            if choices:
                args = choices[rng.randrange(len(choices))]
            else:
                args = f"10.0.{rng.randrange(256)}.{rng.randrange(256)}:{rng.randrange(65536)}"
        retval = 0
        if name in profile.fail_retval:
            prob, bad = profile.fail_retval[name]
            if rng.uniform() < prob:
                retval = bad
        service_ns = 1000 + rng.randrange(49000)
        rows.append((t_ns, tid, name, args, None))
        rows.append((min(t_ns + service_ns, duration_ns - 1), tid, name, args, retval))
        sec = int(t)
        if name in ("read", "recvfrom"):
            read_counts[sec] = read_counts.get(sec, 0) + 1
        elif name in ("write", "sendto"):
            write_counts[sec] = write_counts.get(sec, 0) + 1

    # --- resource samples every second ---------------------------------------
    cpu_mean, cpu_std = profile.cpu_envelope
    rss_base, rss_growth = profile.rss_envelope
    rx = tx = io_r = io_w = 0
    n_samples = int(duration_s // SAMPLE_PERIOD_S)
    for s in range(1, n_samples + 1):
        t_s = s * SAMPLE_PERIOD_S
        cpu = max(0.0, rng.gauss(cpu_mean, cpu_std))
        rss = max(0, int(rss_base + rss_growth * t_s + rng.gauss(0.0, rss_base * 0.005)))
        jitter = 1.0 + rng.uniform_in(-JITTER_FRAC, JITTER_FRAC)
        rx += max(0, int(_rate_at(profile.net_rx_rate, t_s - SAMPLE_PERIOD_S) * SAMPLE_PERIOD_S * jitter))
        jitter = 1.0 + rng.uniform_in(-JITTER_FRAC, JITTER_FRAC)
        tx += max(0, int(_rate_at(profile.net_tx_rate, t_s - SAMPLE_PERIOD_S) * SAMPLE_PERIOD_S * jitter))
        io_r += read_counts.get(s - 1, 0) * 8192
        io_w += write_counts.get(s - 1, 0) * 4096
        records.append(
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
        t = 0.0
        ln = 0
        while True:
            t += rng.expovariate(profile.log_lines_per_s)
            if t >= duration_s:
                break
            severity, text = templates[rng.randrange(len(templates))]
            ln += 1
            records.append(
                LogRecord(
                    t_ns=int(t * 1e9),
                    job_id=job_id,
                    source=profile.name,
                    severity=severity,
                    message=f"{text} seq={ln}",
                )
            )

    rows += [(r.t_ns, r) for r in records]
    rows.sort(key=itemgetter(0))  # Python sort is stable: equal times keep gen order
    return pid, rows


def gen_trace(profile: BehaviorProfile, duration_s: float, job_id: str, seed: int) -> LabeledTrace:
    """Generate one labeled trace: time-ordered, one job_id, cumulative counters that never go down."""
    pid, rows = _trace_rows(profile, duration_s, job_id, seed)
    records = [
        row[1] if len(row) == 2
        else SyscallEvent(row[0], job_id, pid, row[1], row[2], ENTER if row[4] is None else EXIT, row[3], row[4])
        for row in rows
    ]
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
        pid, rows = _trace_rows(profiles[name], spec.duration_s, job_id, trace_seed)
        filename = f"{label}-{name}-{index:04d}.trc"
        write_trace_rows(os.path.join(out_dir, filename), job_id, pid, rows)
        entries.append({"file": filename, "job_id": job_id, "label": label, "profile": name, "seed": trace_seed})

    manifest = {"seed": spec.seed, "duration_s": spec.duration_s, "entries": entries}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return manifest
