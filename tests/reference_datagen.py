"""Reference generator: the per-event generator loop and its row writer, kept as a test oracle.

``reference_trace_rows`` draws every field of every event from one
``SplitMix64`` in stream order, one event at a time, as the generator did
before its core drew the events from one array; ``write_trace_rows`` writes
its rows one f-string per syscall row. ``warden.datagen`` must give the same
records and the same file bytes.
"""

from __future__ import annotations

import json
from operator import itemgetter

from warden.datagen import _LOG_TEMPLATES, JITTER_FRAC, SAMPLE_PERIOD_S, InvalidProfile, _rate_at
from warden.hashing import SplitMix64
from warden.records import ENTER, EXIT, LogRecord, ResourceSample, SyscallEvent, serialize_line


def reference_trace_rows(profile, duration_s: float, job_id: str, seed: int) -> tuple[int, list[tuple]]:
    """A trace's pid and its rows, sorted by time.

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
                LogRecord(t_ns=int(t * 1e9), job_id=job_id, source=profile.name, severity=severity, message=f"{text} seq={ln}")
            )

    rows += [(r.t_ns, r) for r in records]
    rows.sort(key=itemgetter(0))  # Python sort is stable: equal times keep gen order
    return pid, rows


def reference_records(job_id: str, pid: int, rows) -> list:
    """The rows of ``reference_trace_rows`` as records."""
    return [
        row[1] if len(row) == 2
        else SyscallEvent(row[0], job_id, pid, row[1], row[2], ENTER if row[4] is None else EXIT, row[3], row[4])
        for row in rows
    ]


def write_trace_rows(path, job_id: str, pid: int, rows) -> None:
    """Write one job's rows, one line each: a syscall row by its own f-string, any other row through serialize_line."""
    ids = f'"job_id":{json.dumps(job_id, ensure_ascii=False)},"pid":{pid}'
    lines = []
    for row in rows:
        if len(row) == 2:
            lines.append(serialize_line(row[1]))
            continue
        t_ns, tid, name, args, retval = row
        encoded = json.dumps(args, ensure_ascii=False)
        if retval is None:
            lines.append(f'{{"kind":"sys","t_ns":{t_ns},{ids},"tid":{tid},"name":"{name}","dir":"enter","args":{encoded}}}')
        else:
            lines.append(f'{{"kind":"sys","t_ns":{t_ns},{ids},"tid":{tid},"name":"{name}","dir":"exit","args":{encoded},"ret":{retval}}}')
    lines.append("")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
