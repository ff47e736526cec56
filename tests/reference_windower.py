"""Reference windower: the window rule applied one record at a time, kept as a test oracle.

It follows the documented rule of ``warden.features.Windower`` with none of
its machinery: no column chunks, interners, integer codes or bincount. It
keeps every record it is given, inserts a record older than the newest of
its kind after the records with the same timestamp, and builds each window's
n-gram block from the window's own SyscallEvent list.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from warden.features import FeatureConfig, Windower, hash_bucket
from warden.records import ENTER, ResourceSample, SyscallEvent, TraceColumns


@dataclass(frozen=True)
class ReferenceWindow:
    job_id: str
    index: int
    t_start_ns: int
    t_end_ns: int
    events: tuple[SyscallEvent, ...]
    samples: tuple[ResourceSample, ...]
    ngrams: np.ndarray


def reference_ngrams(events, config: FeatureConfig) -> np.ndarray:
    """L1-normalized hashed n-gram counts over the enter events; an n-gram stays inside one (pid, tid) thread."""
    per_thread: dict[tuple[int, int], list[str]] = {}
    for e in events:
        if e.direction == ENTER:
            per_thread.setdefault((e.pid, e.tid), []).append(e.name)
    counts = np.zeros(config.hash_dim, dtype=np.int64)
    for names in per_thread.values():
        for n in config.ngram_orders:
            for i in range(len(names) - n + 1):
                counts[hash_bucket("|".join(names[i : i + n]), config.hash_dim)] += 1
    vec = counts.astype(np.float64)
    total = int(counts.sum())
    if total:
        vec /= float(total)
    return vec


class ReferenceWindower:
    """Window k is [t0 + k*hop, t0 + k*hop + window); any record at or past its end closes it."""

    def __init__(self, config: FeatureConfig, job_id: str = "j1"):
        self.config = config
        self.job_id = job_id
        self.t0: int | None = None
        self.t_max = 0
        self.k = 0
        self.events: list[SyscallEvent] = []
        self.samples: list[ResourceSample] = []

    def push(self, record) -> list[ReferenceWindow]:
        t = record.t_ns
        if self.t0 is None:
            self.t0 = self.t_max = t
        self.t_max = max(self.t_max, t)
        closed: list[ReferenceWindow] = []
        while t >= self._start(self.k) + self.config.window_ns:
            closed += self._close()
        if isinstance(record, SyscallEvent):
            bisect.insort_right(self.events, record, key=lambda r: r.t_ns)
        elif isinstance(record, ResourceSample):
            bisect.insort_right(self.samples, record, key=lambda r: r.t_ns)
        return closed

    def finish(self) -> list[ReferenceWindow]:
        closed: list[ReferenceWindow] = []
        if self.t0 is not None:
            while self._start(self.k) <= self.t_max:
                closed += self._close()
        return closed

    def _start(self, k: int) -> int:
        return self.t0 + k * self.config.hop_ns

    def _close(self) -> list[ReferenceWindow]:
        start = self._start(self.k)
        end = start + self.config.window_ns
        self.k += 1
        events = tuple(e for e in self.events if start <= e.t_ns < end)
        if not events:
            return []
        carry_in = [s for s in self.samples if s.t_ns < start][-1:]
        inside = [s for s in self.samples if start <= s.t_ns < end]
        ngrams = reference_ngrams(events, self.config)
        return [ReferenceWindow(self.job_id, self.k - 1, start, end, events, tuple(carry_in + inside), ngrams)]


def reference_windows(records, config: FeatureConfig, job_id: str = "j1") -> list[ReferenceWindow]:
    windower = ReferenceWindower(config, job_id)
    return [w for record in records for w in windower.push(record)] + windower.finish()


def fed_in_chunks(records, config: FeatureConfig, cuts=(), job_id: str = "j1", separate_tables: bool = False):
    """warden's windows for ``records`` pushed as TraceColumns chunks cut at row numbers ``cuts``.

    With ``separate_tables`` each chunk is built on its own, so chunks number
    names and threads differently; otherwise they are slices of one table.
    """
    records = list(records)
    bounds = [0, *sorted(set(cuts)), len(records)]
    whole = TraceColumns.from_records(records, job_id)
    windower = Windower(config, job_id)
    windows = []
    for a, b in zip(bounds, bounds[1:]):
        chunk = TraceColumns.from_records(records[a:b], job_id) if separate_tables else whole[a:b]
        windows += windower.push_columns(chunk)
    return windows + windower.finish()


def comparable(windows) -> list[tuple]:
    """What a window is compared on: index, bounds, samples and the n-gram block's bytes."""
    return [(w.index, w.t_start_ns, w.t_end_ns, w.samples, w.ngrams.tobytes()) for w in windows]
