"""Windowed feature extraction: hashed syscall n-grams plus resource statistics.

A trace is cut into overlapping time windows. Each window becomes one fixed-
dimension vector: ``hash_dim`` L1-normalized n-gram frequency buckets over the
syscall names (FNV-1a-64 feature hashing, n-grams never cross thread
boundaries) followed by 12 resource-usage statistics. Extraction is a pure
function of (trace, config) with a fixed floating-point summation order, so
outputs are byte-identical across runs and platforms.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field

import numpy as np

from .hashing import fnv1a64
from .records import ENTER, RES_ROW, SYS_ROW, Interner, ResourceSample, SyscallEvent, TraceColumns, UnsortedInput

RESOURCE_DIM = 12

RESOURCE_FEATURE_NAMES = (
    "cpu_mean",
    "cpu_std",
    "cpu_max",
    "rss_mean_mib",
    "rss_std_mib",
    "rss_max_mib",
    "net_rx_rate_mean",
    "net_rx_rate_max",
    "net_tx_rate_mean",
    "net_tx_rate_max",
    "io_read_rate_mean",
    "io_write_rate_mean",
)

STD_FLOOR = 1e-8


class EmptyTrace(ValueError):
    """The trace holds no records at all."""


class EmptyDataset(ValueError):
    """An operation requiring at least one vector received none."""


class DimensionMismatch(ValueError):
    """Vector dimension differs from what the model or scaler was built for."""


@dataclass(frozen=True)
class FeatureConfig:
    """All extraction parameters; fingerprinted alongside trained models."""

    window_s: float = 10.0
    hop_s: float = 5.0
    ngram_orders: tuple[int, ...] = (1, 2)
    hash_dim: int = 256
    schema_version: int = 1

    def __post_init__(self):
        if not self.window_s > 0 or not self.hop_s > 0:
            raise ValueError("window_s and hop_s must be positive")
        if self.hop_s > self.window_s:
            raise ValueError("hop_s must not exceed window_s")
        orders = tuple(sorted(set(int(n) for n in self.ngram_orders)))
        if not orders or not set(orders) <= {1, 2, 3}:
            raise ValueError("ngram_orders must be a non-empty subset of {1, 2, 3}")
        object.__setattr__(self, "ngram_orders", orders)
        if self.hash_dim < 16 or self.hash_dim & (self.hash_dim - 1) != 0:
            raise ValueError("hash_dim must be a power of two, at least 16")

    @property
    def dim(self) -> int:
        return self.hash_dim + RESOURCE_DIM

    @property
    def window_ns(self) -> int:
        return int(round(self.window_s * 1e9))

    @property
    def hop_ns(self) -> int:
        return int(round(self.hop_s * 1e9))

    def to_dict(self) -> dict:
        return {
            "window_s": self.window_s,
            "hop_s": self.hop_s,
            "ngram_orders": list(self.ngram_orders),
            "hash_dim": self.hash_dim,
            "schema_version": self.schema_version,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureConfig":
        return cls(
            window_s=data["window_s"],
            hop_s=data["hop_s"],
            ngram_orders=tuple(data["ngram_orders"]),
            hash_dim=data["hash_dim"],
            schema_version=data["schema_version"],
        )


@dataclass(frozen=True)
class Window:
    """One time slice of a trace.

    ``samples`` includes the last resource sample before the window start so
    rate deltas are defined for the first in-window sample. ``ngrams`` is the
    window's L1-normalized n-gram block. ``events`` holds the window's
    SyscallEvent records when its Windower was fed records, and is empty when
    it was fed TraceColumns.
    """

    job_id: str
    index: int
    t_start_ns: int
    t_end_ns: int
    events: tuple[SyscallEvent, ...]
    samples: tuple[ResourceSample, ...]
    ngrams: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class FeatureVector:
    """Fixed-dimension representation of one window."""

    job_id: str
    window_index: int
    values: np.ndarray
    schema_version: int = 1

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("values must be a 1-D vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("feature values must be finite")
        object.__setattr__(self, "values", values)


def _event_code(name_id, thread_id, enter):
    """A syscall event's buffered code: name id << 32 | thread id << 1 | enter flag (ints or int arrays)."""
    return name_id << 32 | thread_id << 1 | enter


class _GramBuckets(dict):
    """Feature-hashing bucket of each n-gram, keyed by its tuple of name ids."""

    def __init__(self, names: list[str], buckets: int):
        super().__init__()
        self.names = names  # grows with the windower's name interner
        self.buckets = buckets

    def __missing__(self, ids: tuple[int, ...]) -> int:
        self[ids] = bucket = hash_bucket("|".join(self.names[i] for i in ids), self.buckets)
        return bucket


class Windower:
    """Cuts one job's record stream into hop-spaced windows.

    Window k covers [t0 + k*hop, t0 + k*hop + window), where ``t0`` is the
    first record's timestamp. A window closes when a record at or past its end
    arrives (any record kind acts as the watermark); ``finish`` closes the rest,
    up to the last window starting at or before the newest record. Only windows
    holding at least one syscall event are emitted. A record older than the
    newest buffered record of its kind (a wall clock stepping back) is inserted
    at its timestamp, so every window's records stay time-ordered.

    Records arrive one at a time through ``push``, or as a whole trace through
    ``push_columns``. A syscall event is buffered as its timestamp and one
    integer code (see ``_event_code``), a resource sample as its record.
    """

    def __init__(self, config: FeatureConfig, job_id: str):
        self.config = config
        self.job_id = job_id
        self.t0: int | None = None
        self._t_max = 0
        self._k = 0
        self._next_end = 0
        self._event_ts: list[int] = []
        self._event_code: list[int] = []
        self._events: list[SyscallEvent] | None = []  # None once fed columns
        self._samples: list[ResourceSample] = []
        self._sample_ts: list[int] = []
        self._names = Interner()
        self._threads = Interner()
        self._unigrams = np.zeros(0, dtype=np.int64)  # bucket of each name id
        self._grams = _GramBuckets(self._names.ordered, config.hash_dim)  # longer orders

    def push(self, record) -> list[Window]:
        """Buffer one record; return the windows it closes, in window order."""
        if isinstance(record, SyscallEvent):
            thread = self._threads[record.pid, record.tid]
            code = _event_code(self._names[record.name], thread, record.direction == ENTER)
            return self._push(record.t_ns, code, record)
        return self._push(record.t_ns, None, record if isinstance(record, ResourceSample) else None)

    def push_columns(self, trace: TraceColumns) -> list[Window]:
        """Buffer a whole trace; return the windows it closes, in window order.

        Needs a fresh windower. A time-sorted trace is buffered at once; any
        other is pushed row by row, so that late rows land where ``push``
        puts them. The windower keeps no event records from here on.
        """
        if self.t0 is not None:
            raise ValueError("push_columns needs a fresh Windower")
        self._events = None
        self._names, self._threads = Interner(trace.names), Interner(trace.threads)
        self._grams = _GramBuckets(self._names.ordered, self.config.hash_dim)
        t = trace.t_ns
        codes = _event_code(trace.name_id, trace.thread_id, trace.enter)
        if len(t) and np.all(t[1:] >= t[:-1]):
            events = trace.kind == SYS_ROW
            self._event_ts = t[events].tolist()
            self._event_code = codes[events].tolist()
            self._samples = list(trace.samples)
            self._sample_ts = [s.t_ns for s in trace.samples]
            self._push(int(t[0]), None, None)  # sets t0
            return self._push(int(t[-1]), None, None)  # the newest record closes what it would have in push
        closed: list[Window] = []
        samples = iter(trace.samples)
        for t_ns, kind, code in zip(t.tolist(), trace.kind.tolist(), codes.tolist()):
            if kind == SYS_ROW:
                closed += self._push(t_ns, code, None)
            else:
                closed += self._push(t_ns, None, next(samples) if kind == RES_ROW else None)
        return closed

    def _push(self, t: int, code: int | None, record) -> list[Window]:
        """Advance the watermark to ``t`` and buffer a syscall event or a resource sample, if given."""
        if self.t0 is None:
            self.t0 = self._t_max = t
            self._next_end = t + self.config.window_ns
        elif t > self._t_max:
            self._t_max = t
        closed: list[Window] = []
        if t >= self._next_end:
            while t >= self._next_end:
                self._close(closed)
            self._drop_consumed()
        if code is not None:
            ts, codes, records = self._event_ts, self._event_code, self._events
            if ts and t < ts[-1]:
                i = bisect.bisect_right(ts, t)
                ts.insert(i, t)
                codes.insert(i, code)
                if records is not None:
                    records.insert(i, record)
            else:  # the common case, and append is much cheaper than insert
                ts.append(t)
                codes.append(code)
                if records is not None:
                    records.append(record)
        elif record is not None:
            ts = self._sample_ts
            i = bisect.bisect_right(ts, t) if ts and t < ts[-1] else len(ts)
            ts.insert(i, t)
            self._samples.insert(i, record)
        return closed

    def finish(self) -> list[Window]:
        """Close every remaining window whose start is at most the newest record time."""
        closed: list[Window] = []
        if self.t0 is not None:
            while self.t0 + self._k * self.config.hop_ns <= self._t_max:
                self._close(closed)
        return closed

    def _close(self, out: list[Window]) -> None:
        """Close window k; append it to ``out`` if it holds a syscall event."""
        start = self.t0 + self._k * self.config.hop_ns
        end = start + self.config.window_ns
        lo = bisect.bisect_left(self._event_ts, start)
        hi = bisect.bisect_left(self._event_ts, end)
        if hi > lo:
            # from the last sample before the window, for delta computation
            s_lo = max(bisect.bisect_left(self._sample_ts, start) - 1, 0)
            s_hi = bisect.bisect_left(self._sample_ts, end)
            out.append(
                Window(
                    job_id=self.job_id,
                    index=self._k,
                    t_start_ns=start,
                    t_end_ns=end,
                    events=() if self._events is None else tuple(self._events[lo:hi]),
                    samples=tuple(self._samples[s_lo:s_hi]),
                    ngrams=self._ngrams(lo, hi),
                )
            )
        self._k += 1
        self._next_end = end + self.config.hop_ns

    def _ngrams(self, lo: int, hi: int) -> np.ndarray:
        """L1-normalized hashed n-gram frequencies over the enter events of buffer rows [lo, hi).

        An n-gram is n consecutive enter events of one (pid, tid) thread, so
        n-grams never cross threads. Counts are exact integers before the
        single normalizing division, so the result is bit-deterministic.
        """
        codes = np.array(self._event_code[lo:hi], dtype=np.int64)
        codes = codes[(codes & 1).astype(bool)]  # enter events
        names, threads = codes >> 32, (codes >> 1) & 0x7FFFFFFF
        order = np.argsort(threads, kind="stable")  # each thread's events together, still in time order
        names, threads = names[order], threads[order]
        dim = self.config.hash_dim
        if len(self._unigrams) != len(self._names):  # new names since the last window
            self._unigrams = np.array([hash_bucket(name, dim) for name in self._names.ordered], dtype=np.int64)
        counts = np.zeros(dim, dtype=np.int64)
        total = 0
        for n in self.config.ngram_orders:
            if n == 1:
                buckets = self._unigrams[names]
            else:
                m = max(len(names) - n + 1, 0)
                starts = np.flatnonzero(threads[:m] == threads[n - 1 : n - 1 + m])
                grams = zip(*(names[starts + j].tolist() for j in range(n)))
                buckets = np.fromiter(map(self._grams.__getitem__, grams), dtype=np.int64, count=len(starts))
            counts += np.bincount(buckets, minlength=dim)
            total += len(buckets)
        vec = counts.astype(np.float64)
        if total:
            vec /= float(total)
        return vec

    def _drop_consumed(self) -> None:
        """Forget records no later window holds, keeping the carry-in sample."""
        start = self.t0 + self._k * self.config.hop_ns
        n = bisect.bisect_left(self._event_ts, start)
        del self._event_ts[:n], self._event_code[:n]
        if self._events is not None:
            del self._events[:n]
        n = max(bisect.bisect_left(self._sample_ts, start) - 1, 0)
        del self._samples[:n], self._sample_ts[:n]


def make_windows(trace, config: FeatureConfig) -> list[Window]:
    """Cut a whole LabeledTrace or TraceColumns into windows with one Windower; see Windower for the rules."""
    windower = Windower(config, trace.job_id)
    if isinstance(trace, TraceColumns):
        windows = windower.push_columns(trace)
    else:
        windows = [w for record in trace.records for w in windower.push(record)]
    if windower.t0 is None:
        raise EmptyTrace(f"trace {trace.job_id!r} has no records")
    return windows + windower.finish()


@functools.lru_cache(maxsize=65536)
def hash_bucket(text: str, buckets: int) -> int:
    """Feature-hashing bucket of a syscall name or n-gram (n-gram features and RNN token ids)."""
    return fnv1a64(text) % buckets


def resource_features(samples, window: Window) -> np.ndarray:
    """The 12 resource statistics for a window.

    Statistics (mean/std/max) cover in-window samples only; rates come from
    consecutive-pair counter deltas over the full sample list (which includes
    the last pre-window sample), skipping zero-dt pairs. Std is population
    std. RSS is converted to MiB before statistics.
    """
    samples = list(samples)
    for i in range(1, len(samples)):
        if samples[i].t_ns < samples[i - 1].t_ns:
            raise UnsortedInput(f"samples unsorted at position {i}", position=i)
    in_window = [s for s in samples if s.t_ns >= window.t_start_ns]
    out = np.zeros(RESOURCE_DIM, dtype=np.float64)
    if not in_window:
        return out

    cpu = np.array([s.cpu_pct for s in in_window], dtype=np.float64)
    rss = np.array([s.rss_bytes / 2.0**20 for s in in_window], dtype=np.float64)
    out[0] = cpu.mean()
    out[1] = cpu.std()
    out[2] = cpu.max()
    out[3] = rss.mean()
    out[4] = rss.std()
    out[5] = rss.max()

    rx_rates: list[float] = []
    tx_rates: list[float] = []
    io_r_rates: list[float] = []
    io_w_rates: list[float] = []
    for prev, cur in zip(samples, samples[1:]):
        dt = (cur.t_ns - prev.t_ns) / 1e9
        if dt == 0.0:
            continue
        rx_rates.append((cur.net_rx_bytes - prev.net_rx_bytes) / dt)
        tx_rates.append((cur.net_tx_bytes - prev.net_tx_bytes) / dt)
        io_r_rates.append((cur.io_read_bytes - prev.io_read_bytes) / dt)
        io_w_rates.append((cur.io_write_bytes - prev.io_write_bytes) / dt)
    if rx_rates:
        out[6] = float(np.mean(rx_rates))
        out[7] = float(np.max(rx_rates))
        out[8] = float(np.mean(tx_rates))
        out[9] = float(np.max(tx_rates))
        out[10] = float(np.mean(io_r_rates))
        out[11] = float(np.mean(io_w_rates))
    return out


def window_vector(window: Window, config: FeatureConfig) -> FeatureVector:
    values = np.concatenate([window.ngrams, resource_features(window.samples, window)])
    return FeatureVector(
        job_id=window.job_id,
        window_index=window.index,
        values=values,
        schema_version=config.schema_version,
    )


def extract(trace, config: FeatureConfig) -> list[FeatureVector]:
    """One FeatureVector per emitted window, in window order."""
    return [window_vector(w, config) for w in make_windows(trace, config)]


def feature_matrix(vectors) -> np.ndarray:
    """Stack FeatureVectors (or row arrays) into an (N, D) float64 matrix."""
    rows = [v.values if isinstance(v, FeatureVector) else np.asarray(v, dtype=np.float64) for v in vectors]
    if not rows:
        raise EmptyDataset("no feature vectors")
    dim = rows[0].shape[0]
    for i, row in enumerate(rows):
        if row.shape != (dim,):
            raise DimensionMismatch(f"vector {i} has dimension {row.shape}, expected ({dim},)")
    return np.stack(rows)


class Scaler:
    """Per-dimension standardization fit on training features.

    sklearn-style: ``fit`` learns population mean/std (std floored at 1e-8),
    ``transform`` applies (x - mean) / std. Attributes ``mean_`` and ``std_``
    are set after fit.
    """

    def __init__(self):
        self.mean_: np.ndarray | None = None
        self.std_: np.ndarray | None = None

    def fit(self, X) -> "Scaler":
        X = feature_matrix(X) if isinstance(X, (list, tuple)) else np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 1:
            raise EmptyDataset("scaler requires at least one vector")
        self.mean_ = X.mean(axis=0)
        self.std_ = np.maximum(X.std(axis=0), STD_FLOOR)
        return self

    def transform(self, X) -> np.ndarray:
        if self.mean_ is None or self.std_ is None:
            raise ValueError("scaler is not fitted")
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.shape[1] != self.mean_.shape[0]:
            raise DimensionMismatch(f"expected dimension {self.mean_.shape[0]}, got {X.shape[1]}")
        out = (X - self.mean_) / self.std_
        return out[0] if single else out


def csv_header(dim: int) -> str:
    return ",".join([f"f{i}" for i in range(dim)] + ["job_id", "window_index", "label"])


def write_feature_csv(path, vectors, labels, dim: int) -> int:
    """Write the feature matrix CSV (f0..f{D-1}, job_id, window_index, label).

    ``labels`` maps job_id to its class label. Returns the row count. Floats
    are written with repr so the file is byte-deterministic and lossless.
    """
    rows = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_header(dim) + "\n")
        for vec in vectors:
            if vec.values.shape[0] != dim:
                raise DimensionMismatch(f"vector has dimension {vec.values.shape[0]}, expected {dim}")
            fields = [repr(float(x)) for x in vec.values]
            fields += [vec.job_id, str(vec.window_index), labels[vec.job_id]]
            fh.write(",".join(fields) + "\n")
            rows += 1
    return rows


def read_feature_csv(path) -> tuple[np.ndarray, np.ndarray, list[str], list[int]]:
    """Read a feature CSV back into (X, y, job_ids, window_indices)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[-3:] != ["job_id", "window_index", "label"]:
            raise ValueError(f"{path}: not a feature CSV")
        dim = len(header) - 3
        X_rows: list[list[float]] = []
        y: list[int] = []
        job_ids: list[str] = []
        window_indices: list[int] = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != dim + 3:
                raise ValueError(f"{path}: row has {len(parts)} columns, expected {dim + 3}")
            X_rows.append([float(x) for x in parts[:dim]])
            job_ids.append(parts[dim])
            window_indices.append(int(parts[dim + 1]))
            y.append(1 if parts[dim + 2] == "malicious" else 0)
    X = np.array(X_rows, dtype=np.float64) if X_rows else np.zeros((0, dim))
    return X, np.array(y, dtype=np.int64), job_ids, window_indices
