"""Windowed feature extraction: hashed syscall n-grams plus resource statistics.

A trace is cut into overlapping time windows. Each window becomes one fixed-
dimension vector: ``hash_dim`` L1-normalized n-gram frequency buckets over the
syscall names (FNV-1a-64 feature hashing, n-grams never cross thread
boundaries) followed by 12 resource-usage statistics. Extraction is a pure
function of (trace, config) with a fixed floating-point summation order, so
outputs are byte-identical across runs and platforms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .hashing import fnv1a64
from .records import LABELS, SYS_ROW, Interner, ResourceSample, TraceColumns, UnsortedInput

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
    window's L1-normalized n-gram block.
    """

    job_id: str
    index: int
    t_start_ns: int
    t_end_ns: int
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


_INT64_MAX = 2**63 - 1


def _before(sorted_t: np.ndarray, t: int) -> int:
    """How many of the sorted timestamps lie before ``t``; exact also for a ``t`` past int64."""
    if t > _INT64_MAX and sorted_t.dtype != object:
        return len(sorted_t)
    return int(np.searchsorted(sorted_t, t))


def _buffered(ts: np.ndarray, values: np.ndarray, new_ts: np.ndarray, new_values: np.ndarray, in_order: bool):
    """Buffer rows in arrival order, each after the buffered rows whose timestamp is at most its own."""
    appended = in_order and (not len(ts) or not len(new_ts) or ts[-1] <= new_ts[0])
    ts, values = np.concatenate([ts, new_ts]), np.concatenate([values, new_values])
    if appended:  # the common case: no sort
        return ts, values
    order = np.argsort(ts, kind="stable")
    return ts[order], values[order]


class Windower:
    """Cuts one job's telemetry, fed as TraceColumns chunks, into hop-spaced windows.

    Window k covers [t0 + k*hop, t0 + k*hop + window), where ``t0`` is the
    first row's timestamp. A window closes when a row at or past its end
    arrives (any row kind acts as the watermark); ``finish`` closes the rest,
    up to the last window starting at or before the newest row. Only windows
    holding at least one syscall event are emitted. A row older than the
    newest buffered row of its kind (a wall clock stepping back) is inserted
    at its timestamp, so every window's records stay time-ordered.

    Chunks may come from different tables of names and threads: their ids
    are mapped through the windower's own. A syscall event is buffered as its
    timestamp and one integer code (see ``_event_code``), a resource sample
    as its record; log rows only move the watermark.
    """

    def __init__(self, config: FeatureConfig, job_id: str):
        self.config = config
        self.job_id = job_id
        self.t0: int | None = None
        self._t_max = 0
        self._k = 0
        self._next_end = 0
        self._event_ts = self._sample_ts = np.zeros(0, dtype=np.int64)  # int64, or object past int64
        self._event_code = np.zeros(0, dtype=np.int64)
        self._samples = np.zeros(0, dtype=object)  # ResourceSample records
        self._names = Interner()
        self._threads = Interner()
        self._id_maps = None  # (names, threads, name map, thread map) of the last chunk's tables
        self._unigrams = np.zeros(0, dtype=np.int64)  # bucket of each name id
        self._grams = _GramBuckets(self._names.ordered, config.hash_dim)  # longer orders

    def push_columns(self, chunk: TraceColumns):
        """Buffer a chunk of rows; yield each window it closes, in window order, as soon as it closes.

        A generator: run it to its end before the next call. The rows between
        two closing rows are buffered as one run: appended at once if the
        chunk is time-sorted and the run starts at or after the newest
        buffered row of its kind, merged in by a stable sort on time otherwise.
        """
        if not len(chunk):
            return
        t = chunk.t_ns
        newest = np.maximum.accumulate(t)  # the first row to reach a window's end closes it
        if self.t0 is None:
            self.t0 = self._t_max = int(t[0])
            self._next_end = self.t0 + self.config.window_ns
        in_order = bool(np.all(t[1:] >= t[:-1]))
        events, codes = chunk.kind == SYS_ROW, self._codes(chunk)
        sample_rows = chunk.record_rows[0]
        samples = np.fromiter(chunk.samples, dtype=object, count=len(chunk.samples))
        start = 0
        while True:
            stop = _before(newest, self._next_end)
            run = events[start:stop]
            self._event_ts, self._event_code = _buffered(
                self._event_ts, self._event_code, t[start:stop][run], codes[start:stop][run], in_order
            )
            lo, hi = np.searchsorted(sample_rows, (start, stop)).tolist()
            self._sample_ts, self._samples = _buffered(
                self._sample_ts, self._samples, t[sample_rows[lo:hi]], samples[lo:hi], in_order
            )
            if stop == len(t):
                break
            while newest[stop] >= self._next_end:
                window = self._close()
                if window is not None:
                    yield window
            self._drop_consumed()
            start = stop
        self._t_max = max(self._t_max, int(newest[-1]))

    def _codes(self, chunk: TraceColumns) -> np.ndarray:
        """The chunk's event codes, with name and thread ids in this windower's numbering."""
        if self._id_maps is None or self._id_maps[0] is not chunk.names or self._id_maps[1] is not chunk.threads:
            names = np.array([self._names[name] for name in chunk.names] or [0], dtype=np.int64)
            threads = np.array([self._threads[thread] for thread in chunk.threads] or [0], dtype=np.int64)
            self._id_maps = (chunk.names, chunk.threads, names, threads)
        _, _, names, threads = self._id_maps
        return _event_code(names[chunk.name_id], threads[chunk.thread_id], chunk.enter)

    def finish(self) -> list[Window]:
        """Close every remaining window whose start is at most the newest row time."""
        closed: list[Window] = []
        if self.t0 is not None:
            while self.t0 + self._k * self.config.hop_ns <= self._t_max:
                window = self._close()
                if window is not None:
                    closed.append(window)
        return closed

    def _close(self) -> Window | None:
        """Close window k; return it if it holds a syscall event."""
        k = self._k
        start = self.t0 + k * self.config.hop_ns
        end = start + self.config.window_ns
        self._k, self._next_end = k + 1, end + self.config.hop_ns
        lo, hi = _before(self._event_ts, start), _before(self._event_ts, end)
        if hi == lo:
            return None
        # from the last sample before the window, for delta computation
        s_lo, s_hi = max(_before(self._sample_ts, start) - 1, 0), _before(self._sample_ts, end)
        return Window(
            job_id=self.job_id,
            index=k,
            t_start_ns=start,
            t_end_ns=end,
            samples=tuple(self._samples[s_lo:s_hi]),
            ngrams=self._ngrams(lo, hi),
        )

    def _ngrams(self, lo: int, hi: int) -> np.ndarray:
        """L1-normalized hashed n-gram frequencies over the enter events of buffer rows [lo, hi).

        An n-gram is n consecutive enter events of one (pid, tid) thread, so
        n-grams never cross threads. Counts are exact integers before the
        single normalizing division, so the result is bit-deterministic.
        """
        codes = self._event_code[lo:hi]
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
        n = _before(self._event_ts, start)
        self._event_ts, self._event_code = self._event_ts[n:], self._event_code[n:]
        n = max(_before(self._sample_ts, start) - 1, 0)
        self._sample_ts, self._samples = self._sample_ts[n:], self._samples[n:]


def make_windows(trace, config: FeatureConfig) -> list[Window]:
    """Cut a whole LabeledTrace or TraceColumns into windows with one Windower; see Windower for the rules."""
    if not isinstance(trace, TraceColumns):
        trace = TraceColumns.from_records(trace.records, trace.job_id)
    windower = Windower(config, trace.job_id)
    windows = list(windower.push_columns(trace))
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
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != dim + 3:
                raise ValueError(f"{path}: row has {len(parts)} columns, expected {dim + 3}")
            if parts[dim + 2] not in LABELS:
                raise ValueError(f"{path}:{lineno}: label {parts[dim + 2]!r} is not one of {LABELS}")
            X_rows.append([float(x) for x in parts[:dim]])
            job_ids.append(parts[dim])
            window_indices.append(int(parts[dim + 1]))
            y.append(1 if parts[dim + 2] == "malicious" else 0)
    X = np.array(X_rows, dtype=np.float64) if X_rows else np.zeros((0, dim))
    return X, np.array(y, dtype=np.int64), job_ids, window_indices
