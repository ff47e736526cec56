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
from dataclasses import dataclass

import numpy as np

from .hashing import fnv1a64
from .records import ENTER, LabeledTrace, ResourceSample, SyscallEvent, UnsortedInput

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
    rate deltas are defined for the first in-window sample.
    """

    job_id: str
    index: int
    t_start_ns: int
    t_end_ns: int
    events: tuple[SyscallEvent, ...]
    samples: tuple[ResourceSample, ...]


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


class Windower:
    """Cuts one job's record stream into hop-spaced windows, one record at a time.

    Window k covers [t0 + k*hop, t0 + k*hop + window), where ``t0`` is the
    first record's timestamp. A window closes when a record at or past its end
    arrives (any record kind acts as the watermark); ``finish`` closes the rest,
    up to the last window starting at or before the newest record. Only windows
    holding at least one syscall event are emitted. A record older than the
    newest buffered record of its kind (a wall clock stepping back) is inserted
    at its timestamp, so every window's records stay time-ordered.
    """

    def __init__(self, config: FeatureConfig, job_id: str):
        self.config = config
        self.job_id = job_id
        self.t0: int | None = None
        self._t_max = 0
        self._k = 0
        self._next_end = 0
        # buffered records per kind, each with a parallel list of timestamps
        self._events: list[SyscallEvent] = []
        self._event_ts: list[int] = []
        self._samples: list[ResourceSample] = []
        self._sample_ts: list[int] = []

    def push(self, record) -> list[Window]:
        """Buffer one record; return the windows it closes, in window order."""
        t = record.t_ns
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
        if isinstance(record, SyscallEvent):
            records, ts = self._events, self._event_ts
        elif isinstance(record, ResourceSample):
            records, ts = self._samples, self._sample_ts
        else:
            return closed
        if ts and t < ts[-1]:
            i = bisect.bisect_right(ts, t)
            ts.insert(i, t)
            records.insert(i, record)
        else:
            ts.append(t)
            records.append(record)
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
                    events=tuple(self._events[lo:hi]),
                    samples=tuple(self._samples[s_lo:s_hi]),
                )
            )
        self._k += 1
        self._next_end = end + self.config.hop_ns

    def _drop_consumed(self) -> None:
        """Forget records no later window holds, keeping the carry-in sample."""
        start = self.t0 + self._k * self.config.hop_ns
        n = bisect.bisect_left(self._event_ts, start)
        del self._events[:n], self._event_ts[:n]
        n = max(bisect.bisect_left(self._sample_ts, start) - 1, 0)
        del self._samples[:n], self._sample_ts[:n]


def make_windows(trace: LabeledTrace, config: FeatureConfig) -> list[Window]:
    """Cut a whole trace into windows with one Windower; see Windower for the rules."""
    if not trace.records:
        raise EmptyTrace(f"trace {trace.job_id!r} has no records")
    windower = Windower(config, trace.job_id)
    windows = [w for record in trace.records for w in windower.push(record)]
    return windows + windower.finish()


@functools.lru_cache(maxsize=65536)
def hash_bucket(text: str, buckets: int) -> int:
    """Feature-hashing bucket of a syscall name or n-gram (n-gram features and RNN token ids)."""
    return fnv1a64(text) % buckets


def ngram_features(events, config: FeatureConfig) -> np.ndarray:
    """L1-normalized hashed n-gram frequencies over enter-event syscall names.

    Tokens are grouped per (pid, tid) in first-appearance order; n-grams never
    cross thread boundaries. Counts are accumulated as exact integers before
    the single normalizing division, so the result is bit-deterministic.
    """
    threads: dict[tuple[int, int], list[str]] = {}
    for ev in events:
        if ev.direction == ENTER:
            threads.setdefault((ev.pid, ev.tid), []).append(ev.name)
    counts = [0] * config.hash_dim
    total = 0
    for seq in threads.values():
        for n in config.ngram_orders:
            for i in range(len(seq) - n + 1):
                gram = seq[i] if n == 1 else "|".join(seq[i : i + n])
                counts[hash_bucket(gram, config.hash_dim)] += 1
                total += 1
    vec = np.array(counts, dtype=np.float64)
    if total:
        vec /= float(total)
    return vec


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
    values = np.concatenate([ngram_features(window.events, config), resource_features(window.samples, window)])
    return FeatureVector(
        job_id=window.job_id,
        window_index=window.index,
        values=values,
        schema_version=config.schema_version,
    )


def extract(trace: LabeledTrace, config: FeatureConfig) -> list[FeatureVector]:
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
