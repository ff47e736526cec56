"""Datasets for the classifiers and the group-aware train/test split."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from ..features import FeatureConfig, extract, feature_matrix, hash_bucket
from ..hashing import SplitMix64, derive_tagged_seed
from ..records import LabeledTrace, TraceColumns, read_trace_columns
from .base import check_labels, check_matrix


class InsufficientGroups(ValueError):
    """A split needs at least two distinct job groups per class."""


@dataclass
class Dataset:
    """Windowed feature dataset: rows are (scaled) FeatureVectors.

    ``groups`` carries each row's job_id so splits never leak one job's
    windows across the train/test boundary.
    """

    X: np.ndarray
    y: np.ndarray
    groups: tuple[str, ...]

    def __post_init__(self):
        self.X = check_matrix(self.X)
        if self.X.shape[0] < 1:
            raise ValueError("dataset must hold at least one row")
        self.y = check_labels(self.y, self.X.shape[0])
        self.groups = tuple(self.groups)
        if len(self.groups) != self.X.shape[0]:
            raise ValueError("groups length must match row count")

    def __len__(self) -> int:
        return self.X.shape[0]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx, dtype=np.int64)
        return Dataset(self.X[idx], self.y[idx], tuple(self.groups[i] for i in idx))


@dataclass
class SequenceDataset:
    """Whole-trace syscall token sequences for the recurrent classifier.

    Token ids are FNV-1a-64(name) mod vocab over enter events only, truncated
    to ``t_max`` tokens per trace.
    """

    sequences: tuple[np.ndarray, ...]
    y: np.ndarray
    groups: tuple[str, ...]
    vocab: int

    def __post_init__(self):
        seqs = []
        for i, s in enumerate(self.sequences):
            s = np.asarray(s, dtype=np.int64)
            if s.ndim != 1 or s.shape[0] == 0:
                raise ValueError(f"sequence {i} must be a non-empty 1-D id array")
            if s.min() < 0 or s.max() >= self.vocab:
                raise ValueError(f"sequence {i} has ids outside [0, {self.vocab})")
            seqs.append(s)
        self.sequences = tuple(seqs)
        self.y = check_labels(self.y, len(self.sequences))
        self.groups = tuple(self.groups)
        if len(self.groups) != len(self.sequences):
            raise ValueError("groups length must match sequence count")

    def __len__(self) -> int:
        return len(self.sequences)

    def subset(self, idx) -> "SequenceDataset":
        idx = list(int(i) for i in idx)
        return SequenceDataset(
            tuple(self.sequences[i] for i in idx),
            self.y[idx],
            tuple(self.groups[i] for i in idx),
            self.vocab,
        )


def split_indices(groups, y, train_frac: float, seed: int) -> tuple[list[int], list[int]]:
    """Group-aware stratified split: every group lands wholly on one side.

    Per class, distinct groups are shuffled with a seeded generator and cut at
    round(train_frac * n_groups), clamped so both sides keep at least one
    group. Deterministic in ``seed``.
    """
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must be in (0, 1)")
    y = np.asarray(y)
    group_label: dict[str, int] = {}
    for g, label in zip(groups, y):
        label = int(label)
        if group_label.setdefault(g, label) != label:
            raise ValueError(f"group {g!r} carries both labels")
    train_groups: set[str] = set()
    for label in (0, 1):
        class_groups = sorted(g for g, gl in group_label.items() if gl == label)
        if len(class_groups) < 2:
            raise InsufficientGroups(f"class {label} has {len(class_groups)} group(s); need at least 2")
        rng = SplitMix64(derive_tagged_seed(seed, f"split-{label}"))
        rng.shuffle(class_groups)
        n_train = int(round(train_frac * len(class_groups)))
        n_train = min(max(n_train, 1), len(class_groups) - 1)
        train_groups.update(class_groups[:n_train])
    train_idx = [i for i, g in enumerate(groups) if g in train_groups]
    test_idx = [i for i, g in enumerate(groups) if g not in train_groups]
    return train_idx, test_idx


def split(dataset, train_frac: float, seed: int):
    """Split a Dataset or SequenceDataset; returns (train, test)."""
    train_idx, test_idx = split_indices(dataset.groups, dataset.y, train_frac, seed)
    return dataset.subset(train_idx), dataset.subset(test_idx)


# --- corpus loading ----------------------------------------------------------

def load_manifest(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if "entries" not in manifest:
        raise ValueError(f"{path}: not a dataset manifest")
    return manifest


def _manifest_traces(manifest_path):
    """Yield (entry, TraceColumns) for every manifest entry, in manifest order.

    Each entry's job_id, label and profile are checked as a LabeledTrace
    header before its file is read, so a bad entry raises InvalidRecord.
    """
    manifest = load_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    for entry in manifest["entries"]:
        LabeledTrace(entry["job_id"], entry["label"], entry.get("profile", ""), records=())
        yield entry, read_trace_columns(os.path.join(base, entry["file"]), entry["job_id"])


def build_feature_dataset(manifest_path, config: FeatureConfig):
    """Extract raw (unscaled) window features for a whole corpus.

    Returns (Dataset, vectors) where vectors keeps the per-window
    FeatureVector objects for CSV export.
    """
    vectors = []
    labels = []
    groups = []
    for entry, trace in _manifest_traces(manifest_path):
        for vec in extract(trace, config):
            vectors.append(vec)
            labels.append(1 if entry["label"] == "malicious" else 0)
            groups.append(entry["job_id"])
    if not vectors:
        raise ValueError("corpus produced no feature windows")
    return Dataset(feature_matrix(vectors), np.array(labels), tuple(groups)), vectors


def trace_token_ids(trace: TraceColumns, vocab: int, t_max: int) -> np.ndarray:
    """Whole-trace token-id sequence: the name buckets of the first t_max enter events."""
    buckets = np.array([hash_bucket(name, vocab) for name in trace.names], dtype=np.int64)
    return buckets[trace.name_id[trace.enter][:t_max]]


def build_sequence_dataset(manifest_path, config: FeatureConfig, t_max: int = 512) -> SequenceDataset:
    """Token sequences per trace; traces without enter events are rejected."""
    sequences = []
    labels = []
    groups = []
    for entry, trace in _manifest_traces(manifest_path):
        ids = trace_token_ids(trace, config.hash_dim, t_max)
        if ids.shape[0] == 0:
            raise ValueError(f"trace {entry['job_id']} has no syscall enter events")
        sequences.append(ids)
        labels.append(1 if entry["label"] == "malicious" else 0)
        groups.append(entry["job_id"])
    return SequenceDataset(tuple(sequences), np.array(labels), tuple(groups), vocab=config.hash_dim)
