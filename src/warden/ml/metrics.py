"""Classification metrics: confusion counts, derived rates, exact rank-statistic AUC."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import EmptyDataset


@dataclass(frozen=True)
class Metrics:
    """Confusion counts at threshold 0.5 plus the derived rates.

    Rates with a zero denominator are reported as 0. ``auc`` is None when the
    dataset holds a single class (undefined, not zero).
    """

    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    fpr: float
    auc: float | None

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def confusion_metrics(scores, labels, auc_value) -> Metrics:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    pred = scores >= 0.5
    pos = labels == 1
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & ~pos))
    tn = int(np.sum(~pred & ~pos))
    fn = int(np.sum(~pred & pos))
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    return Metrics(
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        accuracy=_safe_div(tp + tn, len(labels)),
        precision=precision,
        recall=recall,
        f1=_safe_div(2 * precision * recall, precision + recall),
        fpr=_safe_div(fp, fp + tn),
        auc=auc_value,
    )


def auc_score(scores, labels) -> float | None:
    """Exact Mann-Whitney AUC via midranks.

    The numerator is assembled in integer arithmetic (twice the positive rank
    sum minus P(P+1)) and divided once by 2*P*N, so the result equals the
    brute-force all-pairs statistic bit for bit. Ties contribute 1/2 per pair.
    Returns None when either class is absent.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    twice_rank_sum_pos = 0  # sum over positives of 2 * midrank, exact integer
    i = 0
    n = len(scores)
    while i < n:
        j = i
        while j < n and sorted_scores[j] == sorted_scores[i]:
            j += 1
        # tie group occupies 1-based ranks i+1 .. j; 2*midrank = (i+1) + j
        twice_midrank = (i + 1) + j
        group_pos = int(np.sum(sorted_labels[i:j] == 1))
        twice_rank_sum_pos += twice_midrank * group_pos
        i = j
    numerator = twice_rank_sum_pos - n_pos * (n_pos + 1)
    return numerator / (2 * n_pos * n_neg)


def evaluate_scores(scores, labels) -> Metrics:
    """Metrics from precomputed probability scores."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[0] == 0:
        raise EmptyDataset("cannot evaluate an empty dataset")
    return confusion_metrics(scores, labels, auc_score(scores, labels))


def group_mean_scores(scores, labels, groups) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Aggregate window scores per job: mean score, one label per group.

    Groups are returned in sorted order for deterministic reporting.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    by_group: dict[str, list[int]] = {}
    for i, g in enumerate(groups):
        by_group.setdefault(g, []).append(i)
    names = sorted(by_group)
    means = np.empty(len(names), dtype=np.float64)
    group_labels = np.empty(len(names), dtype=np.int64)
    for gi, name in enumerate(names):
        idx = by_group[name]
        means[gi] = scores[idx].mean()
        first = labels[idx[0]]
        if any(labels[i] != first for i in idx):
            raise ValueError(f"group {name!r} carries both labels")
        group_labels[gi] = first
    return names, means, group_labels


def roc_points(scores, labels) -> list[tuple[float, float, float]]:
    """(threshold, fpr, tpr) rows, thresholds descending over distinct scores.

    Each threshold t classifies score >= t as positive; a leading sentinel
    above the top score yields the (0, 0) corner and the last row is (1, 1).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    order = np.argsort(-scores, kind="stable")
    points: list[tuple[float, float, float]] = []
    thresholds = [np.inf] + sorted(set(scores.tolist()), reverse=True)
    tp = fp = 0
    idx = 0
    for thr in thresholds:
        while idx < len(order) and scores[order[idx]] >= thr:
            if labels[order[idx]] == 1:
                tp += 1
            else:
                fp += 1
            idx += 1
        points.append((float(thr), _safe_div(fp, n_neg), _safe_div(tp, n_pos)))
    return points
