"""Supervised classifiers for job-behavior telemetry, with training and evaluation."""

from .base import BaseEstimator, SingleClass, sigmoid
from .data import Dataset, InsufficientGroups, SequenceDataset, split, split_indices
from .gradcheck import grad_check
from .io import CorruptFile, ModelBundle, VersionMismatch, load_model, save_model
from .metrics import Metrics, auc_score, evaluate_scores, group_mean_scores, roc_points
from .mlp import MlpClassifier
from .rnn import EmptySequence, RnnClassifier
from .svm import SvmClassifier

__all__ = [
    "BaseEstimator",
    "CorruptFile",
    "Dataset",
    "EmptySequence",
    "InsufficientGroups",
    "Metrics",
    "MlpClassifier",
    "ModelBundle",
    "RnnClassifier",
    "SequenceDataset",
    "SingleClass",
    "SvmClassifier",
    "VersionMismatch",
    "auc_score",
    "evaluate_scores",
    "grad_check",
    "group_mean_scores",
    "load_model",
    "roc_points",
    "save_model",
    "sigmoid",
    "split",
    "split_indices",
]
