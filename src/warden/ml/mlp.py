"""Single-hidden-layer perceptron trained by mini-batch backpropagation."""

from __future__ import annotations

import numpy as np

from ..hashing import SplitMix64
from .base import (
    BaseEstimator,
    bce_from_logits,
    check_dim,
    check_labels,
    check_matrix,
    glorot_uniform,
    require_both_classes,
    sigmoid,
)


class MlpClassifier(BaseEstimator):
    """tanh hidden layer, sigmoid output, mean binary cross-entropy loss.

    Weights start uniform(-a, a) with a = sqrt(6/(fan_in+fan_out)) drawn in a
    fixed order (W1 row-major, then W2), biases zero. Each epoch shuffles the
    row order with the seeded generator and walks it in mini-batches, so
    training is bitwise deterministic per seed. ``epochs=0`` returns the
    freshly initialized model.
    """

    kind = "mlp"
    _params = ("W1", "b1", "W2", "b2")
    _scalars = ("b2",)

    def __init__(self, hidden: int = 32, lr: float = 0.05, epochs: int = 50, batch: int = 16, seed: int = 0):
        self.hidden = hidden
        self.lr = lr
        self.epochs = epochs
        self.batch = batch
        self.seed = seed

    def _init_params(self, dim: int) -> None:
        if self.hidden < 1:
            raise ValueError("hidden must be at least 1")
        rng = SplitMix64(self.seed)
        self.W1_ = glorot_uniform(rng, self.hidden, dim, fan_in=dim, fan_out=self.hidden)
        self.b1_ = np.zeros(self.hidden, dtype=np.float64)
        self.W2_ = glorot_uniform(rng, 1, self.hidden, fan_in=self.hidden, fan_out=1)
        self.b2_ = 0.0

    def fit(self, X, y) -> "MlpClassifier":
        X = check_matrix(X)
        y = check_labels(y, X.shape[0])
        require_both_classes(y)
        n = X.shape[0]
        self._init_params(X.shape[1])
        rng = SplitMix64(self.seed + 1)  # separate stream from init
        yf = y.astype(np.float64)
        for _ in range(self.epochs):
            order = list(range(n))
            rng.shuffle(order)
            for start in range(0, n, self.batch):
                idx = order[start : start + self.batch]
                self._descend(self._grads(X[idx], yf[idx]), self.lr)
        return self

    def _forward(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = np.tanh(X @ self.W1_.T + self.b1_)
        z = h @ self.W2_.T[:, 0] + self.b2_
        return h, z

    def _grads(self, Xb: np.ndarray, yb: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of the mean BCE over the batch w.r.t. every parameter."""
        m = Xb.shape[0]
        h, z = self._forward(Xb)
        dz = (sigmoid(z) - yb) / m  # (m,)
        dW2 = (dz @ h)[None, :]
        db2 = np.array([dz.sum()])
        dh = np.outer(dz, self.W2_[0])
        dz1 = dh * (1.0 - h * h)
        dW1 = dz1.T @ Xb
        db1 = dz1.sum(axis=0)
        return {"W1": dW1, "b1": db1, "W2": dW2, "b2": db2}

    def decision_function(self, X) -> np.ndarray:
        self._require_fitted()
        X = check_matrix(X)
        check_dim(X, self.W1_.shape[1])
        return self._forward(X)[1]

    def loss(self, X, y) -> float:
        """Mean binary cross-entropy on (X, y)."""
        return bce_from_logits(self.decision_function(X), np.asarray(y, dtype=np.float64))

    def example_loss(self, x, y) -> float:
        return self.loss(np.asarray(x)[None, :], np.array([y]))

    def example_grads(self, x, y) -> dict[str, np.ndarray]:
        self._require_fitted()
        return self._grads(np.asarray(x, dtype=np.float64)[None, :], np.array([float(y)]))
