"""Linear SVM trained with the Pegasos stochastic subgradient method."""

from __future__ import annotations

import numpy as np

from ..hashing import SplitMix64
from .base import BaseEstimator, check_dim, check_labels, check_matrix, require_both_classes


class SvmClassifier(BaseEstimator):
    """L2-regularized hinge-loss linear classifier (Pegasos).

    At global step t (1-based) with learning rate 1/(lambda_ * t), one
    uniformly drawn example updates w <- (1 - eta*lambda_) w, plus eta*y*x when
    the margin y*(w.x + b) is below 1; b follows the same rule without the
    regularization shrink. Training runs epochs * N steps and is a pure
    function of (data, hyperparameters, seed).

    Probabilities are sigmoid(margin); no extra calibration.
    """

    kind = "svm"
    _params = ("w", "b")
    _scalars = ("b",)

    def __init__(self, lambda_: float = 1e-4, epochs: int = 20, seed: int = 0):
        self.lambda_ = lambda_
        self.epochs = epochs
        self.seed = seed

    def fit(self, X, y) -> "SvmClassifier":
        X = check_matrix(X)
        y = check_labels(y, X.shape[0])
        require_both_classes(y)
        if self.lambda_ <= 0:
            raise ValueError("lambda_ must be positive")
        n, dim = X.shape
        ys = np.where(y == 1, 1.0, -1.0)
        rng = SplitMix64(self.seed)
        w = np.zeros(dim, dtype=np.float64)
        b = 0.0
        t = 0
        for _ in range(self.epochs):
            for _ in range(n):
                t += 1
                i = rng.randrange(n)
                eta = 1.0 / (self.lambda_ * t)
                margin = ys[i] * (float(X[i] @ w) + b)
                w *= 1.0 - eta * self.lambda_
                if margin < 1.0:
                    w += (eta * ys[i]) * X[i]
                    b += eta * ys[i]
        self.w_ = w
        self.b_ = b
        return self

    def decision_function(self, X) -> np.ndarray:
        self._require_fitted()
        X = check_matrix(X)
        check_dim(X, self.w_.shape[0])
        return X @ self.w_ + self.b_

    # --- training objective and per-example gradient (for checks) -----------

    def objective(self, X, y) -> float:
        """lambda/2 ||w||^2 + mean hinge loss, the quantity Pegasos descends."""
        self._require_fitted()
        X = check_matrix(X)
        ys = np.where(np.asarray(y) == 1, 1.0, -1.0)
        margins = ys * (X @ self.w_ + self.b_)
        hinge = np.maximum(0.0, 1.0 - margins)
        return float(0.5 * self.lambda_ * self.w_ @ self.w_ + hinge.mean())

    def example_loss(self, x, y) -> float:
        self._require_fitted()
        ys = 1.0 if y == 1 else -1.0
        margin = ys * (float(np.asarray(x) @ self.w_) + self.b_)
        return float(0.5 * self.lambda_ * self.w_ @ self.w_ + max(0.0, 1.0 - margin))

    def example_grads(self, x, y) -> dict[str, np.ndarray]:
        """Subgradient of example_loss; unique whenever the margin is not 1."""
        self._require_fitted()
        x = np.asarray(x, dtype=np.float64)
        ys = 1.0 if y == 1 else -1.0
        margin = ys * (float(x @ self.w_) + self.b_)
        dw = self.lambda_ * self.w_.copy()
        db = 0.0
        if margin < 1.0:
            dw -= ys * x
            db -= ys
        return {"w": dw, "b": np.array([db])}
