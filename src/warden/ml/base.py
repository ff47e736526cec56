"""Estimator plumbing: sklearn-compatible parameter API, input checks, stable math."""

from __future__ import annotations

import inspect

import numpy as np

from ..features import DimensionMismatch


class SingleClass(ValueError):
    """Training data contains only one class."""


class BaseEstimator:
    """Shared classifier plumbing, plus sklearn-style get_params/set_params.

    Hyperparameters are read from the subclass ``__init__`` signature, exactly
    like sklearn's BaseEstimator, without depending on sklearn itself.

    Subclasses name their trainable parameters in ``_params``, in `.wmdl`
    order; parameter ``name`` lives in the attribute ``name_`` (None until
    fitted), and the names in ``_scalars`` hold a float bias instead of an
    array. ``kind`` names the model in `.wmdl` files. A subclass supplies
    ``decision_function``; ``proba`` and ``predict`` follow from it.
    """

    kind: str = ""
    _params: tuple[str, ...] = ()
    _scalars: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name in cls._params:
            setattr(cls, f"{name}_", None)

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    def _require_fitted(self) -> None:
        if getattr(self, f"{self._params[0]}_") is None:
            raise ValueError("model is not fitted")

    def proba(self, X) -> np.ndarray:
        """P(malicious) per input, strictly inside (0, 1)."""
        return probability(self.decision_function(X))

    def predict(self, X) -> np.ndarray:
        return (self.proba(X) >= 0.5).astype(np.int64)

    def param_arrays(self) -> dict[str, np.ndarray]:
        """Snapshot of all trainable parameters, keyed by name; a scalar is a 1-element array."""
        self._require_fitted()
        out = {}
        for name in self._params:
            value = getattr(self, f"{name}_")
            out[name] = np.array([value]) if name in self._scalars else value.copy()
        return out

    def set_param_arrays(self, params: dict[str, np.ndarray]) -> None:
        for name in self._params:
            value = np.asarray(params[name], dtype=np.float64)
            setattr(self, f"{name}_", float(value.reshape(())) if name in self._scalars else value.copy())

    def _descend(self, grads: dict[str, np.ndarray], scale: float) -> None:
        """One gradient step, ``param -= scale * grad``; arrays are updated in place."""
        for name in self._params:
            param = getattr(self, f"{name}_")
            if name in self._scalars:
                setattr(self, f"{name}_", param - scale * float(grads[name][0]))
            else:
                param -= scale * grads[name]


def check_matrix(X, name: str = "X") -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError(f"{name} contains non-finite values")
    return X


def check_labels(y, n: int) -> np.ndarray:
    y = np.asarray(y)
    if y.shape != (n,):
        raise ValueError(f"y must have shape ({n},), got {y.shape}")
    y = y.astype(np.int64)
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be binary 0/1")
    return y


def require_both_classes(y) -> None:
    if len(np.unique(y)) < 2:
        raise SingleClass("training data must contain both classes")


def check_dim(X: np.ndarray, dim: int) -> None:
    if X.shape[1] != dim:
        raise DimensionMismatch(f"expected input dimension {dim}, got {X.shape[1]}")


def sigmoid(z):
    """Numerically stable logistic function: 1 / (1 + e^-z) for z >= 0, e^z / (1 + e^z) below, so exp never overflows."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(np.minimum(z, -z))  # e^-|z|; a NaN z stays itself, as np.minimum returns its first NaN
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


# float64 rounds sigmoid to exactly 0/1 for |z| beyond ~37/745; probability
# outputs are contractually inside the open interval, so clamp to the nearest
# representable neighbours of the bounds
_P_LO = np.nextafter(0.0, 1.0)
_P_HI = np.nextafter(1.0, 0.0)


def probability(z):
    """sigmoid(z) restricted to the open interval (0, 1)."""
    return np.minimum(np.maximum(sigmoid(z), _P_LO), _P_HI)


def bce_from_logits(z, y) -> float:
    """Mean binary cross-entropy computed from logits (no overflow, no log(0))."""
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))))


def glorot_uniform(rng, rows: int, cols: int, fan_in: int, fan_out: int) -> np.ndarray:
    """Row-major uniform(-a, a) init with a = sqrt(6 / (fan_in + fan_out)).

    Draw order is fixed (row-major), so matrices are bit-identical per seed.
    Element k is ``rng.uniform_in(-a, a)`` of the k-th draw, computed for the
    whole matrix at once by the same float64 operations.
    """
    a = np.sqrt(6.0 / (fan_in + fan_out))
    bits = np.fromiter(iter(rng.next_u64, None), dtype=np.uint64, count=rows * cols)
    u = (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return (-a + (a - -a) * u).reshape(rows, cols)
