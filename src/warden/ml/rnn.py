"""Elman recurrent classifier over syscall token sequences (full BPTT)."""

from __future__ import annotations

import numpy as np

from ..hashing import SplitMix64
from .base import (
    BaseEstimator,
    bce_from_logits,
    check_labels,
    glorot_uniform,
    require_both_classes,
    sigmoid,
)


class EmptySequence(ValueError):
    """A token sequence with zero length cannot be scored or trained on."""


class RnnClassifier(BaseEstimator):
    """Embedding + tanh recurrence, sigmoid readout of the final hidden state.

        h_t = tanh(Wxh e(x_t) + Whh h_{t-1} + bh),  h_0 = 0
        p   = sigmoid(wo . h_T + bo)

    Training is plain SGD with one update per example, gradients computed by
    full backpropagation through time over the (t_max-truncated) sequence and
    clipped to a global L2 norm of ``clip``. Only the recurrence runs per
    token: ``Whh h_{t-1}``, the add and the tanh going forward, and
    ``dz_t = dh * (1 - h_t^2)`` and ``dh = Whh^T dz_t`` going back. Once per
    sequence run the input projection ``Wxh e(x_t) + bh`` of every token,
    ``1 - h_t^2`` of every step, and the gradients of ``Wxh``, ``Whh``,
    ``bh`` and the embedding rows (one matrix product or sum each over the
    stacked ``dz_t``). Example order is reshuffled each epoch with the
    seeded generator; initialization matches the MLP scheme (uniform Glorot,
    biases zero), drawn in the fixed order embedding, Wxh, Whh, wo.
    ``epochs=0`` returns the freshly initialized model.
    """

    kind = "rnn"
    _params = ("emb", "Wxh", "Whh", "bh", "wo", "bo")
    _scalars = ("bo",)

    def __init__(
        self,
        hidden: int = 32,
        embed: int = 16,
        lr: float = 0.01,
        epochs: int = 30,
        t_max: int = 512,
        clip: float = 5.0,
        seed: int = 0,
        vocab: int = 256,
    ):
        self.hidden = hidden
        self.embed = embed
        self.lr = lr
        self.epochs = epochs
        self.t_max = t_max
        self.clip = clip
        self.seed = seed
        self.vocab = vocab

    def _init_params(self) -> None:
        if self.hidden < 1 or self.embed < 1 or self.vocab < 1:
            raise ValueError("hidden, embed and vocab must be at least 1")
        rng = SplitMix64(self.seed)
        self.emb_ = glorot_uniform(rng, self.vocab, self.embed, fan_in=self.vocab, fan_out=self.embed)
        self.Wxh_ = glorot_uniform(rng, self.hidden, self.embed, fan_in=self.embed, fan_out=self.hidden)
        self.Whh_ = glorot_uniform(rng, self.hidden, self.hidden, fan_in=self.hidden, fan_out=self.hidden)
        self.bh_ = np.zeros(self.hidden, dtype=np.float64)
        self.wo_ = glorot_uniform(rng, 1, self.hidden, fan_in=self.hidden, fan_out=1)[0]
        self.bo_ = 0.0

    def _check_sequences(self, sequences) -> list[np.ndarray]:
        out = []
        for i, seq in enumerate(sequences):
            seq = np.asarray(seq, dtype=np.int64)
            if seq.ndim != 1 or seq.shape[0] == 0:
                raise EmptySequence(f"sequence {i} is empty")
            if seq.min() < 0 or seq.max() >= self.vocab:
                raise ValueError(f"sequence {i} has token ids outside [0, {self.vocab})")
            out.append(seq[: self.t_max])
        return out

    def fit(self, sequences, y) -> "RnnClassifier":
        seqs = self._check_sequences(sequences)
        y = check_labels(y, len(seqs))
        require_both_classes(y)
        self._init_params()
        rng = SplitMix64(self.seed + 1)  # separate stream from init
        for _ in range(self.epochs):
            order = list(range(len(seqs)))
            rng.shuffle(order)
            for i in order:
                grads = self._example_grads_seq(seqs[i], float(y[i]))
                self._apply(grads)
        return self

    def _apply(self, grads: dict[str, np.ndarray]) -> None:
        sq = 0.0
        for g in grads.values():
            sq += float(np.sum(g * g))
        norm = np.sqrt(sq)
        self._descend(grads, self.lr if norm <= self.clip else self.lr * (self.clip / norm))

    def _forward(self, seq: np.ndarray) -> tuple[np.ndarray, float]:
        """Hidden states for one sequence; returns (hs with h_0 at row 0, logit).

        The input projection of every token is one matrix product; only the
        recurrence ``Whh h_{t-1}`` runs per token, writing into ``hs`` in place.
        """
        T = seq.shape[0]
        hs = np.zeros((T + 1, self.hidden), dtype=np.float64)
        xs = self.emb_[seq] @ self.Wxh_.T
        xs += self.bh_
        Whh = self.Whh_
        dot, add, tanh = np.dot, np.add, np.tanh  # bound once: the loop is call-bound
        for h_prev, h, x in zip(hs[:-1], hs[1:], xs):
            dot(Whh, h_prev, out=h)
            add(h, x, out=h)
            tanh(h, out=h)
        z = float(self.wo_ @ hs[T] + self.bo_)
        return hs, z

    def _example_grads_seq(self, seq: np.ndarray, y: float) -> dict[str, np.ndarray]:
        """BCE gradient for one sequence w.r.t. every parameter (full BPTT).

        The backward loop only carries ``dh`` through the recurrence and keeps
        each step's pre-activation gradient as a row of ``D``; the weight,
        bias and embedding gradients are then one product each over ``D``.
        """
        hs, z = self._forward(seq)
        dz = float(sigmoid(np.array([z]))[0] - y)
        d_wo = dz * hs[-1]
        d_bo = np.array([dz])
        D = 1.0 - hs[1:] * hs[1:]  # tanh'(pre-activation); row t becomes dL/d(pre_t)
        Whh = self.Whh_
        dot, multiply = np.dot, np.multiply
        dh = dz * self.wo_
        for dzt in D[::-1]:
            multiply(dzt, dh, out=dzt)
            dh = dot(dzt, Whh)  # Whh^T dzt
        d_emb = np.zeros_like(self.emb_)
        np.add.at(d_emb, seq, D @ self.Wxh_)  # add.at sums the rows of repeated tokens
        d_Wxh = D.T @ self.emb_[seq]
        d_Whh = D.T @ hs[:-1]
        d_bh = D.sum(axis=0)
        return {"emb": d_emb, "Wxh": d_Wxh, "Whh": d_Whh, "bh": d_bh, "wo": d_wo, "bo": d_bo}

    def decision_function(self, sequences) -> np.ndarray:
        self._require_fitted()
        seqs = self._check_sequences(sequences)
        return np.array([self._forward(seq)[1] for seq in seqs], dtype=np.float64)

    def loss(self, sequences, y) -> float:
        return bce_from_logits(self.decision_function(sequences), np.asarray(y, dtype=np.float64))

    def example_loss(self, seq, y) -> float:
        self._require_fitted()
        seq = self._check_sequences([seq])[0]
        _, z = self._forward(seq)
        return bce_from_logits(np.array([z]), np.array([float(y)]))

    def example_grads(self, seq, y) -> dict[str, np.ndarray]:
        self._require_fitted()
        seq = self._check_sequences([seq])[0]
        return self._example_grads_seq(seq, float(y))
