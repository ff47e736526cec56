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


_BATCH = 16  # sequences per update in fit, and per padded forward pass in scoring


class EmptySequence(ValueError):
    """A token sequence with zero length cannot be scored or trained on."""


class RnnClassifier(BaseEstimator):
    """Embedding + tanh recurrence, sigmoid readout of the final hidden state.

        h_t = tanh(Wxh e(x_t) + Whh h_{t-1} + bh),  h_0 = 0
        p   = sigmoid(wo . h_T + bo)

    Training is minibatch SGD: each epoch reshuffles the example order with
    the seeded generator and walks it in batches of ``_BATCH``. Each update
    is ``lr`` times the sum of the batch's per-example gradients (full BPTT
    over the t_max-truncated sequence), each clipped to a global L2 norm of
    ``clip`` on its own. A batch runs as one left-padded ``(T, B)`` array
    whose mask holds ``h`` at zero on pad steps; only the recurrence runs
    per time step. Scoring runs the same forward pass in chunks of
    ``_BATCH``. Initialization matches the MLP scheme (uniform Glorot,
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
        y = check_labels(y, len(seqs)).astype(np.float64)
        require_both_classes(y)
        self._init_params()
        rng = SplitMix64(self.seed + 1)  # separate stream from init
        for _ in range(self.epochs):
            order = list(range(len(seqs)))
            rng.shuffle(order)
            for start in range(0, len(order), _BATCH):
                idx = order[start : start + _BATCH]
                self._step([seqs[i] for i in idx], y[idx])
        return self

    def _step(self, seqs: list[np.ndarray], y: np.ndarray) -> None:
        """One update: ``lr`` times the sum of the batch's gradients, each clipped on its own."""
        grads, (ex, tok, rows) = self._grads(seqs, y)
        emb_sq = np.bincount(ex, weights=np.square(rows).sum(axis=1), minlength=len(seqs))
        norm = np.sqrt(sum((np.square(g).reshape(len(seqs), -1).sum(axis=1) for g in grads.values()), emb_sq))
        scale = np.divide(self.clip, norm, out=np.ones_like(norm), where=norm > self.clip)
        step = {name: np.tensordot(scale, g, axes=1) for name, g in grads.items()}
        cells = (tok[:, None] * self.embed + np.arange(self.embed)).ravel()
        step["emb"] = np.bincount(cells, (scale[ex, None] * rows).ravel(), self.emb_.size).reshape(self.emb_.shape)
        self._descend(step, self.lr)

    def _forward(self, seqs: list[np.ndarray]):
        """Padded forward pass over a batch; returns (tokens, keep, hs, logits).

        ``tokens`` is ``(T, B)``, each sequence left-padded with token 0 so
        that every last hidden state is ``hs[T]``; ``hs`` is ``(T + 1, B, H)``
        with ``h_0`` at row 0. ``keep`` is the ``(P, B, 1)`` 0/1 mask of the
        first ``P = T - min(len)`` steps, the only ones that can be padding.
        A pad step's input projection is zeroed, so its ``h`` stays exactly
        0. The projection of every token is one product; only the recurrence
        ``h_{t-1} Whh^T`` runs per step, writing into ``hs`` in place.
        """
        lengths = np.array([seq.shape[0] for seq in seqs])
        T = int(lengths.max())
        tokens = np.zeros((T, len(seqs)), dtype=np.int64)
        for b, seq in enumerate(seqs):
            tokens[T - seq.shape[0] :, b] = seq
        keep = (np.arange(T - lengths.min())[:, None] >= T - lengths)[:, :, None].astype(np.float64)
        hs = np.zeros((T + 1, len(seqs), self.hidden), dtype=np.float64)
        xs = self.emb_[tokens] @ self.Wxh_.T
        xs += self.bh_
        xs[: len(keep)] *= keep
        WhhT = self.Whh_.T
        matmul, add, tanh = np.matmul, np.add, np.tanh  # bound once: the loop is call-bound
        for h_prev, h, x in zip(hs[:-1], hs[1:], xs):
            matmul(h_prev, WhhT, out=h)
            add(h, x, out=h)
            tanh(h, out=h)
        return tokens, keep, hs, hs[T] @ self.wo_ + self.bo_

    def _grads(self, seqs: list[np.ndarray], y: np.ndarray):
        """Each example's BCE gradient by full BPTT: the dense ones batch axis first, and the embedding's.

        The embedding's is ``(ex, tok, rows)``: ``rows[k]`` is example ``ex[k]``'s
        gradient of row ``tok[k]``, one per distinct (example, token) pair, so
        no array grows with the vocabulary. The backward loop only carries
        ``dh``, keeping each step's pre-activation gradients as ``D[t]``; each
        weight gradient is then one batched product over ``D``.
        """
        tokens, keep, hs, z = self._forward(seqs)
        dz = sigmoid(z) - y
        D = 1.0 - hs[1:] * hs[1:]  # tanh'(pre-activation); D[t, b] becomes dL_b/d(pre_t)
        D[: len(keep)] *= keep  # nothing flows through a pad step
        Whh = self.Whh_
        matmul, multiply = np.matmul, np.multiply
        dh = dz[:, None] * self.wo_
        for dzt in D[::-1]:
            multiply(dzt, dh, out=dzt)
            dh = matmul(dzt, Whh)  # dzt Whh, row by row Whh^T dzt
        (V, E), B = self.emb_.shape, len(seqs)
        keys, pair = np.unique(np.arange(B) * V + tokens, return_inverse=True)
        cells = (pair.reshape(-1, 1) * E + np.arange(E)).ravel()
        rows = np.bincount(cells, weights=(D @ self.Wxh_).ravel(), minlength=len(keys) * E).reshape(-1, E)
        Db = D.transpose(1, 2, 0)  # (B, H, T)
        return {
            "Wxh": Db @ self.emb_[tokens].transpose(1, 0, 2),
            "Whh": Db @ hs[:-1].transpose(1, 0, 2),
            "bh": D.sum(axis=0),
            "wo": dz[:, None] * hs[-1],
            "bo": dz[:, None],
        }, (keys // V, keys % V, rows)

    def decision_function(self, sequences) -> np.ndarray:
        self._require_fitted()
        seqs = self._check_sequences(sequences)
        chunks = [self._forward(seqs[i : i + _BATCH])[3] for i in range(0, len(seqs), _BATCH)]
        return np.concatenate([np.empty(0), *chunks])

    def loss(self, sequences, y) -> float:
        return bce_from_logits(self.decision_function(sequences), np.asarray(y, dtype=np.float64))

    def example_loss(self, seq, y) -> float:
        self._require_fitted()
        z = self._forward(self._check_sequences([seq]))[3]
        return bce_from_logits(z, np.array([float(y)]))

    def example_grads(self, seq, y) -> dict[str, np.ndarray]:
        self._require_fitted()
        grads, (_, tok, rows) = self._grads(self._check_sequences([seq]), np.array([float(y)]))
        d_emb = np.zeros_like(self.emb_)
        d_emb[tok] = rows
        return {"emb": d_emb, **{name: g[0] for name, g in grads.items()}}
