"""RnnClassifier's BPTT against a per-token reference implementation.

The reference below is the straightforward form of the forward pass and of
backpropagation through time: every product, outer product and embedding-row
update happens once per token. The classifier computes the same sums with
whole-sequence matrix products, so the two must agree to rounding.
"""

from __future__ import annotations

import numpy as np
import pytest

from warden.hashing import SplitMix64
from warden.ml import RnnClassifier
from warden.ml.base import sigmoid

TOL = 1e-12


def reference_forward(m: RnnClassifier, seq: np.ndarray) -> tuple[np.ndarray, float]:
    T = seq.shape[0]
    hs = np.zeros((T + 1, m.hidden), dtype=np.float64)
    for t in range(T):
        hs[t + 1] = np.tanh(m.Wxh_ @ m.emb_[seq[t]] + m.Whh_ @ hs[t] + m.bh_)
    z = float(m.wo_ @ hs[T] + m.bo_)
    return hs, z


def reference_grads(m: RnnClassifier, seq: np.ndarray, y: float) -> dict[str, np.ndarray]:
    hs, z = reference_forward(m, seq)
    T = seq.shape[0]
    dz = float(sigmoid(np.array([z]))[0] - y)
    d_emb = np.zeros_like(m.emb_)
    d_Wxh = np.zeros_like(m.Wxh_)
    d_Whh = np.zeros_like(m.Whh_)
    d_bh = np.zeros_like(m.bh_)
    d_wo = dz * hs[T]
    d_bo = np.array([dz])
    dh = dz * m.wo_
    for t in range(T - 1, -1, -1):
        h = hs[t + 1]
        dzt = dh * (1.0 - h * h)
        d_Wxh += np.outer(dzt, m.emb_[seq[t]])
        d_Whh += np.outer(dzt, hs[t])
        d_bh += dzt
        d_emb[seq[t]] += m.Wxh_.T @ dzt
        dh = m.Whh_.T @ dzt
    return {"emb": d_emb, "Wxh": d_Wxh, "Whh": d_Whh, "bh": d_bh, "wo": d_wo, "bo": d_bo}


def reference_fit(m: RnnClassifier, seqs, y) -> None:
    """One pass of ``fit``'s loop (init, shuffle, clipped SGD) on reference gradients."""
    m._init_params()
    rng = SplitMix64(m.seed + 1)
    seqs = [np.asarray(s, dtype=np.int64)[: m.t_max] for s in seqs]
    for _ in range(m.epochs):
        order = list(range(len(seqs)))
        rng.shuffle(order)
        for i in order:
            grads = reference_grads(m, seqs[i], float(y[i]))
            norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            scale = m.lr if norm <= m.clip else m.lr * (m.clip / norm)
            m.emb_ -= scale * grads["emb"]
            m.Wxh_ -= scale * grads["Wxh"]
            m.Whh_ -= scale * grads["Whh"]
            m.bh_ -= scale * grads["bh"]
            m.wo_ -= scale * grads["wo"]
            m.bo_ -= scale * float(grads["bo"][0])


def initialized(seed: int, vocab: int = 12, t_max: int = 64) -> RnnClassifier:
    model = RnnClassifier(hidden=8, embed=5, epochs=0, t_max=t_max, seed=seed, vocab=vocab)
    return model.fit([np.array([0]), np.array([1])], np.array([0, 1]))


def sequence_for(case: int, rng: SplitMix64, vocab: int, t_max: int) -> np.ndarray:
    kind = case % 5
    if kind == 0:
        tokens = [rng.randrange(vocab)]  # length 1
    elif kind == 1:
        tokens = [rng.randrange(vocab)] * (2 + rng.randrange(40))  # one token throughout
    elif kind == 2:
        tokens = [rng.randrange(3) for _ in range(2 + rng.randrange(60))]  # many repeats
    elif kind == 3:
        tokens = [rng.randrange(vocab) for _ in range(t_max + 1 + rng.randrange(50))]  # truncated
    else:
        tokens = [rng.randrange(vocab) for _ in range(1 + rng.randrange(t_max))]
    return np.array(tokens, dtype=np.int64)


@pytest.mark.parametrize("case", range(50))
def test_bptt_matches_per_token_reference(case):
    rng = SplitMix64(9000 + case)
    model = initialized(seed=case)
    # move off the zero-bias initial point so every parameter matters
    for arr in (model.emb_, model.Wxh_, model.Whh_, model.bh_, model.wo_):
        arr += np.array([rng.gauss() * 0.3 for _ in range(arr.size)]).reshape(arr.shape)
    model.bo_ = rng.gauss()
    seq = sequence_for(case, rng, model.vocab, model.t_max)
    y = case % 2
    kept = seq[: model.t_max]

    _, z_ref = reference_forward(model, kept)
    assert model.decision_function([seq])[0] == pytest.approx(z_ref, rel=TOL, abs=TOL)
    expected = reference_grads(model, kept, float(y))
    got = model.example_grads(seq, y)
    assert set(got) == set(expected)
    for name, ref in expected.items():
        np.testing.assert_allclose(got[name], ref, rtol=TOL, atol=TOL, err_msg=name)


@pytest.mark.parametrize("seed", range(4))
def test_one_fit_epoch_matches_reference(seed):
    rng = SplitMix64(700 + seed)
    # a repeated token in each sequence and one past t_max
    seqs = [
        np.array([rng.randrange(3) for _ in range(30)]),
        np.array([rng.randrange(12) for _ in range(80)]),
    ]
    y = np.array([0, 1])
    fitted = RnnClassifier(hidden=8, embed=5, epochs=1, t_max=64, seed=seed, vocab=12).fit(seqs, y)
    reference = RnnClassifier(hidden=8, embed=5, epochs=1, t_max=64, seed=seed, vocab=12)
    reference_fit(reference, seqs, y)
    for name, arr in reference.param_arrays().items():
        np.testing.assert_allclose(fitted.param_arrays()[name], arr, rtol=TOL, atol=TOL, err_msg=name)
