"""RnnClassifier's BPTT against a per-token reference implementation.

The reference below is the straightforward form of the forward pass and of
backpropagation through time: every product, outer product and embedding-row
update happens once per token. The classifier computes the same sums with
whole-sequence matrix products, so the two must agree to rounding.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from warden.hashing import SplitMix64
from warden.ml import RnnClassifier, rnn
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


def reference_fit(m: RnnClassifier, seqs, y, batch: int) -> None:
    """``fit``'s loop (init, shuffle, minibatch SGD) on reference gradients.

    Each update is ``lr`` times the sum over ``batch`` examples of the
    per-example gradients, each scaled to a global L2 norm of at most
    ``clip`` on its own.
    """
    m._init_params()
    rng = SplitMix64(m.seed + 1)
    seqs = [np.asarray(s, dtype=np.int64)[: m.t_max] for s in seqs]
    for _ in range(m.epochs):
        order = list(range(len(seqs)))
        rng.shuffle(order)
        for start in range(0, len(order), batch):
            step = {name: 0.0 for name in m._params}
            for i in order[start : start + batch]:
                grads = reference_grads(m, seqs[i], float(y[i]))
                norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
                scale = 1.0 if norm <= m.clip else m.clip / norm
                for name, g in grads.items():
                    step[name] = step[name] + scale * g
            m.emb_ -= m.lr * step["emb"]
            m.Wxh_ -= m.lr * step["Wxh"]
            m.Whh_ -= m.lr * step["Whh"]
            m.bh_ -= m.lr * step["bh"]
            m.wo_ -= m.lr * step["wo"]
            m.bo_ -= m.lr * float(step["bo"][0])


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
def test_one_fit_epoch_matches_reference(seed, monkeypatch):
    monkeypatch.setattr(rnn, "_BATCH", 1)
    rng = SplitMix64(700 + seed)
    # a repeated token in each sequence and one past t_max
    seqs = [
        np.array([rng.randrange(3) for _ in range(30)]),
        np.array([rng.randrange(12) for _ in range(80)]),
    ]
    y = np.array([0, 1])
    fitted = RnnClassifier(hidden=8, embed=5, epochs=1, t_max=64, seed=seed, vocab=12).fit(seqs, y)
    reference = RnnClassifier(hidden=8, embed=5, epochs=1, t_max=64, seed=seed, vocab=12)
    reference_fit(reference, seqs, y, batch=1)
    assert_same_params(fitted, reference)


def assert_same_params(got: RnnClassifier, expected: RnnClassifier) -> None:
    for name, arr in expected.param_arrays().items():
        np.testing.assert_allclose(got.param_arrays()[name], arr, rtol=TOL, atol=TOL, err_msg=name)


def mixed_batch(seed: int, vocab: int = 12, t_max: int = 64) -> list[np.ndarray]:
    """Sequences of lengths 1 to past t_max, so the padded batch masks many steps."""
    rng = SplitMix64(seed)
    lengths = [1, 3, 17, t_max + 9, 40, 2, t_max]
    return [np.array([rng.randrange(vocab) for _ in range(n)]) for n in lengths]


@pytest.mark.parametrize("seed, batch", [(0, 3), (1, 4), (2, 7), (3, 16)])
def test_minibatch_fit_matches_reference(seed, batch, monkeypatch):
    monkeypatch.setattr(rnn, "_BATCH", batch)
    seqs = mixed_batch(800 + seed)
    y = np.array([0, 1, 1, 0, 1, 0, 0])
    params = dict(hidden=8, embed=5, epochs=2, t_max=64, clip=1.0, seed=seed, vocab=12)
    fitted = RnnClassifier(**params).fit(seqs, y)
    reference = RnnClassifier(**params)
    reference_fit(reference, seqs, y, batch)
    assert_same_params(fitted, reference)


@pytest.mark.parametrize("seed", range(4))
def test_padded_batch_gradients_sum_to_the_reference(seed):
    rng = SplitMix64(950 + seed)
    model = initialized(seed=seed)
    for arr in (model.emb_, model.Wxh_, model.Whh_, model.bh_, model.wo_):
        arr += np.array([rng.gauss() * 0.3 for _ in range(arr.size)]).reshape(arr.shape)
    seqs = [s[: model.t_max] for s in mixed_batch(seed)]
    y = np.array([seed % 2, 1, 0, 1, 0, 0, 1], dtype=np.float64)
    got, (ex, tok, rows) = model._grads(seqs, y)
    assert len(set(zip(ex, tok))) == len(rows)  # one row per distinct (example, token) pair
    got["emb"] = np.zeros((len(seqs), *model.emb_.shape))
    got["emb"][ex, tok] = rows
    expected = [reference_grads(model, seq, label) for seq, label in zip(seqs, y)]
    for name, per_example in got.items():
        assert per_example.shape[0] == len(seqs)
        total = sum(ref[name] for ref in expected)
        np.testing.assert_allclose(per_example.sum(axis=0), total, rtol=TOL, atol=TOL, err_msg=name)
        for b, ref in enumerate(expected):
            np.testing.assert_allclose(per_example[b], ref[name], rtol=TOL, atol=TOL, err_msg=f"{name}[{b}]")
    # a shorter batch-mate does not change a sequence's own logit
    z_alone = model.decision_function([seqs[3]])[0]
    assert model._forward(seqs)[3][3] == pytest.approx(z_alone, rel=TOL, abs=TOL)


def test_each_example_is_clipped_on_its_own():
    model = initialized(seed=5)
    model.bo_ = 12.0  # confident "malicious": label 0 costs a lot, label 1 almost nothing
    seqs = [np.array([3, 1, 4, 1, 5, 9, 2, 6]), np.array([2, 7, 1, 8])]
    y = np.array([0.0, 1.0])
    huge, small = (reference_grads(model, seq, label) for seq, label in zip(seqs, y))
    norm = [np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())) for grads in (huge, small)]
    assert norm[0] > 1e4 * norm[1]
    model.set_params(lr=0.1, clip=np.sqrt(norm[0] * norm[1]))
    before = model.param_arrays()
    model._step(seqs, y)
    after = model.param_arrays()
    scale = model.clip / norm[0]  # the huge gradient is scaled down to the clip, its batch-mate is not
    for name in before:
        expected = before[name] - model.lr * (scale * huge[name] + small[name])
        np.testing.assert_allclose(after[name], expected, rtol=TOL, atol=TOL, err_msg=name)


def test_a_step_builds_no_array_of_batch_times_vocab_size():
    # the embedding gradient is kept per (example, token) pair, so with a
    # large vocabulary a step holds at most a few embedding-sized arrays
    model = initialized(seed=3, vocab=1 << 16)
    seqs = mixed_batch(4, vocab=model.vocab)
    y = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0])
    tracemalloc.start()
    try:
        model._step(seqs, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * model.emb_.nbytes < len(seqs) * model.emb_.nbytes
