"""Classifier training contracts: determinism, toy-task capability, splits."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from warden.hashing import SplitMix64
from warden.ml import (
    Dataset,
    EmptySequence,
    InsufficientGroups,
    MlpClassifier,
    RnnClassifier,
    SequenceDataset,
    SingleClass,
    SvmClassifier,
    split,
    split_indices,
)
from warden.features import DimensionMismatch
from warden.ml.base import _P_HI, _P_LO, glorot_uniform, probability, sigmoid


def blobs(seed, n=200, dim=5, center=3.0, sigma=0.3):
    """Linearly separable two-blob set; the fixed direction (1,..,1) separates it."""
    rng = SplitMix64(seed)
    X, y = [], []
    for i in range(n):
        label = i % 2
        c = center if label else -center
        X.append([c + sigma * rng.gauss() for _ in range(dim)])
        y.append(label)
    return np.array(X), np.array(y)


@pytest.mark.parametrize("seed, rows, cols", [(0, 1, 1), (1, 1, 32), (7, 32, 16), (42, 256, 16), (3, 5, 0)])
def test_glorot_uniform_equals_the_per_element_draws(seed, rows, cols):
    fan_in, fan_out = cols + 3, rows + 1
    rng, scalar = SplitMix64(seed), SplitMix64(seed)
    a = np.sqrt(6.0 / (fan_in + fan_out))
    expected = np.array([scalar.uniform_in(-a, a) for _ in range(rows * cols)], dtype=np.float64)
    got = glorot_uniform(rng, rows, cols, fan_in=fan_in, fan_out=fan_out)
    assert got.shape == (rows, cols)
    assert got.tobytes() == expected.reshape(rows, cols).tobytes()
    assert rng.next_u64() == scalar.next_u64()  # exactly rows * cols draws were taken


# --- SVM -----------------------------------------------------------------------

def test_svm_two_point_set():
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    y = np.array([1, 0])
    model = SvmClassifier(epochs=50, seed=0).fit(X, y)
    assert (model.predict(X) == y).all()


def test_svm_separable_blobs_oracle():
    X, y = blobs(99)
    margins = (2 * y - 1) * X.sum(axis=1)
    assert margins.min() > 0  # separability oracle: fixed direction works
    model = SvmClassifier(lambda_=0.05, epochs=50, seed=0).fit(X, y)
    assert (model.predict(X) == y).mean() == 1.0


def test_svm_large_lambda_shrinks_weights():
    X, y = blobs(4)
    model = SvmClassifier(lambda_=1e3, epochs=20, seed=0).fit(X, y)
    assert np.linalg.norm(model.w_) < 0.1


def test_svm_deterministic_per_seed():
    X, y = blobs(1)
    a = SvmClassifier(seed=3).fit(X, y)
    b = SvmClassifier(seed=3).fit(X, y)
    c = SvmClassifier(seed=4).fit(X, y)
    assert np.array_equal(a.w_, b.w_) and a.b_ == b.b_
    assert not np.array_equal(a.w_, c.w_)


def test_svm_objective_decreases_over_training():
    X, y = blobs(2)
    for seed in range(10):
        one = SvmClassifier(lambda_=0.01, epochs=1, seed=seed).fit(X, y)
        many = SvmClassifier(lambda_=0.01, epochs=20, seed=seed).fit(X, y)
        assert many.objective(X, y) <= one.objective(X, y)


def test_svm_single_class_rejected():
    X = np.ones((4, 2))
    with pytest.raises(SingleClass):
        SvmClassifier().fit(X, np.zeros(4, dtype=int))


def test_svm_zero_model_scores_half():
    model = SvmClassifier(epochs=0, seed=0)
    model.w_ = np.zeros(3)
    model.b_ = 0.0
    assert np.all(model.proba(np.random.default_rng(0).normal(size=(10, 3))) == 0.5)


def test_svm_get_params_roundtrip():
    model = SvmClassifier(lambda_=0.5, epochs=3, seed=9)
    assert model.get_params() == {"lambda_": 0.5, "epochs": 3, "seed": 9}
    model.set_params(epochs=7)
    assert model.epochs == 7
    with pytest.raises(ValueError):
        model.set_params(bogus=1)


# --- MLP -----------------------------------------------------------------------

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def test_mlp_learns_xor():
    model = MlpClassifier(hidden=8, epochs=2000, batch=4, seed=0).fit(XOR_X, XOR_Y)
    assert (model.predict(XOR_X) == XOR_Y).all()


def test_mlp_zero_epochs_returns_initialized_model():
    a = MlpClassifier(hidden=4, epochs=0, seed=5).fit(XOR_X, XOR_Y)
    b = MlpClassifier(hidden=4, epochs=0, seed=5)
    b._init_params(2)
    assert np.array_equal(a.W1_, b.W1_)
    assert np.array_equal(a.W2_, b.W2_)
    assert a.loss(XOR_X, XOR_Y) == b.loss(XOR_X, XOR_Y)


def test_mlp_loss_never_worse_after_training():
    X, y = blobs(8, n=100)
    init = MlpClassifier(hidden=8, epochs=0, seed=2).fit(X, y)
    trained = MlpClassifier(hidden=8, epochs=50, seed=2).fit(X, y)
    assert trained.loss(X, y) <= init.loss(X, y)


def test_mlp_deterministic_per_seed():
    X, y = blobs(3, n=60)
    a = MlpClassifier(epochs=5, seed=11).fit(X, y)
    b = MlpClassifier(epochs=5, seed=11).fit(X, y)
    for name in ("W1_", "b1_", "W2_"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.b2_ == b.b2_


def masked_sigmoid(z):
    """sigmoid as it was computed by masked gathers and scatters, kept as the bit oracle."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def clipped_probability(z):
    return np.clip(masked_sigmoid(z), _P_LO, _P_HI)


def same_bits(a, b) -> bool:
    """Same type, shape, dtype and every bit, NaN payloads and signs included."""
    if type(a) is not type(b):
        return False
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.2, -745.2, 746.0, -746.0, 1e308, -1e308, 36.7, -36.7, 5e-324]
LOGITS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGES)


@settings(max_examples=300, deadline=None)
@given(z=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=40), elements=LOGITS))
def test_sigmoid_and_probability_keep_the_bits_of_the_masked_code(z):
    assert same_bits(sigmoid(z), masked_sigmoid(z))
    assert same_bits(probability(z), clipped_probability(z))


@pytest.mark.parametrize("z", [0.0, -0.0, np.nan, np.float64(-np.nan), np.inf, -np.inf, 800.0, -800.0, 3, [], [[-0.0]]])
def test_sigmoid_and_probability_of_python_and_0d_input_keep_their_type_and_bits(z):
    assert same_bits(sigmoid(z), masked_sigmoid(z))
    assert same_bits(probability(z), clipped_probability(z))


def test_mlp_zero_weight_output_is_sigmoid_b2():
    model = MlpClassifier(hidden=4, epochs=0, seed=0).fit(XOR_X, XOR_Y)
    model.W1_ = np.zeros_like(model.W1_)
    model.W2_ = np.zeros_like(model.W2_)
    model.b2_ = 0.7
    expected = 1.0 / (1.0 + np.exp(-0.7))
    assert np.allclose(model.proba(XOR_X), expected)


def test_mlp_probabilities_finite_fuzz():
    model = MlpClassifier(hidden=8, epochs=5, seed=1).fit(*blobs(5, n=40))
    rng = np.random.default_rng(7)
    X = rng.normal(scale=100.0, size=(1000, 5))
    p = model.proba(X)
    assert np.all(np.isfinite(p)) and np.all((p > 0) & (p < 1))


def test_svm_probabilities_finite_fuzz():
    model = SvmClassifier(epochs=5, seed=1).fit(*blobs(5, n=40))
    rng = np.random.default_rng(8)
    p = model.proba(rng.normal(size=(1000, 5)))
    assert np.all(np.isfinite(p)) and np.all((p > 0) & (p < 1))


def test_rnn_probabilities_finite_fuzz():
    seqs, ys = ab_language(13, n=40)
    model = RnnClassifier(vocab=6, epochs=2, seed=1).fit(seqs, ys)
    rng = SplitMix64(21)
    fuzz = [np.array([rng.randrange(6) for _ in range(1 + rng.randrange(50))]) for _ in range(1000)]
    p = model.proba(fuzz)
    assert np.all(np.isfinite(p)) and np.all((p > 0) & (p < 1))


def test_mlp_dimension_mismatch():
    model = MlpClassifier(epochs=1, seed=0).fit(*blobs(6, n=20))
    with pytest.raises(DimensionMismatch):
        model.proba(np.ones((2, 9)))


# --- RNN -----------------------------------------------------------------------

def ab_language(seed, n=200, vocab=6, max_len=20):
    """Label 1 iff token 0 appears and token 1 appears later."""
    rng = SplitMix64(seed)
    seqs, ys = [], []
    for _ in range(n):
        length = 5 + rng.randrange(max_len - 4)
        s = [rng.randrange(vocab) for _ in range(length)]
        label = 0
        for i, t in enumerate(s):
            if t == 0 and 1 in s[i + 1 :]:
                label = 1
                break
        seqs.append(np.array(s))
        ys.append(label)
    return seqs, np.array(ys)


def test_rnn_learns_token_order_language():
    seqs, ys = ab_language(12345)
    model = RnnClassifier(vocab=6, seed=0).fit(seqs[:140], ys[:140])
    accuracy = (model.predict(seqs[140:]) == ys[140:]).mean()
    assert accuracy >= 0.9


def test_rnn_truncation_contract():
    seqs, ys = ab_language(77, n=40)
    model = RnnClassifier(vocab=6, epochs=2, t_max=16, seed=1).fit(seqs, ys)
    rng = SplitMix64(4)
    long_seq = np.array([rng.randrange(6) for _ in range(10000)])
    assert model.proba([long_seq])[0] == model.proba([long_seq[:16]])[0]


def test_rnn_deterministic_per_seed():
    seqs, ys = ab_language(9, n=30)
    a = RnnClassifier(vocab=6, epochs=3, seed=2).fit(seqs, ys)
    b = RnnClassifier(vocab=6, epochs=3, seed=2).fit(seqs, ys)
    for name, arr in a.param_arrays().items():
        assert np.array_equal(arr, b.param_arrays()[name]), name


def test_rnn_empty_sequence_rejected():
    with pytest.raises(EmptySequence):
        RnnClassifier(vocab=4, epochs=1).fit([np.array([], dtype=int), np.array([1])], np.array([0, 1]))


def test_rnn_single_class_rejected():
    with pytest.raises(SingleClass):
        RnnClassifier(vocab=4).fit([np.array([1]), np.array([2])], np.array([1, 1]))


def test_rnn_token_out_of_vocab_rejected():
    with pytest.raises(ValueError):
        RnnClassifier(vocab=4, epochs=0).fit([np.array([5]), np.array([1])], np.array([0, 1]))


# --- split ------------------------------------------------------------------------

def grouped_dataset(n_jobs_per_class=10, windows_per_job=4, dim=3):
    rows, y, groups = [], [], []
    rng = SplitMix64(42)
    for label in (0, 1):
        for j in range(n_jobs_per_class):
            job = f"job-{label}-{j}"
            for _ in range(windows_per_job):
                rows.append([rng.gauss() for _ in range(dim)])
                y.append(label)
                groups.append(job)
    return Dataset(np.array(rows), np.array(y), tuple(groups))


def test_split_counts_per_class():
    ds = grouped_dataset()
    train, test = split(ds, 0.7, seed=1)
    for label in (0, 1):
        train_groups = {g for g, yy in zip(train.groups, train.y) if yy == label}
        test_groups = {g for g, yy in zip(test.groups, test.y) if yy == label}
        assert len(train_groups) == 7 and len(test_groups) == 3


def test_split_deterministic_and_seed_sensitive():
    ds = grouped_dataset()
    a1 = split(ds, 0.7, seed=5)[0]
    a2 = split(ds, 0.7, seed=5)[0]
    assert a1.groups == a2.groups
    different = any(split(ds, 0.7, seed=s)[0].groups != a1.groups for s in range(6, 16))
    assert different


def test_split_no_group_leaks_over_100_seeds():
    ds = grouped_dataset()
    for seed in range(100):
        train, test = split(ds, 0.7, seed=seed)
        assert set(train.groups).isdisjoint(set(test.groups))
        assert len(train) + len(test) == len(ds)


def test_split_insufficient_groups():
    ds = grouped_dataset(n_jobs_per_class=1)
    with pytest.raises(InsufficientGroups):
        split(ds, 0.7, seed=0)


def test_split_works_for_sequences():
    seqs = tuple(np.array([1, 2, 3]) for _ in range(8))
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    groups = tuple(f"g{i}" for i in range(8))
    ds = SequenceDataset(seqs, y, groups, vocab=8)
    train, test = split(ds, 0.5, seed=3)
    assert len(train) + len(test) == 8
    assert set(train.groups).isdisjoint(test.groups)


def test_split_rejects_mixed_label_group():
    ds = Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), ("a", "a", "b", "b"))
    with pytest.raises(ValueError):
        split_indices(ds.groups, ds.y, 0.5, seed=0)
