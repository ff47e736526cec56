"""Byte identity of the bulk outputs on a small seeded corpus.

The extract and token hashes were computed with the record-per-line reader
and the per-event n-gram loop. The feature CSV of `warden extract` and the
RNN token sequences must not change when the way a trace is read or
windowed changes. The `warden train` model files and `warden eval` metrics
were hashed when the CLI still restated every estimator default; they must
not change with where a default is kept. The RNN's two model files and its
ROC were re-hashed when it moved from per-example to minibatch training.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from warden.cli import main
from warden.datagen import ScenarioSpec, gen_dataset
from warden.features import FeatureConfig, Scaler
from warden.ml import MlpClassifier, RnnClassifier, SvmClassifier, load_model
from warden.ml.data import build_feature_dataset, build_sequence_dataset

ESTIMATORS = {"svm": SvmClassifier, "mlp": MlpClassifier, "rnn": RnnClassifier}

EXTRACT_SHA256 = {
    "default": "917e8aed35f5dec531f5cc2e4311cfbe21fc9313f76536508af3534deb7cfb72",
    "trigrams": "bb3c5a98623d79f0d4c6d5508e2acf845a89e446ac63bec40afa5fb0ddeecf5f",
}
TOKENS_SHA256 = {
    128: "319bba212605b8584649e0c04eb6b09eda418af869b1c06e6f12f10cca39abf3",
    512: "f8c85e1adbcc9beca334f5ce654793f560daaa04fde9468fe21356d64c4954a8",
}

# every training hyperparameter flag; a kind ignores those its estimator does not take
HYPERPARAMETER_FLAGS = {
    "default": [],
    "all": ["--lambda", "1e-3", "--epochs", "3", "--hidden", "8", "--lr", "0.02", "--batch", "4",
            "--embed", "5", "--t-max", "64", "--clip", "2.5", "--seed", "3"],
}
TRAIN_SHA256 = {
    ("svm", "default"): "90aa8bc68adf7f69fe41aa1fb5fd2fc4f5ee9e44169e593a08335976de175419",
    ("svm", "all"): "420da23feed8ebf34f7204b4de50ef6de71edc505eb5f3d713ceeb4337523d9a",
    ("mlp", "default"): "98c9e35283752596e63b2eecbf5aaa3236b5c7d7a0f4b17d32cec0c9b6dc3d6e",
    ("mlp", "all"): "347f147b2a4e7b3f5b23639cba741c01bd767dcdbeed4c5c31f007d8f49d854a",
    ("rnn", "default"): "a7b21e5514fd308e91b54006bb8b2a22053f518bca3d8e1941e593b610180832",
    ("rnn", "all"): "b3ecf6063243031df251fd0b707410b919ba2a5f15449ec3029218421f31e0d6",
}
# (--metrics-out, --roc-out) of `warden eval` on each default model
EVAL_SHA256 = {
    ("svm", "manifest"): (
        "c800cfb10bce4bfa220216f5fe81ae14df7c7606cb63dce0df185e74f42b40ed",
        "08779fd0fd11f7569c4526225acc8e5ba9e8275523f64bcaae46feffe3b83fc2"),
    ("mlp", "manifest"): (
        "9edbc6cca9f96617c407d9e177003a9728a77da46cab712e158a33481299c704",
        "e164447819d06e60d7ca7f0d3311accc1ec1ca42f33c5c90764b0227d8733cce"),
    ("rnn", "manifest"): (
        "56875571ecfd8cece8aae27fbd7a77ff312fc160cf3f81efc94614383407b219",
        "8f0fee719ba149d2394cbe3ac3e56774b363c02422acdea34ddefb8a7025d1fb"),
    ("svm", "features"): (
        "c800cfb10bce4bfa220216f5fe81ae14df7c7606cb63dce0df185e74f42b40ed",
        "08779fd0fd11f7569c4526225acc8e5ba9e8275523f64bcaae46feffe3b83fc2"),
    ("mlp", "features"): (
        "9edbc6cca9f96617c407d9e177003a9728a77da46cab712e158a33481299c704",
        "e164447819d06e60d7ca7f0d3311accc1ec1ca42f33c5c90764b0227d8733cce"),
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("identity")
    gen_dataset(ScenarioSpec(n_normal=3, n_malicious=3, duration_s=30.0, seed=11), out)
    return out


def sha256_file(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "name, flags",
    [("default", []), ("trigrams", ["--ngram-orders", "1,2,3", "--hash-dim", "64", "--window-s", "7", "--hop-s", "3"])],
)
def test_extract_csv_is_byte_identical(corpus, tmp_path, name, flags):
    out = tmp_path / "features.csv"
    assert main(["extract", "--manifest", str(corpus / "manifest.json"), "--out", str(out), *flags]) == 0
    assert sha256_file(out) == EXTRACT_SHA256[name]


@pytest.mark.parametrize("t_max", [128, 512])
def test_sequence_tokens_are_identical(corpus, t_max):
    data = build_sequence_dataset(str(corpus / "manifest.json"), FeatureConfig(), t_max=t_max)
    digest = hashlib.sha256()
    for group, label, seq in zip(data.groups, data.y, data.sequences):
        digest.update(f"{group}:{int(label)}:".encode())
        digest.update(seq.astype("<i8").tobytes())
    assert digest.hexdigest() == TOKENS_SHA256[t_max]


@pytest.fixture(scope="module")
def models(corpus, tmp_path_factory):
    """The `.wmdl` of every kind from the manifest, keyed by (kind, flag set)."""
    out = tmp_path_factory.mktemp("models")
    paths = {}
    for kind in ESTIMATORS:
        for name, flags in HYPERPARAMETER_FLAGS.items():
            paths[kind, name] = out / f"{kind}-{name}.wmdl"
            manifest = str(corpus / "manifest.json")
            assert main(["train", "--kind", kind, "--manifest", manifest, "--out", str(paths[kind, name]), *flags]) == 0
    return paths


@pytest.mark.parametrize("kind, flags", sorted(TRAIN_SHA256))
def test_train_model_file_is_byte_identical(models, kind, flags):
    assert sha256_file(models[kind, flags]) == TRAIN_SHA256[kind, flags]


@pytest.mark.parametrize("kind, source", sorted(EVAL_SHA256))
def test_eval_metrics_and_roc_are_byte_identical(corpus, models, tmp_path, kind, source):
    if source == "features":
        corpus_flags = ["--features", str(tmp_path / "features.csv")]
        assert main(["extract", "--manifest", str(corpus / "manifest.json"), "--out", corpus_flags[1]]) == 0
    else:
        corpus_flags = ["--manifest", str(corpus / "manifest.json")]
    metrics, roc = tmp_path / "metrics.csv", tmp_path / "roc.csv"
    model = str(models[kind, "default"])
    assert main(["eval", "--model", model, *corpus_flags, "--metrics-out", str(metrics), "--roc-out", str(roc)]) == 0
    assert (sha256_file(metrics), sha256_file(roc)) == EVAL_SHA256[kind, source]


@pytest.mark.parametrize("kind", sorted(ESTIMATORS))
def test_train_epochs_zero_saves_the_untrained_model(corpus, tmp_path, kind):
    manifest = str(corpus / "manifest.json")
    out = tmp_path / "untrained.wmdl"
    assert main(["train", "--kind", kind, "--manifest", manifest, "--out", str(out), "--epochs", "0"]) == 0
    config = FeatureConfig()
    reference = ESTIMATORS[kind](epochs=0)
    if "vocab" in reference.get_params():
        reference.set_params(vocab=config.hash_dim)
        data = build_sequence_dataset(manifest, config, t_max=reference.t_max)
        reference.fit(data.sequences, data.y)
    else:
        data, _ = build_feature_dataset(manifest, config)
        reference.fit(Scaler().fit(data.X).transform(data.X), data.y)
    saved = load_model(out).model
    assert saved.get_params() == reference.get_params()
    expected = reference.param_arrays()
    for name, values in saved.param_arrays().items():
        np.testing.assert_array_equal(values, expected[name])
