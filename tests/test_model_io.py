"""Model file round-trips and corruption handling."""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np
import pytest

from warden.features import FeatureConfig, Scaler
from warden.ml import (
    CorruptFile,
    MlpClassifier,
    ModelBundle,
    RnnClassifier,
    SvmClassifier,
    VersionMismatch,
    load_model,
    save_model,
)
from tests.test_ml import ab_language, blobs


@pytest.fixture(scope="module")
def trained_bundles(tmp_path_factory):
    X, y = blobs(5, n=60)
    config = FeatureConfig(hash_dim=16)  # dim must match the toy feature width below
    scaler = Scaler().fit(np.hstack([X, np.zeros((60, 23))]))
    Xw = scaler.transform(np.hstack([X, np.zeros((60, 23))]))
    svm = SvmClassifier(epochs=5, seed=1).fit(Xw, y)
    mlp = MlpClassifier(hidden=6, epochs=5, seed=1).fit(Xw, y)
    seqs, ys = ab_language(3, n=30)
    rnn = RnnClassifier(vocab=16, epochs=2, seed=1).fit(seqs, ys)
    return {
        "svm": ModelBundle(kind="svm", model=svm, feature_config=config, scaler=scaler),
        "mlp": ModelBundle(kind="mlp", model=mlp, feature_config=config, scaler=scaler),
        "rnn": ModelBundle(kind="rnn", model=rnn, feature_config=config, scaler=None),
    }


@pytest.mark.parametrize("kind", ["svm", "mlp", "rnn"])
def test_round_trip_bitwise_predictions(kind, trained_bundles, tmp_path):
    bundle = trained_bundles[kind]
    path = tmp_path / f"{kind}.wmdl"
    model_id = save_model(bundle, path)
    loaded = load_model(path)
    assert loaded.kind == kind
    assert loaded.model_id == model_id
    assert loaded.feature_config == bundle.feature_config
    assert loaded.model.get_params() == bundle.model.get_params()
    for name, arr in bundle.model.param_arrays().items():
        assert np.array_equal(arr, loaded.model.param_arrays()[name])
    if kind == "rnn":
        seqs, _ = ab_language(8, n=10)
        assert np.array_equal(bundle.model.proba(seqs), loaded.model.proba(seqs))
    else:
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 28))
        a = bundle.model.proba(bundle.scaler.transform(X))
        b = loaded.model.proba(loaded.scaler.transform(X))
        assert np.array_equal(a, b)


def test_save_twice_is_byte_identical(trained_bundles, tmp_path):
    p1, p2 = tmp_path / "a.wmdl", tmp_path / "b.wmdl"
    save_model(trained_bundles["svm"], p1)
    save_model(trained_bundles["svm"], p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_file_is_corrupt(trained_bundles, tmp_path):
    path = tmp_path / "m.wmdl"
    save_model(trained_bundles["mlp"], path)
    blob = path.read_bytes()
    for cut in (len(blob) - 1, len(blob) // 2, 8):
        path.write_bytes(blob[:cut])
        with pytest.raises(CorruptFile):
            load_model(path)


def test_flipped_byte_is_corrupt(trained_bundles, tmp_path):
    path = tmp_path / "m.wmdl"
    save_model(trained_bundles["svm"], path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptFile):
        load_model(path)


def test_version_bump_is_version_mismatch(trained_bundles, tmp_path):
    path = tmp_path / "m.wmdl"
    save_model(trained_bundles["svm"], path)
    blob = bytearray(path.read_bytes())
    blob[4:6] = struct.pack("<H", 2)
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatch):
        load_model(path)


def test_bad_magic_is_corrupt(trained_bundles, tmp_path):
    path = tmp_path / "m.wmdl"
    save_model(trained_bundles["svm"], path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptFile):
        load_model(path)


def read_header(path):
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 7)
    return blob[6], json.loads(blob[11 : 11 + header_len])


@pytest.mark.parametrize(
    "kind,code,table",
    [
        ("svm", 0, [["w", [28]], ["b", [1]], ["scaler.mean", [28]], ["scaler.std", [28]]]),
        (
            "mlp",
            1,
            [["W1", [6, 28]], ["b1", [6]], ["W2", [1, 6]], ["b2", [1]], ["scaler.mean", [28]], ["scaler.std", [28]]],
        ),
        (
            "rnn",
            2,
            [["emb", [16, 16]], ["Wxh", [32, 16]], ["Whh", [32, 32]], ["bh", [32]], ["wo", [32]], ["bo", [1]]],
        ),
    ],
)
def test_kind_byte_and_parameter_table_are_pinned(kind, code, table, trained_bundles, tmp_path):
    path = tmp_path / f"{kind}.wmdl"
    save_model(trained_bundles[kind], path)
    kind_byte, header = read_header(path)
    assert kind_byte == code
    assert header["params"] == table


def test_save_rejects_a_kind_that_differs_from_the_model(trained_bundles, tmp_path):
    svm = trained_bundles["svm"]
    path = tmp_path / "m.wmdl"
    with pytest.raises(ValueError, match="does not match"):
        save_model(ModelBundle(kind="mlp", model=svm.model, feature_config=svm.feature_config, scaler=svm.scaler), path)
    assert not path.exists()


def test_hyperparameters_that_do_not_fit_the_kind_are_corrupt(trained_bundles, tmp_path):
    path = tmp_path / "m.wmdl"
    save_model(trained_bundles["svm"], path)
    content = bytearray(path.read_bytes()[:-4])
    content[6] = 1  # the mlp kind byte over an svm header
    path.write_bytes(bytes(content) + struct.pack("<I", zlib.crc32(content)))
    with pytest.raises(CorruptFile, match="do not fit a mlp model"):
        load_model(path)


@pytest.mark.parametrize("kind", ["svm", "mlp", "rnn"])
def test_bundle_score_scales_then_calls_proba(kind, trained_bundles):
    bundle = trained_bundles[kind]
    if kind == "rnn":
        seqs, _ = ab_language(8, n=10)
        assert np.array_equal(bundle.score(seqs), bundle.model.proba(seqs))
    else:
        X = np.random.default_rng(0).normal(size=(50, 28))
        assert np.array_equal(bundle.score(X), bundle.model.proba(bundle.scaler.transform(X)))
