"""Byte identity of the bulk outputs on a small seeded corpus.

The hashes were computed with the record-per-line reader and the per-event
n-gram loop. The feature CSV of `warden extract` and the RNN token sequences
must not change when the way a trace is read or windowed changes.
"""

from __future__ import annotations

import hashlib

import pytest

from warden.cli import main
from warden.datagen import ScenarioSpec, gen_dataset
from warden.features import FeatureConfig
from warden.ml.data import build_sequence_dataset

EXTRACT_SHA256 = {
    "default": "917e8aed35f5dec531f5cc2e4311cfbe21fc9313f76536508af3534deb7cfb72",
    "trigrams": "bb3c5a98623d79f0d4c6d5508e2acf845a89e446ac63bec40afa5fb0ddeecf5f",
}
TOKENS_SHA256 = {
    128: "319bba212605b8584649e0c04eb6b09eda418af869b1c06e6f12f10cca39abf3",
    512: "f8c85e1adbcc9beca334f5ce654793f560daaa04fde9468fe21356d64c4954a8",
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
