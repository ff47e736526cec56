"""Generator contracts: published profiles, determinism, validity, separability."""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from warden.datagen import (
    InvalidSpec,
    ScenarioSpec,
    builtin_profiles,
    gen_dataset,
    gen_trace,
    profiles_by_name,
)
from warden.hashing import derive_seed
from warden.records import ResourceSample, SyscallEvent
from trace_validation import validate_trace


def test_builtin_profiles_contract():
    profiles = builtin_profiles()
    assert len(profiles) == 6
    assert sum(1 for p in profiles if p.label == "normal") == 2
    assert sum(1 for p in profiles if p.label == "malicious") == 4
    names = {p.name for p in profiles}
    assert names == {"batch-compute", "data-transfer", "ddos-flood", "cryptominer", "priv-escalation", "scanner"}


def test_transition_matrices_row_stochastic():
    for profile in builtin_profiles():
        for row in profile.transition:
            assert abs(sum(row) - 1.0) <= 1e-9
            assert all(p >= 0 for p in row)


def test_cryptominer_envelope_constants():
    miner = profiles_by_name()["cryptominer"]
    assert miner.cpu_envelope == (99.0, 1.0)


def test_cryptominer_sampled_cpu_mean_seed7():
    trace = gen_trace(profiles_by_name()["cryptominer"], 120.0, "job-m", seed=7)
    cpus = [r.cpu_pct for r in trace.records if isinstance(r, ResourceSample)]
    assert len(cpus) == 120
    mean = sum(cpus) / len(cpus)
    band = 3.0 * 1.0 / math.sqrt(120)
    assert 99.0 - band <= mean <= 99.0 + band


def test_ddos_burst_rate_exceeds_every_normal_peak():
    def max_tx_rate(profile, seed):
        trace = gen_trace(profile, 120.0, "job-x", seed)
        samples = [r for r in trace.records if isinstance(r, ResourceSample)]
        return max(
            (b.net_tx_bytes - a.net_tx_bytes) / ((b.t_ns - a.t_ns) / 1e9)
            for a, b in zip(samples, samples[1:])
            if b.t_ns > a.t_ns
        )

    by_name = profiles_by_name()
    ddos_max = max_tx_rate(by_name["ddos-flood"], seed=3)
    assert ddos_max >= 5e7
    for name in ("batch-compute", "data-transfer"):
        assert ddos_max > max_tx_rate(by_name[name], seed=3)


def test_gen_trace_byte_deterministic():
    from warden.records import serialize_line

    miner = profiles_by_name()["cryptominer"]
    a = gen_trace(miner, 20.0, "job-a", seed=11)
    b = gen_trace(miner, 20.0, "job-a", seed=11)
    assert [serialize_line(r) for r in a.records] == [serialize_line(r) for r in b.records]
    c = gen_trace(miner, 20.0, "job-a", seed=12)
    assert [serialize_line(r) for r in a.records] != [serialize_line(r) for r in c.records]


@pytest.mark.parametrize("name", sorted(profiles_by_name()))
def test_generated_traces_pass_validation(name):
    trace = gen_trace(profiles_by_name()[name], 25.0, "job-v", seed=21)
    assert validate_trace(trace) == []
    assert trace.label == profiles_by_name()[name].label
    assert any(isinstance(r, SyscallEvent) for r in trace.records)


def test_gen_dataset_empty_spec(tmp_path):
    manifest = gen_dataset(ScenarioSpec(n_normal=0, n_malicious=0, seed=1), tmp_path)
    assert manifest["entries"] == []
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".trc")]


def test_gen_dataset_counts_and_naming(tmp_path):
    manifest = gen_dataset(ScenarioSpec(n_normal=3, n_malicious=4, duration_s=5.0, seed=42), tmp_path)
    entries = manifest["entries"]
    assert len(entries) == 7
    assert sum(1 for e in entries if e["label"] == "normal") == 3
    by_label = {"normal": 0, "malicious": 0}
    for i, entry in enumerate(entries):
        assert entry["file"] == f"{entry['label']}-{entry['profile']}-{i:04d}.trc"
        assert entry["job_id"] == f"job-{i:04d}"
        assert entry["seed"] == derive_seed(42, i)
        assert os.path.exists(tmp_path / entry["file"])
        by_label[entry["label"]] += 1
    assert by_label == {"normal": 3, "malicious": 4}


def test_gen_dataset_regeneration_identical(tmp_path):
    spec = ScenarioSpec(n_normal=2, n_malicious=2, duration_s=5.0, seed=9)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    gen_dataset(spec, d1)
    gen_dataset(spec, d2)
    for name in sorted(os.listdir(d1)):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_gen_dataset_profile_mix_restriction(tmp_path):
    spec = ScenarioSpec(n_normal=2, n_malicious=3, duration_s=4.0, seed=2,
                        profile_mix={"batch-compute": 1.0, "cryptominer": 1.0})
    manifest = gen_dataset(spec, tmp_path)
    assert {e["profile"] for e in manifest["entries"]} == {"batch-compute", "cryptominer"}


def test_gen_dataset_invalid_specs(tmp_path):
    with pytest.raises(InvalidSpec):
        ScenarioSpec(n_normal=-1, n_malicious=0)
    with pytest.raises(InvalidSpec):
        ScenarioSpec(n_normal=1, n_malicious=1, duration_s=0.0)
    with pytest.raises(InvalidSpec):
        gen_dataset(ScenarioSpec(n_normal=1, n_malicious=1, profile_mix={"nope": 1.0}), tmp_path)
    with pytest.raises(InvalidSpec):
        gen_dataset(ScenarioSpec(n_normal=1, n_malicious=1, profile_mix={"cryptominer": 1.0}), tmp_path)


def test_manifest_schema(small_corpus):
    with open(small_corpus["manifest_path"], "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert set(manifest) == {"seed", "duration_s", "entries"}
    for entry in manifest["entries"]:
        assert set(entry) == {"file", "job_id", "label", "profile", "seed"}


def test_class_separability_by_construction(corpus42_features):
    """At least 3 feature dimensions separate the classes by >= 4 pooled stds."""
    ds = corpus42_features["dataset"]
    X, y = ds.X, ds.y
    m0, m1 = X[y == 0].mean(axis=0), X[y == 1].mean(axis=0)
    s0, s1 = X[y == 0].std(axis=0), X[y == 1].std(axis=0)
    pooled = np.sqrt((s0**2 + s1**2) / 2.0)
    diff = np.abs(m1 - m0)
    separated = (diff >= 4.0 * pooled) & (diff > 0)
    assert int(separated.sum()) >= 3
