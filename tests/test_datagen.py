"""Generator contracts: published profiles, determinism, validity, separability."""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np
import pytest

from warden import datagen
from warden.datagen import (
    MIB,
    BehaviorProfile,
    InvalidProfile,
    InvalidSpec,
    ScenarioSpec,
    builtin_profiles,
    gen_dataset,
    gen_trace,
    profiles_by_name,
)
from warden.hashing import derive_seed
from warden.records import MAX_ARGS, LogRecord, ResourceSample, SyscallEvent, read_trace_file, serialize_line
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


# --- profile checks: every field a syscall row takes from a profile ------------

def _profile(**overrides):
    fields = dict(
        name="custom",
        label="malicious",
        syscall_vocab=("open", "read"),
        transition=((0.5, 0.5), (0.5, 0.5)),
        rate_events_per_s=40.0,
        cpu_envelope=(50.0, 5.0),
        rss_envelope=(MIB, 0),
        net_tx_rate=((1.0, 0.0),),
        net_rx_rate=((1.0, 0.0),),
        log_lines_per_s=0.5,
    )
    fields.update(overrides)
    return BehaviorProfile(**fields)


@pytest.mark.parametrize("name", ["", "Open", "op-en", "open\n", "x" * 33, 7])
def test_profile_rejects_bad_syscall_name(name):
    with pytest.raises(InvalidProfile, match="syscall name"):
        _profile(syscall_vocab=("read", name))


@pytest.mark.parametrize("choices", [["/etc/shadow"], ("/etc/shadow", 3), ("x" * (MAX_ARGS + 1),), "/etc/shadow"])
def test_profile_rejects_bad_args_choices(choices):
    with pytest.raises(InvalidProfile, match="args_choices"):
        _profile(args_choices={"open": choices})


@pytest.mark.parametrize("entry", [(1.5, -1), (-0.1, -1), (0.5, "x"), (0.5, 1.0), (0.5, True), (True, -1), (0.5,), [0.5, -1]])
def test_profile_rejects_bad_fail_retval(entry):
    with pytest.raises(InvalidProfile, match="fail_retval"):
        _profile(fail_retval={"open": entry})


@pytest.mark.parametrize("n_threads", [0, -1, datagen.MAX_THREADS + 1])
def test_profile_rejects_thread_counts_outside_the_tid_range(n_threads):
    with pytest.raises(InvalidProfile, match="n_threads"):
        _profile(n_threads=n_threads)


@pytest.mark.parametrize("overrides", [
    {"rate_events_per_s": math.inf},
    {"transition": ((math.nan, 1.0), (0.5, 0.5))},
    {"cpu_envelope": (math.nan, 1.0)},
    {"net_tx_rate": ((math.nan, 1.0),)},
    {"net_rx_rate": ((1.0, math.inf),)},
    {"log_lines_per_s": math.inf},
    {"rss_envelope": (math.inf, 0)},
], ids=["rate", "transition", "cpu", "net-tx", "net-rx", "log-rate", "rss"])
def test_profile_rejects_non_finite_numbers(overrides):
    # construction only: the reference loop in tests/reference_datagen.py never ends on an inf rate
    with pytest.raises(InvalidProfile, match="finite"):
        _profile(**overrides)


def test_profile_accepts_longest_name_and_args():
    _profile(syscall_vocab=("read", "x" * 32), args_choices={"read": ("a" * MAX_ARGS, "")}, fail_retval={"read": (1, -2)})


# --- the two views of the generator core ----------------------------------------

def _written_lines(directory, entry) -> list[str]:
    with open(os.path.join(directory, entry["file"]), "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    assert text.endswith("\n")
    return text[:-1].split("\n")


def _generated_lines(profile, duration_s, entry) -> list[str]:
    return [serialize_line(r) for r in gen_trace(profile, duration_s, entry["job_id"], entry["seed"]).records]


@pytest.mark.parametrize("name", sorted(profiles_by_name()))
def test_written_trace_equals_serialized_gen_trace(tmp_path, name):
    profile = profiles_by_name()[name]
    normal = profile.label == "normal"
    spec = ScenarioSpec(n_normal=int(normal), n_malicious=int(not normal), duration_s=12.5, seed=31, profile_mix={name: 1.0})
    (entry,) = gen_dataset(spec, tmp_path)["entries"]
    assert _written_lines(tmp_path, entry) == _generated_lines(profile, 12.5, entry)


def test_gen_dataset_checks_each_sample_and_log_record_once(tmp_path, monkeypatch):
    calls = {ResourceSample: 0, LogRecord: 0}
    for cls in calls:
        def counted(self, cls=cls, check=cls.__post_init__):
            calls[cls] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    entries = gen_dataset(ScenarioSpec(n_normal=2, n_malicious=2, duration_s=10.0, seed=3), tmp_path)["entries"]
    lines = [line for entry in entries for line in _written_lines(tmp_path, entry)]
    assert calls[ResourceSample] == sum(line.startswith('{"kind":"res"') for line in lines) > 0
    assert calls[LogRecord] == sum(line.startswith('{"kind":"log"') for line in lines) > 0


def test_written_args_are_json_encoded_like_serialize_line(tmp_path, monkeypatch):
    odd = ('say "hi"', "C:\\temp\\x", "tab\there", "résumé ☃ 日本", "")
    profile = _profile(
        syscall_vocab=("open", "read", "connect"),
        transition=((0.4, 0.3, 0.3),) * 3,
        args_choices={"open": odd, "connect": ()},
        fail_retval={"open": (0.5, -13)},
    )
    monkeypatch.setattr(datagen, "profiles_by_name", lambda: {profile.name: profile})
    spec = ScenarioSpec(n_normal=0, n_malicious=2, duration_s=10.0, seed=5, profile_mix={profile.name: 1.0})
    entries = gen_dataset(spec, tmp_path)["entries"]
    written = set()
    for entry in entries:
        lines = _written_lines(tmp_path, entry)
        assert lines == _generated_lines(profile, 10.0, entry)
        written.update(r.args_digest for r in read_trace_file(tmp_path / entry["file"]) if isinstance(r, SyscallEvent))
    assert set(odd) <= written  # every awkward choice was written and read back


# sha256 of the corpus files, computed before gen_dataset wrote lines from the generator core
CORPUS_SHA256 = {
    "default-mix": (
        ScenarioSpec(n_normal=2, n_malicious=4, duration_s=30.0, seed=42),
        {
            "malicious-ddos-flood-0004.trc": "2caa172640734387111eec9bccdba80a7fb44442c16831f5e69cc617576b2f39",
            "malicious-ddos-flood-0005.trc": "1332fd99b43a3df6823c4182285812516d0ff82f4917a5392cff113e5faf0eb6",
            "malicious-priv-escalation-0002.trc": "b562157d7add6248ac762ea45c28c9c9032227e5a1e655ef00a298b00e1e9ae3",
            "malicious-priv-escalation-0003.trc": "ec3067d9d8e493bcae83b0e6cab922779d7eb1e5c55ca835114696d7745a4173",
            "manifest.json": "ec3cda6f06c041922fa7cd54710c0dccd7972f197dc51270fc783c79dfd095c1",
            "normal-data-transfer-0000.trc": "f7e43c826ca3d5a308d3f8fb306d531ef81681ece917326e3095cedc75b20940",
            "normal-data-transfer-0001.trc": "e91f4b068882bce75940cc65ab8f46b3bc0ffef029d36a0f7c7bc5dd3595d679",
        },
    ),
    # args choices, synthesized 10.0.x.y:port args and failing return values
    "priv-escalation-and-scanner": (
        ScenarioSpec(n_normal=0, n_malicious=4, duration_s=30.0, seed=6,
                     profile_mix={"priv-escalation": 1.0, "scanner": 1.0}),
        {
            "malicious-priv-escalation-0000.trc": "18e8c76b695c0f4fe2eeb24089235b677549be4a0b2d08387f4de084404dbeaa",
            "malicious-priv-escalation-0002.trc": "f89500d0044158c467730a69056f6b996f79fcbee89bc353d985a9effcca2315",
            "malicious-scanner-0001.trc": "68b05c4b86bb3c0812c363124314a45b1ca261a301962cd64c95be10bedb3013",
            "malicious-scanner-0003.trc": "8559fdb31dae19344cca516dcddb6122560f47a142222870af2e1d4e84eae8f6",
            "manifest.json": "c1b044aad6b746e3a5534202db4731d84c19f07f522012f0ebed3799b11855f1",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(CORPUS_SHA256))
def test_corpus_bytes_are_pinned(tmp_path, name):
    spec, expected = CORPUS_SHA256[name]
    gen_dataset(spec, tmp_path)
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in sorted(os.listdir(tmp_path))}
    assert got == expected


# sha256 of corpus files computed with the per-event generator loop that
# tests/reference_datagen.py keeps, before the core drew its events from one array
LOOP_CORPUS_SHA256 = {
    # 2 and 4 threads
    "batch-compute-and-cryptominer": (
        ScenarioSpec(n_normal=2, n_malicious=2, duration_s=20.0, seed=13,
                     profile_mix={"batch-compute": 1.0, "cryptominer": 1.0}),
        {
            "malicious-cryptominer-0002.trc": "b9e3715074d8a3cde6975d55295b82093b8684f13ff6e60079a7d028417692c2",
            "malicious-cryptominer-0003.trc": "d72006a152e000bfc299c1d3d92fa6aacd7442a37b135b37761e01b078feb61f",
            "manifest.json": "f2dfc0d509e060f450cd41eccfc90fc4142881d2460b7f9af5417f2f7c8a8755",
            "normal-batch-compute-0000.trc": "f524db1bdfc2c87e6b0e8fed3620734cd476b2b6ad24f8a65152694d4f542352",
            "normal-batch-compute-0001.trc": "882f0e40db062a3f00f1e8a50d08c35c1decde574d163cf57d4a8d9fd7a127e4",
        },
    ),
    # shorter than one sample period: no resource samples
    "half-second": (
        ScenarioSpec(n_normal=2, n_malicious=4, duration_s=0.5, seed=3),
        {
            "malicious-ddos-flood-0005.trc": "4835ee5f26cb4bb40841748af34cee6619cc3579792c70a6bbc4d2b494cc5f92",
            "malicious-scanner-0002.trc": "7c78dac8c3e55fe8651cf6c6c1a9f7ab89d807d1392c2ebc46ba5a006e47e3e9",
            "malicious-scanner-0003.trc": "7abcda9845e434dc5b91c31b8127b18f63370dec9cb1a4a99691500b91cffdb8",
            "malicious-scanner-0004.trc": "2034671911d4fba3eb34cf29e085577708db63a08d515adb6e092efe5c5f0314",
            "manifest.json": "eed68b04c157d43c92d358b189eb76cd4ba571d82546fe901dff8fbc42c7537d",
            "normal-data-transfer-0000.trc": "f226cc8de9132e5cba9e1e83df27a8adad53734adc49a166b1aea5eb04a39885",
            "normal-data-transfer-0001.trc": "acaaa9ff0cee3c803254ae81bef544d22d72b74504888351a1e2ff5bd7b196c1",
        },
    ),
    # a duration that is not a whole number of sample periods
    "seven-and-a-half-seconds": (
        ScenarioSpec(n_normal=2, n_malicious=4, duration_s=7.5, seed=8),
        {
            "malicious-cryptominer-0002.trc": "9e59a3b313355ddeade539edb8537ec750d704fbffe76799c37ebc84c7f4ae7c",
            "malicious-ddos-flood-0003.trc": "d22ee13fb97a84a10266e1856946760105d7488a1e940a354fa20034529ab6db",
            "malicious-priv-escalation-0004.trc": "22925aa23c0d169e555c9190fc16e2bfbe5fe689f7085edd7c7a285b74458d5a",
            "malicious-scanner-0005.trc": "4e9d6157d10fe9f76122509f38e7d7e0784d803dba4638f3b3827d353134d03d",
            "manifest.json": "23505b12a482fffc0623500a452f2a778c6d32dfec5a88eb12aa03ada335caab",
            "normal-data-transfer-0000.trc": "f67fb43c30e9fb85ba510e7f390a3f0006577c50ab3a757bacdebfb047b519c8",
            "normal-data-transfer-0001.trc": "1d7dd45b819a0ad159c068a9c4cfb440984884ea3d05673e220ddad0e5e78bfe",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(LOOP_CORPUS_SHA256))
def test_more_corpus_bytes_are_pinned(tmp_path, name):
    spec, expected = LOOP_CORPUS_SHA256[name]
    gen_dataset(spec, tmp_path)
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in sorted(os.listdir(tmp_path))}
    assert got == expected


# no log lines, 8 threads, zero-weight transitions, fail probabilities 0, 0.5 and 1
QUIET_THREADS = _profile(
    name="quiet-threads",
    syscall_vocab=("open", "read", "futex", "connect"),
    transition=((0.0, 0.5, 0.5, 0.0), (0.25, 0.25, 0.25, 0.25), (0.0, 0.0, 0.0, 1.0), (0.6, 0.0, 0.4, 0.0)),
    rate_events_per_s=90.0,
    cpu_envelope=(40.0, 3.0),
    rss_envelope=(32 * MIB, 4096),
    net_tx_rate=((2.0, 500.0), (1.0, 0.0)),
    net_rx_rate=((1.0, 100.0),),
    log_lines_per_s=0.0,
    n_threads=8,
    args_choices={"open": ("/etc/hosts", "/tmp/x"), "connect": ()},
    fail_retval={"futex": (1.0, -11), "read": (0.0, -5), "connect": (0.5, -111)},
)
QUIET_THREADS_SHA256 = {
    "malicious-quiet-threads-0000.trc": "162f333a1886c5fc1e9d287b8eef939fe5fb4b54cd90da2b2849072ecd384fe5",
    "malicious-quiet-threads-0001.trc": "37c2f387503175e2c5f1e7d28b33ca3d50328ee192d7416ab61a479672617dfa",
    "manifest.json": "e3a3f0c7d451663d7f8d176e7b928ceb74cc9542e78e29e1ab1c4bc36cc7c04b",
}


def test_custom_profile_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.setattr(datagen, "profiles_by_name", lambda: {QUIET_THREADS.name: QUIET_THREADS})
    spec = ScenarioSpec(n_normal=0, n_malicious=2, duration_s=9.0, seed=17, profile_mix={QUIET_THREADS.name: 1.0})
    gen_dataset(spec, tmp_path)
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in sorted(os.listdir(tmp_path))}
    assert got == QUIET_THREADS_SHA256
