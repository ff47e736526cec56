"""The generator core against the per-event reference loop: same rows, same records, same file bytes."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warden import datagen
from warden.datagen import MIB, BehaviorProfile, _trace_rows, builtin_profiles, gen_trace
from warden.hashing import MASK64
from warden.records import write_coded_rows
from reference_datagen import reference_records, reference_trace_rows, write_trace_rows

NAMES = ("read", "recvfrom", "write", "sendto", "open", "connect", "futex", "x9")


def core_rows(profile, duration_s, job_id, seed):
    """The core's output as the reference's (pid, rows)."""
    pid, t_ns, codes, keys, others = _trace_rows(profile, duration_s, job_id, seed)
    return pid, [(t, *keys[c]) if c >= 0 else (t, others[-1 - c]) for t, c in zip(t_ns, codes)]


def assert_same_as_reference(tmp_path, profile, duration_s, seed):
    job_id = "job-0007"
    pid, rows = reference_trace_rows(profile, duration_s, job_id, seed)
    assert core_rows(profile, duration_s, job_id, seed) == (pid, rows)
    assert list(gen_trace(profile, duration_s, job_id, seed).records) == reference_records(job_id, pid, rows)
    write_trace_rows(tmp_path / "reference.trc", job_id, pid, rows)
    write_coded_rows(tmp_path / "core.trc", job_id, *_trace_rows(profile, duration_s, job_id, seed))
    assert (tmp_path / "core.trc").read_bytes() == (tmp_path / "reference.trc").read_bytes()


@st.composite
def profiles(draw):
    vocab = tuple(draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=5, unique=True)))
    transition = []
    for _ in vocab:
        weights = draw(st.lists(st.sampled_from([0, 0, 1, 2, 7]), min_size=len(vocab), max_size=len(vocab)))
        if not any(weights):
            weights[draw(st.integers(0, len(vocab) - 1))] = 1
        transition.append(tuple(w / sum(weights) for w in weights))
    segments = st.lists(st.tuples(st.sampled_from([0.25, 1.0, 3.0]), st.sampled_from([0.0, 10.0, 1e6])), min_size=1, max_size=3)
    args = st.tuples() | st.lists(st.text(max_size=12), min_size=1, max_size=3).map(tuple)  # () synthesizes ip:port args
    fail = st.tuples(st.sampled_from([0, 0.0, 0.3, 1, 1.0]), st.integers(-(2**70), 2**70))
    return BehaviorProfile(
        name=draw(st.sampled_from(["p", "prof-ile"])),
        label=draw(st.sampled_from(["normal", "malicious"])),
        syscall_vocab=vocab,
        transition=tuple(transition),
        rate_events_per_s=draw(st.sampled_from([0.5, 3.0, 40.0, 400.0])),
        cpu_envelope=(draw(st.sampled_from([0.0, 50.0, 99.0])), draw(st.sampled_from([0.0, 1.0, 30.0]))),
        rss_envelope=(draw(st.sampled_from([0, MIB, 256 * MIB])), draw(st.sampled_from([0, 4096]))),
        net_tx_rate=tuple(draw(segments)),
        net_rx_rate=tuple(draw(segments)),
        log_lines_per_s=draw(st.sampled_from([0.0, 0.0, 0.5, 4.0])),
        n_threads=draw(st.sampled_from([1, 2, 3, 8, 2**32])),
        args_choices=draw(st.dictionaries(st.sampled_from(vocab), args)),
        fail_retval=draw(st.dictionaries(st.sampled_from(vocab), fail)),
    )


@settings(max_examples=150, deadline=None)
@given(
    profile=profiles(),
    duration_s=st.sampled_from([1e-6, 0.01, 0.3, 0.5, 1.0, 2.75, 7.5]),
    seed=st.sampled_from([0, 1, MASK64]) | st.integers(0, MASK64),
    first_length=st.sampled_from([None, 0, 1, 5]),
)
def test_core_equals_reference_loop(tmp_path_factory, profile, duration_s, seed, first_length):
    tmp_path = tmp_path_factory.mktemp("core")
    if first_length is None:
        assert_same_as_reference(tmp_path, profile, duration_s, seed)
    else:  # the walk must start over, longer, until an interval ends the trace
        with mock.patch.object(datagen, "_expected_events", lambda rate, duration_s: first_length):
            assert_same_as_reference(tmp_path, profile, duration_s, seed)


@pytest.mark.parametrize("profile", builtin_profiles(), ids=lambda p: p.name)
def test_builtin_profiles_equal_reference_loop(tmp_path, profile):
    assert_same_as_reference(tmp_path, profile, 20.0, 2024)


def test_walk_past_its_first_length_equals_reference_loop(tmp_path):
    profile = {p.name: p for p in builtin_profiles()}["scanner"]
    first = []

    def short(rate, duration_s):
        first.append(rate * duration_s)
        return 3

    with mock.patch.object(datagen, "_expected_events", short):
        assert_same_as_reference(tmp_path, profile, 4.0, 99)
    events = sum(len(row) == 5 for row in core_rows(profile, 4.0, "job-0007", 99)[1]) // 2
    assert first and events > 3  # the walk went past its first length


def test_rows_at_the_same_time_keep_generation_order(tmp_path):
    # at 1M events/s the exits of the last events are all cut to the trace's last nanosecond
    profile = BehaviorProfile(
        name="burst",
        label="malicious",
        syscall_vocab=("read", "write", "open"),
        transition=((0.2, 0.4, 0.4),) * 3,
        rate_events_per_s=1_000_000.0,
        cpu_envelope=(50.0, 5.0),
        rss_envelope=(MIB, 0),
        net_tx_rate=((1.0, 0.0),),
        net_rx_rate=((1.0, 0.0),),
        log_lines_per_s=0.0,
        n_threads=8,
        args_choices={"open": ("/a", "/b", "/c")},
        fail_retval={"write": (0.5, -5)},
    )
    rows = core_rows(profile, 0.002, "job-0007", 3)[1]
    last = [row for row in rows if row[0] == 2_000_000 - 1]
    assert len(set(last)) > 5  # distinct rows that only generation order can order
    assert_same_as_reference(tmp_path, profile, 0.002, 3)
