"""Feature extraction: windows, hashed n-grams, resource statistics, scaling."""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warden.datagen import builtin_profiles, gen_trace, profiles_by_name
from warden.features import (
    _INT64_MAX,
    EmptyDataset,
    EmptyTrace,
    FeatureConfig,
    FeatureVector,
    Scaler,
    Window,
    Windower,
    extract,
    feature_matrix,
    hash_bucket,
    make_windows,
    resource_features,
    window_vector,
    _before,
    _before_both,
)
from warden.hashing import MASK64
import reference_windower
from reference_windower import fed_in_chunks, reference_windows
from warden.records import (
    ENTER,
    EXIT,
    LOG_ROW,
    RES_ROW,
    LabeledTrace,
    LogRecord,
    ResourceSample,
    SyscallEvent,
    TraceColumns,
    read_trace_columns,
    write_trace_file,
)


def fnv_oracle(text: str) -> int:
    from functools import reduce

    return reduce(lambda h, b: ((h ^ b) * 0x100000001B3) & MASK64, text.encode(), 0xCBF29CE484222325)


def ev(t_s, name="read", pid=1, tid=1, direction=ENTER, job="j1"):
    retval = 0 if direction == EXIT else None
    return SyscallEvent(
        t_ns=int(t_s * 1e9), job_id=job, pid=pid, tid=tid, name=name, direction=direction,
        args_digest="", retval=retval,
    )


def rs(t_s, cpu=0.0, rss=0, rx=0, tx=0, io_r=0, io_w=0, job="j1"):
    return ResourceSample(
        t_ns=int(t_s * 1e9), job_id=job, cpu_pct=cpu, rss_bytes=rss,
        net_rx_bytes=rx, net_tx_bytes=tx, io_read_bytes=io_r, io_write_bytes=io_w,
    )


def trace_of(records, job="j1"):
    return LabeledTrace(job_id=job, label="normal", profile_name="", records=tuple(sorted(records, key=lambda r: r.t_ns)))


CFG = FeatureConfig()


# --- make_windows -----------------------------------------------------------------

UNIGRAMS = FeatureConfig(ngram_orders=(1,))
NAMED = ("read", "write", "openat", "close", "mmap")  # five names in five distinct unigram buckets


def names_in(window, config=UNIGRAMS):
    """The NAMED syscalls a window holds, read off its unigram buckets."""
    assert len({hash_bucket(name, config.hash_dim) for name in NAMED}) == len(NAMED)
    return [name for name in NAMED if window.ngrams[hash_bucket(name, config.hash_dim)] > 0]


def test_single_window_holds_all_events():
    # trace spanning exactly one window with window == hop: one window, all events
    events = [ev(t, name) for t, name in zip((0.0, 2.0, 4.0, 6.0, 9.0), NAMED)]
    config = FeatureConfig(window_s=10.0, hop_s=10.0, ngram_orders=(1,))
    windows = make_windows(trace_of(events), config)
    assert [w.index for w in windows] == [0]
    assert names_in(windows[0], config) == list(NAMED)


def test_overlapping_hop_windows():
    events = [ev(t, name) for t, name in zip((0.0, 2.0, 4.0, 6.0, 9.0), NAMED)]
    windows = make_windows(trace_of(events), UNIGRAMS)  # hop 5 s: second window starts at 5 <= 9
    assert [w.index for w in windows] == [0, 1]
    assert names_in(windows[0]) == list(NAMED)
    assert names_in(windows[1]) == ["close", "mmap"]  # events at 6 and 9


def test_window_membership_hand_oracle():
    # window 10 s, hop 5 s, events at 0 s and 12 s
    events = [ev(0.0, "read"), ev(12.0, "write")]
    windows = make_windows(trace_of(events), UNIGRAMS)
    assert [(w.index, names_in(w)) for w in windows] == [(0, ["read"]), (1, ["write"]), (2, ["write"])]
    assert windows[0].t_start_ns == 0 and windows[0].t_end_ns == int(10e9)


def test_windows_without_syscalls_are_not_emitted():
    samples = [rs(float(t)) for t in range(20)]
    assert make_windows(trace_of(samples), CFG) == []


def test_empty_trace_raises():
    with pytest.raises(EmptyTrace):
        make_windows(trace_of([]), CFG)


def test_window_samples_include_last_before_start():
    records = [ev(0.0), ev(7.0), rs(1.0, cpu=10), rs(6.0, cpu=20), rs(8.0, cpu=30)]
    windows = make_windows(trace_of(records), CFG)
    w1 = [w for w in windows if w.index == 1][0]  # [5 s, 15 s)
    assert [s.cpu_pct for s in w1.samples] == [10.0, 20.0, 30.0]  # 1 s sample is the carry-in


def test_window_index_grid_alignment():
    events = [ev(3.0), ev(23.0)]
    for w in make_windows(trace_of(events), CFG):
        assert w.t_start_ns - int(3e9) == w.index * CFG.hop_ns


# --- the column path against the per-record reference windower ----------------------

def sys_at(t_ns, name="read", pid=1, tid=1, direction=ENTER):
    return SyscallEvent(
        t_ns=t_ns, job_id="j1", pid=pid, tid=tid, name=name, direction=direction,
        retval=0 if direction == EXIT else None,
    )


def res_at(t_ns, rx=0):
    return ResourceSample(
        t_ns=t_ns, job_id="j1", cpu_pct=1.5, rss_bytes=2**20,
        net_rx_bytes=rx, net_tx_bytes=0, io_read_bytes=0, io_write_bytes=0,
    )


def log_at(t_ns):
    return LogRecord(t_ns=t_ns, job_id="j1", source="s", severity="info", message="m")


S = 10**9
BIG = 2**64  # past int64, still a canonical 20-digit line

COLUMN_CASES = {
    # a wall clock stepping back: late samples and events land at their timestamp
    "late records": [
        sys_at(0), res_at(1 * S, 10), res_at(3 * S, 30), res_at(2 * S, 20), sys_at(4 * S, "open"),
        sys_at(11 * S), sys_at(6 * S, "close"), log_at(30 * S), sys_at(1 * S, "stat"), sys_at(31 * S),
    ],
    # records exactly on window starts and ends, several sharing one timestamp
    "equal timestamps on window edges": [
        sys_at(0), res_at(0), sys_at(5 * S, "open"), sys_at(5 * S, "write"), res_at(5 * S, 5),
        sys_at(10 * S), sys_at(10 * S, "close"), res_at(10 * S, 9), log_at(15 * S), sys_at(15 * S, "stat"),
    ],
    "interleaved threads": [
        sys_at(i * S // 4, name, pid=1 + i % 2, tid=1 + i % 3, direction=EXIT if i % 5 == 4 else ENTER)
        for i, name in enumerate(["read", "open", "write", "close", "stat", "mmap", "read"] * 12)
    ],
    "t_ns past int64": [sys_at(BIG + i * S, "read" if i % 2 else "write") for i in range(25)] + [res_at(BIG + 26 * S)],
    "pid past int64": [sys_at(i * S, pid=2**70 + i % 2) for i in range(25)],
    "t_ns near the int64 limit": [sys_at(2**63 - 1 - (12 - i) * S, "open" if i % 3 else "read") for i in range(13)],
    "log record first": [log_at(-3 * S), sys_at(0), sys_at(9 * S, "open")],
}


# sha256 of each window's index, bounds and vector, as per-record push with the
# per-event n-gram loop produced them; the reference windower must reproduce them
PUSHED_SHA256 = {
    ("equal timestamps on window edges", "default"): "593fd7da6ed4b0bca7bbb58ac6130d44bb7a7f5e1adbf9a7513974c9a38ad14a",
    ("interleaved threads", "default"): "545f8f2d063b15f4e08e7b39fd5774b3f5989d42fbf5537b52cb64a4f4a06890",
    ("late records", "default"): "5b1e2d765780a04218f4f4584fcca3a2597b8951e2955f84d6e66c00c6267859",
    ("log record first", "default"): "aa8984ab13030bd8eb016a569e3f3884f75d10b0f47666acaf3892eb393f375b",
    ("pid past int64", "default"): "804e332474a1f7df357a39ae9f374a800470ce4487ed8d2a288560911d72ddff",
    ("t_ns near the int64 limit", "default"): "b18bc938845e2925b20f206c7519069476220a9db87c3467f8878a8181c42272",
    ("t_ns past int64", "default"): "f6b65343ec59b1ba58fc60f59390893e5e04458317813ca682a76aeec362e5d4",
    ("equal timestamps on window edges", "trigrams"): "45b385336b0cfe0439a0ddd88db832d6f434ebb2e717ffd8c754ba1e6ba0b27b",
    ("interleaved threads", "trigrams"): "583b805343b87b89f7f3a8d0fb7d9ccf69a916481562f76b2c38b050c88824aa",
    ("late records", "trigrams"): "dc6a319dda81f722ca2bd489e9bdcfed46e0a2c4abfefe47d71970c8956a4d3a",
    ("log record first", "trigrams"): "2a138a90d312323822fc72e81becf03c110985c36d2f393a94f95c7859876425",
    ("pid past int64", "trigrams"): "ec8f7874bf22cfb9d2e6257fcb406cc63798bcabfdc3d1c612ce1107c7eee58f",
    ("t_ns near the int64 limit", "trigrams"): "e4b62622bf5217ab9f75a9bba2a5be40c56838262272bcc5fc5cca515eebaf46",
    ("t_ns past int64", "trigrams"): "c3f10e8048d0c8eac08580082249a91b35d8b95c3bf41474354af029bc455a6e",
}


def digest(windows, config):
    h = hashlib.sha256()
    for w in windows:
        h.update(f"{w.index}:{w.t_start_ns}:{w.t_end_ns}:".encode())
        h.update(window_vector(w, config).values.tobytes())
    return h.hexdigest()


def comparable(windows, config):
    return [
        (w.index, w.t_start_ns, w.t_end_ns, w.samples, w.ngrams.tobytes(), window_vector(w, config).values.tobytes())
        for w in windows
    ]


@pytest.mark.parametrize("case", sorted(COLUMN_CASES))
@pytest.mark.parametrize(
    "config_id, config",
    [("default", CFG), ("trigrams", FeatureConfig(ngram_orders=(1, 2, 3), hash_dim=64, hop_s=3.0))],
    ids=["default", "trigrams"],
)
def test_column_windows_equal_per_record_push(tmp_path, case, config_id, config):
    records = COLUMN_CASES[case]
    path = tmp_path / "case.trc"
    write_trace_file(path, records)
    columns = make_windows(read_trace_columns(path, "j1"), config)
    pushed = reference_windows(records, config)
    assert pushed
    assert digest(pushed, config) == PUSHED_SHA256[case, config_id]
    assert comparable(columns, config) == comparable(pushed, config)
    for cuts in ([1], [3, 4, 7], range(1, len(records))):
        chunked = fed_in_chunks(records, config, cuts, separate_tables=True)
        assert comparable(chunked, config) == comparable(pushed, config)


@pytest.mark.parametrize("profile_name", ["batch-compute", "cryptominer", "ddos-flood"])
def test_column_windows_equal_per_record_push_on_generated_traces(tmp_path, profile_name):
    trace = gen_trace(profiles_by_name()[profile_name], 33.0, "j1", seed=9)
    path = tmp_path / "gen.trc"
    write_trace_file(path, trace.records)
    columns = make_windows(read_trace_columns(path, "j1"), CFG)
    assert len(columns) >= 5
    assert comparable(columns, CFG) == comparable(reference_windows(trace.records, CFG), CFG)


def test_windows_ending_past_int64_keep_their_last_rows():
    # int64 timestamps whose first window ends at 2**63, one past the largest int64
    records = [sys_at(2**63 - 10 * S), sys_at(2**63 - 2, "open"), sys_at(2**63 - 1, "close"), res_at(2**63 - 1)]
    expected = reference_windower.comparable(reference_windows(records, CFG))
    assert len(expected) == 2 and expected[0][1:3] == (2**63 - 10 * S, 2**63)
    for cuts in ([], [1], [2, 3]):
        assert reference_windower.comparable(fed_in_chunks(records, CFG, cuts)) == expected


# one telemetry row: step forward and lateness in half seconds, kind, name, thread
ROWS = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.sampled_from([0, 0, 0, 1, 3, 12]),
        st.sampled_from(["enter", "enter", "exit", "res", "log"]),
        st.sampled_from(["read", "write", "open"]),
        st.integers(1, 2),
    ),
    min_size=1,
    max_size=60,
)


def rows_to_records(rows):
    """A late row steps back from the clock, which itself only moves forward."""
    records, clock = [], 0
    for i, (step, late, kind, name, tid) in enumerate(rows):
        clock += step * S // 2
        t = clock - late * S // 2
        if kind == "res":
            records.append(res_at(t, rx=i))
        elif kind == "log":
            records.append(log_at(t))
        else:
            records.append(sys_at(t, name, tid=tid, direction=ENTER if kind == "enter" else EXIT))
    return records


@settings(max_examples=200, deadline=None)
@given(rows=ROWS, cuts=st.lists(st.integers(1, 59), max_size=8), trigrams=st.booleans())
def test_chunked_windower_equals_the_reference_windower(rows, cuts, trigrams):
    config = FeatureConfig(ngram_orders=(1, 2, 3), hash_dim=64, hop_s=3.0) if trigrams else CFG
    records = rows_to_records(rows)
    n = len(records)
    expected = reference_windower.comparable(reference_windows(records, config))
    newest = [max(r.t_ns for r in records[: i + 1]) for i in range(n)]
    late = [i for i in range(1, n) if records[i].t_ns < newest[i - 1]]
    feeds = {
        "one chunk": [],
        "512-row chunks": range(512, n, 512),
        "1-row chunks": range(1, n),
        "cut before each late row": late,
        "cut after each late row": [i + 1 for i in late],
        "drawn cuts": [c for c in cuts if c < n],
    }
    for feed, at in feeds.items():
        for separate_tables in (False, True):
            got = fed_in_chunks(records, config, at, separate_tables=separate_tables)
            assert reference_windower.comparable(got) == expected, (feed, separate_tables)


def many_names(names: int, events: int) -> list:
    """Enter events 1/8 s apart in two threads; every fourth brings a new name until ``names`` are seen."""
    rng = random.Random(names)
    records = []
    for i in range(events):
        seen = min(names, i // 4 + 1)
        name = f"s{i // 4}" if i % 4 == 0 and i // 4 < names else f"s{rng.randrange(seen)}"
        records.append(sys_at(i * S // 8, name, tid=1 + (i % 5 == 0)))
    return records


@pytest.mark.parametrize(
    "config, names",
    [(CFG, 600), (FeatureConfig(ngram_orders=(1, 2, 3), hash_dim=64, hop_s=3.0), 80)],
    ids=["bigrams past 512 names", "trigrams past 64 names"],
)
def test_gram_tables_growing_mid_trace_and_past_their_reach_equal_the_reference(config, names):
    records = many_names(names, events=4 * names + 400)
    expected = reference_windower.comparable(reference_windows(records, config))
    n = max(config.ngram_orders)
    windower = Windower(config, "j1")
    got, sides = [], []
    for a in range(0, len(records), 100):  # each chunk numbers its names afresh
        got += windower.push_columns(TraceColumns.from_records(records[a : a + 100], "j1"))
        sides.append(len(windower._tables[n]))
    got += windower.finish()
    assert reference_windower.comparable(got) == expected
    reach = 2 ** (18 // n)
    assert len(windower._names) > reach  # some grams lie beyond the table
    assert sides[0] < reach and sides[-1] == reach  # the table grew mid-trace, up to its reach
    assert all(table.size <= 2**18 for table in windower._tables.values())


def one_thread_then_two(second_from: int, events: int = 400) -> list:
    """Enter and exit events 1/8 s apart with samples and logs; a second thread joins at event ``second_from``."""
    rng = random.Random(second_from)
    records = []
    for i in range(events):
        tid = 2 if i >= second_from and rng.random() < 0.4 else 1
        records.append(sys_at(i * S // 8, rng.choice(["read", "write", "open", "mmap"]), tid=tid,
                              direction=EXIT if rng.random() < 0.2 else ENTER))
        if i % 9 == 0:
            records.append(res_at(i * S // 8, rx=i) if i % 2 else log_at(i * S // 8))
    return records


@pytest.mark.parametrize("config", [CFG, FeatureConfig(ngram_orders=(1, 2, 3), hash_dim=64, hop_s=3.0)], ids=["bigrams", "trigrams"])
@pytest.mark.parametrize("second_from", [400, 160], ids=["one thread", "second thread mid-trace"])
def test_one_thread_windows_and_a_second_thread_joining_mid_trace_equal_the_reference(config, second_from):
    records = one_thread_then_two(second_from)
    expected = reference_windower.comparable(reference_windows(records, config))
    windower, got, threads_seen = Windower(config, "j1"), [], []
    for a in range(0, len(records), 37):  # each chunk numbers its threads afresh
        closed = list(windower.push_columns(TraceColumns.from_records(records[a : a + 37], "j1")))
        got += closed
        threads_seen += [len(windower._threads)] * len(closed)
    got += windower.finish()
    assert reference_windower.comparable(got) == expected
    assert threads_seen[0] == 1 and threads_seen[-1] == (1 if second_from == 400 else 2)
    for cuts in ([], range(50, len(records), 50)):  # slices of one table: every thread known from the first chunk
        assert reference_windower.comparable(fed_in_chunks(records, config, cuts)) == expected


def test_trace_columns_slices_carry_their_samples_and_logs():
    records = COLUMN_CASES["late records"] + [log_at(40 * S), res_at(41 * S, 7)]
    whole = TraceColumns.from_records(records, "j1")
    assert len(whole) == len(records)
    assert whole.logs == tuple(r for r in records if isinstance(r, LogRecord))
    for a, b in [(0, 3), (2, 9), (5, 5), (9, len(records)), (3, 100)]:
        part = whole[a:b]
        assert len(part) == len(records[a:b])
        assert part.t_ns.tolist() == [r.t_ns for r in records[a:b]]
        assert part.samples == tuple(r for r in records[a:b] if isinstance(r, ResourceSample))
        assert part.logs == tuple(r for r in records[a:b] if isinstance(r, LogRecord))
        assert part.names is whole.names and part.threads is whole.threads
    with pytest.raises(ValueError):
        whole[::2]


@settings(max_examples=100, deadline=None)
@given(rows=ROWS, bounds=st.lists(st.tuples(st.integers(-70, 70), st.integers(-70, 70)), min_size=1, max_size=4))
def test_a_slice_takes_the_record_rows_a_fresh_count_gives(rows, bounds):
    part = TraceColumns.from_records(rows_to_records(rows), "j1")
    for a, b in bounds:  # each a slice of the one before
        part = part[a:b]
        fresh = np.flatnonzero(part.kind == RES_ROW), np.flatnonzero(part.kind == LOG_ROW)
        for got, expected in zip(part.record_rows, fresh):
            assert got.dtype == expected.dtype and got.tolist() == expected.tolist()
        assert len(part.samples) == len(fresh[0]) and len(part.logs) == len(fresh[1])


NEAR_2_63 = st.integers(_INT64_MAX - 2**12, _INT64_MAX + 2**12)  # float64 cannot tell these apart
BUFFERS = st.one_of(
    st.lists(st.integers(-(2**63), _INT64_MAX) | NEAR_2_63.filter(lambda t: t <= _INT64_MAX), max_size=30).map(
        lambda v: np.array(sorted(v), dtype=np.int64)
    ),
    st.lists(st.integers(-(2**63), 2**66) | NEAR_2_63, max_size=30).map(lambda v: np.array(sorted(v), dtype=object)),
)


@settings(max_examples=300, deadline=None)
@given(sorted_t=BUFFERS, data=st.data())
def test_one_search_for_both_bounds_equals_two(sorted_t, data):
    bound = st.integers(-(2**62), 2**65) | NEAR_2_63 | st.sampled_from([_INT64_MAX, _INT64_MAX + 1, *sorted_t.tolist()])
    lo, hi = sorted([data.draw(bound), data.draw(bound)])
    assert _before_both(sorted_t, lo, hi) == [_before(sorted_t, lo), _before(sorted_t, hi)]


@pytest.mark.parametrize("lo, hi", [(0, _INT64_MAX + 1), (_INT64_MAX, _INT64_MAX + 1), (-1, 2**64), (_INT64_MAX + 1, 2**70)])
def test_one_search_for_both_bounds_past_int64(lo, hi):
    for sorted_t in (np.array([0, _INT64_MAX - 1, _INT64_MAX]), np.array([0, _INT64_MAX, 2**64], dtype=object)):
        assert _before_both(sorted_t, lo, hi) == [_before(sorted_t, lo), _before(sorted_t, hi)]


# --- n-gram block ------------------------------------------------------------------

def ngram_features(events, config):
    """The n-gram block of the first window of a trace holding these events."""
    return make_windows(trace_of(events), config)[0].ngrams


def test_ngram_empty_is_zero_vector():
    vec = ngram_features([ev(0.0, direction=EXIT)], CFG)  # a window without enter events
    assert vec.shape == (256,)
    assert not vec.any()


def test_ngram_single_event_independent_hash_oracle():
    vec = ngram_features([ev(0.0, name="read")], FeatureConfig(ngram_orders=(1,)))
    bucket = fnv_oracle("read") % 256
    assert vec[bucket] == 1.0
    assert vec.sum() == 1.0
    assert (vec != 0).sum() == 1


def test_ngram_read_write_orders_1_2():
    vec = ngram_features([ev(0.0, "read"), ev(1.0, "write")], CFG)
    expected = {fnv_oracle("read") % 256: 1 / 3, fnv_oracle("write") % 256: 1 / 3, fnv_oracle("read|write") % 256: 1 / 3}
    for bucket, value in expected.items():
        assert vec[bucket] == pytest.approx(value)
    assert vec.sum() == pytest.approx(1.0)


def test_ngram_brute_force_bucket_accumulation():
    names = ["read", "write", "read", "open", "close", "read"]
    events = [ev(i * 0.1, n) for i, n in enumerate(names)]
    config = FeatureConfig(ngram_orders=(1, 2, 3))
    vec = ngram_features(events, config)
    # oracle: enumerate every n-gram and accumulate counts independently
    counts = {}
    for n in (1, 2, 3):
        for i in range(len(names) - n + 1):
            bucket = fnv_oracle("|".join(names[i : i + n])) % 256
            counts[bucket] = counts.get(bucket, 0) + 1
    total = sum(counts.values())
    oracle = np.zeros(256)
    for bucket, c in counts.items():
        oracle[bucket] = c / total
    assert np.array_equal(vec, oracle)


def test_ngrams_do_not_cross_threads():
    # two threads interleaved; bigrams stay within each (pid, tid)
    events = [
        ev(0.0, "read", tid=1), ev(0.1, "open", tid=2), ev(0.2, "write", tid=1), ev(0.3, "close", tid=2),
    ]
    vec = ngram_features(events, CFG)
    grams = ["read", "open", "write", "close", "read|write", "open|close"]
    oracle = np.zeros(256)
    for g in grams:
        oracle[fnv_oracle(g) % 256] += 1 / len(grams)
    assert np.allclose(vec, oracle)
    assert vec[fnv_oracle("read|open") % 256] == 0.0  # cross-thread bigram absent


def test_interleaving_invariance():
    a = [ev(0.0, "read", tid=1), ev(0.2, "write", tid=1), ev(0.4, "open", tid=2), ev(0.5, "close", tid=2)]
    b = [ev(0.0, "read", tid=1), ev(0.1, "open", tid=2), ev(0.3, "close", tid=2), ev(0.4, "write", tid=1)]
    assert np.array_equal(ngram_features(a, CFG), ngram_features(b, CFG))


def test_exit_events_are_not_tokens():
    events = [ev(0.0, "read"), ev(0.1, "read", direction=EXIT)]
    vec = ngram_features(events, FeatureConfig(ngram_orders=(1,)))
    assert vec[fnv_oracle("read") % 256] == 1.0


# --- resource_features --------------------------------------------------------------

def win(start_s, end_s):
    return Window(
        job_id="j1", index=0, t_start_ns=int(start_s * 1e9), t_end_ns=int(end_s * 1e9),
        samples=(), ngrams=np.zeros(CFG.hash_dim),
    )


def test_resource_no_samples():
    assert not resource_features([], win(0, 10)).any()


def test_resource_single_sample():
    out = resource_features([rs(1.0, cpu=50.0, rss=2**20)], win(0, 10))
    assert out[0] == 50.0 and out[1] == 0.0 and out[2] == 50.0
    assert out[3] == 1.0 and out[4] == 0.0 and out[5] == 1.0
    assert not out[6:].any()


def test_resource_net_rate_hand_oracle():
    samples = [rs(1.0, tx=0), rs(2.0, tx=10**6)]
    out = resource_features(samples, win(0, 10))
    assert out[8] == pytest.approx(1e6)  # tx rate mean
    assert out[9] == pytest.approx(1e6)  # tx rate max


def test_resource_rates_use_carry_in_sample():
    # first sample before window start provides the delta baseline
    samples = [rs(4.0, rx=100), rs(6.0, rx=300)]
    w = win(5, 15)
    out = resource_features(samples, w)
    assert out[6] == pytest.approx(100.0)  # (300-100)/2 s
    assert out[0] == 0.0  # stats cover in-window samples only


def test_resource_zero_dt_pairs_skipped():
    samples = [rs(1.0, tx=0), rs(1.0, tx=500), rs(2.0, tx=1000)]
    out = resource_features(samples, win(0, 10))
    assert out[8] == pytest.approx(500.0)  # only the 1 s pair counts


def test_resource_layout_statistics():
    samples = [rs(1.0, cpu=10, rss=2**20), rs(2.0, cpu=30, rss=3 * 2**20)]
    out = resource_features(samples, win(0, 10))
    assert out[0] == pytest.approx(20.0)
    assert out[1] == pytest.approx(10.0)  # population std
    assert out[2] == 30.0
    assert out[3] == pytest.approx(2.0)
    assert out[5] == 3.0


def test_resource_counters_near_2_70_keep_their_exact_deltas():
    # int64 cannot hold these counters, and float64 (spacing 2**18 at 2**70) loses their deltas
    big = 2**70
    samples = [
        rs(4.0, rss=big, rx=big, io_r=big + 7),  # carry-in: a rate baseline only
        rs(5.0, cpu=10.0, rss=big, rx=big + 3_000_000, io_r=big + 1_000_007),
        rs(7.0, cpu=30.0, rss=big + 2**40, rx=big + 13_000_000, io_r=big + 1_000_008),
    ]
    out = resource_features(samples, win(5, 15))
    mib = 2.0**50  # 2**70 bytes
    assert out.tolist() == [
        20.0, 10.0, 30.0,  # cpu mean, population std, max
        mib + 2**19, 2.0**19, mib + 2**20,  # rss in MiB
        4e6, 5e6,  # rx: 3e6 B over 1 s, 1e7 B over 2 s
        0.0, 0.0,  # tx
        (1e6 + 0.5) / 2,  # io read: 1e6 B over 1 s, 1 B over 2 s
        0.0,  # io write
    ]


@pytest.mark.parametrize("seed", range(12))
def test_resource_statistics_equal_numpy_mean_and_std(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([1, 2, 7, 9, 130, 300]))  # pairwise sums change shape past 8 and 128 terms
    t = np.cumsum(rng.integers(0, 3, n)) * S // 2  # repeated timestamps: zero-dt pairs are skipped
    counters = np.cumsum(rng.integers(0, 10**9, (n, 4)), axis=0).tolist()
    samples = [
        rs(t[i] / S, cpu=float(rng.uniform(0, 400)), rss=int(rng.integers(0, 2**40)),
           rx=c[0], tx=c[1], io_r=c[2], io_w=c[3])
        for i, c in enumerate(counters)
    ]
    w = win(t[n // 3] / S, t[-1] / S + 10)
    out = resource_features(samples, w)
    inside = [s for s in samples if s.t_ns >= w.t_start_ns]
    cpu, rss = np.array([s.cpu_pct for s in inside]), np.array([s.rss_bytes / 2.0**20 for s in inside])
    pairs = [(a, b) for a, b in zip(samples, samples[1:]) if b.t_ns != a.t_ns]
    rates = [
        np.mean([(getattr(b, f) - getattr(a, f)) / ((b.t_ns - a.t_ns) / 1e9) for a, b in pairs]) if pairs else 0.0
        for f in ("net_rx_bytes", "net_tx_bytes", "io_read_bytes", "io_write_bytes")
    ]
    expected = [np.mean(cpu), np.std(cpu), np.mean(rss), np.std(rss), *rates]
    assert out[[0, 1, 3, 4, 6, 8, 10, 11]].tobytes() == np.array(expected).tobytes()


# --- extract -----------------------------------------------------------------------

def test_extract_dimension_contract(small_corpus):
    import os

    from warden.records import read_trace_columns

    entry = small_corpus["manifest"]["entries"][0]
    trace = read_trace_columns(os.path.join(small_corpus["dir"], entry["file"]), entry["job_id"])
    for vec in extract(trace, CFG):
        assert vec.values.shape == (CFG.dim,)
        block = vec.values[: CFG.hash_dim]
        assert block.sum() == pytest.approx(1.0, abs=1e-9) or not block.any()


def test_extract_deterministic():
    trace = gen_trace(builtin_profiles()[0], 30.0, "job-d", seed=5)
    a = extract(trace, CFG)
    b = extract(trace, CFG)
    assert len(a) == len(b) > 0
    for va, vb in zip(a, b):
        assert np.array_equal(va.values, vb.values)
        assert va.values.tobytes() == vb.values.tobytes()


def test_extract_resource_only_trace_is_empty():
    assert extract(trace_of([rs(float(t)) for t in range(5)]), CFG) == []


def test_feature_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        FeatureVector(job_id="j", window_index=0, values=np.array([np.nan, 1.0]))


# --- scaler ------------------------------------------------------------------------

def test_scaler_single_vector_zeroes():
    vec = FeatureVector(job_id="j", window_index=0, values=np.arange(5.0))
    scaler = Scaler().fit([vec])
    assert np.allclose(scaler.transform(vec.values), 0.0)


def test_scaler_constant_dimension_floor():
    X = np.ones((4, 3)) * 7.0
    scaler = Scaler().fit(X)
    assert np.all(scaler.std_ == 1e-8)
    assert np.allclose(scaler.transform(X), 0.0)


def test_scaler_moments_after_scaling():
    rng = np.random.default_rng(3)
    X = rng.normal(5.0, 3.0, size=(200, 8))
    X[:, 2] = 1.25  # constant dimension
    Z = Scaler().fit(X).transform(X)
    mean = Z.mean(axis=0)
    std = Z.std(axis=0)
    assert np.all(np.abs(mean) < 1e-9)
    for j in range(8):
        assert std[j] == 0.0 or abs(std[j] - 1.0) < 1e-6


def test_scaler_errors():
    with pytest.raises(EmptyDataset):
        Scaler().fit([])
    from warden.features import DimensionMismatch

    scaler = Scaler().fit(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        scaler.transform(np.ones((2, 4)))
    with pytest.raises(DimensionMismatch):
        feature_matrix([np.ones(3), np.ones(4)])


def test_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig(hop_s=20.0)  # hop > window
    with pytest.raises(ValueError):
        FeatureConfig(hash_dim=100)  # not a power of two
    with pytest.raises(ValueError):
        FeatureConfig(ngram_orders=(4,))
    with pytest.raises(ValueError):
        FeatureConfig(ngram_orders=())
    assert FeatureConfig(ngram_orders=(2, 1, 2)).ngram_orders == (1, 2)
