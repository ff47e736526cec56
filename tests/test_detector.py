"""Detector: smoothing transition, action ladder, streaming windows, pipeline."""

from __future__ import annotations

import fcntl
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warden.datagen import gen_trace, profiles_by_name
from warden.coordinator import CoordinatorClient, make_server
from warden.detector import (
    Alert,
    AlertSpool,
    DetectorConfig,
    DetectorState,
    FingerprintMismatch,
    ResponseAction,
    alert_to_dict,
    decide_action,
    flush_spool,
    parse_alert_line,
    run_pipeline,
    score_window,
    serialize_alert_line,
    update,
)
from warden.features import FeatureConfig, Scaler, Windower, extract, make_windows, window_vector
from warden.hashing import SplitMix64
from warden.ml import MlpClassifier, ModelBundle, SvmClassifier
from warden.ml.data import build_feature_dataset
from warden.records import ENTER, LabeledTrace, ResourceSample, SyscallEvent, TraceColumns, write_trace_file
from warden.sandbox import REPLAY_CHUNK_RECORDS, JobStatus, KillReason, replay_job
from reference_windower import reference_ngrams


def run_updates(scores, config):
    state = DetectorState()
    alarms = []
    for s in scores:
        state, alarm = update(state, config, s)
        alarms.append(alarm)
    return state, alarms


# --- update ------------------------------------------------------------------------

def test_k1_n1_alarms_immediately():
    config = DetectorConfig(k=1, n=1)
    _, alarms = run_updates([0.9], config)
    assert alarms == [True]


def test_k3_n5_hand_enumeration():
    # decisions T,F,T,T: alarm exactly at the 4th window
    config = DetectorConfig(k=3, n=5)
    _, alarms = run_updates([0.9, 0.1, 0.8, 0.7], config)
    assert alarms == [False, False, False, True]


def test_never_alarms_below_tau():
    config = DetectorConfig(k=1, n=1, tau=0.5)
    _, alarms = run_updates([0.49] * 200, config)
    assert not any(alarms)


def test_buffer_caps_at_n():
    config = DetectorConfig(k=3, n=5)
    state, _ = run_updates([0.9] * 12, config)
    assert len(state.decisions) == 5
    assert state.windows_seen == 12


def test_consecutive_alarm_counter_resets():
    config = DetectorConfig(k=1, n=1)
    state, alarms = run_updates([0.9, 0.9, 0.1, 0.9], config)
    assert alarms == [True, True, False, True]
    assert state.consecutive_alarms == 1


def test_update_is_pure_and_replayable():
    config = DetectorConfig()
    rng = SplitMix64(3)
    scores = [rng.uniform() for _ in range(300)]
    s1, a1 = run_updates(scores, config)
    s2, a2 = run_updates(scores, config)
    assert s1 == s2 and a1 == a2


@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), max_size=60),
       st.floats(min_value=0.05, max_value=0.9), st.floats(min_value=0.05, max_value=0.9))
@settings(max_examples=200, deadline=None)
def test_lower_tau_never_loses_alarms(scores, tau_a, tau_b):
    lo, hi = sorted((tau_a, tau_b))
    config_lo = DetectorConfig(tau=lo, k=2, n=4)
    config_hi = DetectorConfig(tau=hi, k=2, n=4)
    _, alarms_lo = run_updates(scores, config_lo)
    _, alarms_hi = run_updates(scores, config_hi)
    hi_set = {i for i, a in enumerate(alarms_hi) if a}
    lo_set = {i for i, a in enumerate(alarms_lo) if a}
    assert hi_set <= lo_set


def test_smoothing_reduces_false_positive_rate():
    rng = SplitMix64(2028)
    decisions = [1.0 if rng.uniform() < 0.1 else 0.0 for _ in range(100000)]
    _, smoothed = run_updates(decisions, DetectorConfig(k=3, n=5))
    _, raw = run_updates(decisions, DetectorConfig(k=1, n=1))
    smoothed_rate = sum(smoothed) / len(smoothed)
    raw_rate = sum(raw) / len(raw)
    assert smoothed_rate < 0.01
    assert smoothed_rate < raw_rate


# --- decide_action --------------------------------------------------------------

def test_default_action_ladder():
    config = DetectorConfig()
    assert decide_action(config, 0) == ResponseAction.NONE
    assert decide_action(config, 1) == ResponseAction.RAISE_ALERT
    assert decide_action(config, 2) == ResponseAction.TERMINATE
    assert decide_action(config, 9) == ResponseAction.TERMINATE


def test_action_policy_validation():
    with pytest.raises(ValueError):
        DetectorConfig(action_policy=((2, ResponseAction.RAISE_ALERT), (2, ResponseAction.TERMINATE)))
    with pytest.raises(ValueError):
        DetectorConfig(k=3, n=2)
    with pytest.raises(ValueError):
        DetectorConfig(tau=1.0)


def test_alert_line_round_trip():
    alert = Alert(
        alert_id="j/3", node_id="n1", job_id="j", t_ns=123, window_index=3,
        score=0.875, model_id="m", rule="k-of-n:3/5", action_taken=ResponseAction.TERMINATE,
    )
    line = serialize_alert_line(alert)
    assert "\n" not in line
    assert parse_alert_line(line) == alert


def test_alert_line_bytes_are_pinned():
    alert = Alert(
        alert_id="jöb-ü/7", node_id="node-✓", job_id="jöb-ü", t_ns=2**64 + 5, window_index=7,
        score=0.1234565, model_id="mlp-€", rule="k-of-n:3/5", action_taken=ResponseAction.TERMINATE,
    )
    assert serialize_alert_line(alert) == (
        '{"alert_id":"jöb-ü/7","node_id":"node-✓","job_id":"jöb-ü","t_ns":18446744073709551621,"window_index":7,'
        '"score":0.123456,"model_id":"mlp-€","rule":"k-of-n:3/5","action":"terminate"}'
    )
    assert alert_to_dict(alert)["action"] == "terminate"


GOOD_LINE = (
    '{"alert_id":"j/1","node_id":"n1","job_id":"j","t_ns":1,"window_index":1,"score":0.9,'
    '"model_id":"m","rule":"k-of-n:3/5","action":"raise_alert"}'
)


@pytest.mark.parametrize(
    "line, problem",
    [
        ('{"alert_id":"b","node', "Unterminated string"),
        ("[1]", "alert must be an object"),
        (GOOD_LINE.replace('"job_id":"j",', ""), "missing field 'job_id'"),
        (GOOD_LINE.replace('"job_id":"j"', '"job_id":["j"]'), "job_id must be a UTF-8 string"),
        (GOOD_LINE.replace('"t_ns":1', '"t_ns":true'), "t_ns must be an integer"),
        (GOOD_LINE.replace('"rule":"k-of-n:3/5"', '"rule":"\\ud800"'), "rule must be a UTF-8 string"),
        (GOOD_LINE.replace('"score":0.9', '"score":1.5'), "score must be a number in [0, 1]"),
        (GOOD_LINE.replace("raise_alert", "reboot"), "unknown action 'reboot'"),
    ],
    ids=["torn", "not an object", "missing field", "list job_id", "bool t_ns", "lone surrogate", "score above 1",
         "unknown action"],
)
def test_read_alert_log_names_the_path_line_and_field_of_a_bad_line(tmp_path, line, problem):
    from warden.detector import read_alert_log

    path = tmp_path / "alerts.alog"
    path.write_text(GOOD_LINE + "\n\n" + line + "\n" + GOOD_LINE + "\n", encoding="utf-8")
    first, bad, last = read_alert_log(path)
    assert first == last == parse_alert_line(GOOD_LINE)
    assert isinstance(bad, ValueError) and str(bad).startswith(f"{path}:3: {problem}"), bad


# --- windowing ----------------------------------------------------------------------

def oracle_windows(trace, config):
    """Brute force over the whole trace: (index, start, end, samples, n-gram block bytes) per kept window.

    Window k holds the events in [start, end); its samples are the last sample
    before start followed by the in-window samples.
    """
    events = [r for r in trace.records if isinstance(r, SyscallEvent)]
    samples = [r for r in trace.records if isinstance(r, ResourceSample)]
    t0, t_last = trace.records[0].t_ns, trace.records[-1].t_ns
    out = []
    k = 0
    while t0 + k * config.hop_ns <= t_last:
        start = t0 + k * config.hop_ns
        end = start + config.window_ns
        in_window = tuple(e for e in events if start <= e.t_ns < end)
        if in_window:
            before = [s for s in samples if s.t_ns < start]
            inside = [s for s in samples if start <= s.t_ns < end]
            out.append((k, start, end, tuple(before[-1:] + inside), reference_ngrams(in_window, config).tobytes()))
        k += 1
    return out


def as_tuples(windows):
    return [(w.index, w.t_start_ns, w.t_end_ns, w.samples, w.ngrams.tobytes()) for w in windows]


@pytest.mark.parametrize("profile_name", ["batch-compute", "cryptominer", "ddos-flood"])
def test_streaming_windower_equals_batch_windows(profile_name):
    trace = gen_trace(profiles_by_name()[profile_name], 33.0, "job-w", seed=9)
    config = FeatureConfig()
    expected = oracle_windows(trace, config)
    batch = make_windows(trace, config)
    columns = TraceColumns.from_records(trace.records, trace.job_id)
    windower = Windower(config, trace.job_id)
    streamed = []
    for start in range(0, len(columns), REPLAY_CHUNK_RECORDS):  # the chunks a replay streams
        streamed.extend(windower.push_columns(columns[start : start + REPLAY_CHUNK_RECORDS]))
    streamed.extend(windower.finish())
    assert len(expected) >= 5
    assert as_tuples(batch) == expected
    assert as_tuples(streamed) == expected
    for a, b in zip(streamed, batch):
        va, vb = window_vector(a, config), window_vector(b, config)
        assert np.array_equal(va.values, vb.values)


def test_windower_inserts_late_record_at_its_timestamp():
    def ev(t_s):
        return SyscallEvent(t_ns=int(t_s * 1e9), job_id="j", pid=1, tid=1, name="read", direction=ENTER)

    def rs(t_s, rx):
        return ResourceSample(
            t_ns=int(t_s * 1e9), job_id="j", cpu_pct=1.0, rss_bytes=0,
            net_rx_bytes=rx, net_tx_bytes=0, io_read_bytes=0, io_write_bytes=0,
        )

    config = FeatureConfig()
    pushed = [ev(0), rs(1, 10), rs(3, 30), rs(2, 20), ev(4), ev(11)]  # the sample at 2 s arrives late
    windower = Windower(config, "j")
    windows = [w for record in pushed for w in windower.push_columns(TraceColumns.from_records([record], "j"))]
    windows += windower.finish()
    assert [w.index for w in windows] == [0, 1, 2]
    assert windows[0].samples == (rs(1, 10), rs(2, 20), rs(3, 30))
    for w in windows:
        window_vector(w, config)  # samples are in time order: no UnsortedInput
    in_order = LabeledTrace(
        job_id="j", label="normal", profile_name="", records=tuple(sorted(pushed, key=lambda r: r.t_ns))
    )
    assert windows == make_windows(in_order, config)


# --- scoring and pipeline -----------------------------------------------------------

@pytest.fixture(scope="module")
def small_bundle(small_corpus):
    config = FeatureConfig()
    dataset, _ = build_feature_dataset(small_corpus["manifest_path"], config)
    scaler = Scaler().fit(dataset.X)
    model = MlpClassifier(epochs=30, seed=3).fit(scaler.transform(dataset.X), dataset.y)
    return ModelBundle(kind="mlp", model=model, feature_config=config, scaler=scaler, model_id="test-mlp")


def test_score_window_zero_weight_svm():
    config = FeatureConfig()
    scaler = Scaler().fit(np.zeros((2, config.dim)))
    svm = SvmClassifier(epochs=0)
    svm.w_, svm.b_ = np.zeros(config.dim), 0.0
    bundle = ModelBundle(kind="svm", model=svm, feature_config=config, scaler=scaler)
    trace = gen_trace(profiles_by_name()["batch-compute"], 12.0, "job-z", seed=2)
    vec = extract(trace, config)[0]
    assert score_window(bundle, vec) == 0.5
    assert score_window(bundle, vec) == score_window(bundle, vec)


def test_score_window_fingerprint_mismatch(small_bundle):
    trace = gen_trace(profiles_by_name()["batch-compute"], 12.0, "job-f", seed=2)
    vec = extract(trace, FeatureConfig(hash_dim=64))[0]
    with pytest.raises(FingerprintMismatch):
        score_window(small_bundle, vec)


def _replay_and_run(trace, tmp_path, bundle, config=None, **kw):
    path = tmp_path / f"{trace.job_id}.trc"
    write_trace_file(path, trace.records)
    handle = replay_job(str(path), trace.job_id)
    return handle, run_pipeline(handle, bundle, config or DetectorConfig(), **kw)


def test_pipeline_normal_trace_no_terminate(small_bundle, tmp_path):
    trace = gen_trace(profiles_by_name()["batch-compute"], 40.0, "job-n1", seed=501)
    handle, result = _replay_and_run(trace, tmp_path, small_bundle)
    assert result.terminated is False
    assert all(a.action_taken != ResponseAction.TERMINATE for a in result.alerts)


def test_pipeline_counts_every_replayed_row(small_bundle, tmp_path):
    trace = gen_trace(profiles_by_name()["batch-compute"], 40.0, "job-n2", seed=509)
    handle, result = _replay_and_run(trace, tmp_path, small_bundle)
    with open(tmp_path / "job-n2.trc", "rb") as fh:
        lines = sum(1 for _ in fh)
    assert lines > REPLAY_CHUNK_RECORDS
    assert result.records_in == lines
    assert result.windows_scored == len(make_windows(trace, FeatureConfig()))


def test_pipeline_miner_trace_terminates_early(small_bundle, tmp_path):
    trace = gen_trace(profiles_by_name()["cryptominer"], 40.0, "job-m1", seed=502)
    handle, result = _replay_and_run(trace, tmp_path, small_bundle)
    assert result.terminated is True
    # at max replay speed the file may finish streaming before the kill lands;
    # the terminal status is then Completed and must stay immutable
    assert handle.wait(5.0).terminal
    alarmed = [a for a in result.alerts if a.window_index >= 0]
    assert alarmed, "no alerts on a miner trace"
    # k=3 of n=5 with all-high scores: first alarm on the 3rd scored window
    assert alarmed[0].rule == "k-of-n:3/5"
    assert alarmed[0].action_taken == ResponseAction.RAISE_ALERT
    terminations = [a for a in alarmed if a.action_taken == ResponseAction.TERMINATE]
    assert terminations, "no terminate decision"


def test_pipeline_kills_job_that_is_still_running(small_bundle, tmp_path):
    trace = gen_trace(profiles_by_name()["cryptominer"], 40.0, "job-m1b", seed=507)
    path = tmp_path / "m1b.trc"
    write_trace_file(path, trace.records)
    # slow the replay so the job outlives the terminate decision
    handle = replay_job(str(path), trace.job_id, speed=0.05)
    result = run_pipeline(handle, small_bundle, DetectorConfig())
    assert result.terminated is True
    assert handle.wait(5.0) == JobStatus.killed(KillReason.DETECTOR_ACTION)


def test_pipeline_terminate_issued_once(small_bundle, tmp_path, monkeypatch):
    trace = gen_trace(profiles_by_name()["cryptominer"], 40.0, "job-m2", seed=503)
    path = tmp_path / "m2.trc"
    write_trace_file(path, trace.records)
    handle = replay_job(str(path), trace.job_id)
    calls = []
    original = handle.terminate
    monkeypatch.setattr(handle, "terminate", lambda reason: (calls.append(reason), original(reason))[1])
    run_pipeline(handle, small_bundle, DetectorConfig())
    assert calls == [KillReason.DETECTOR_ACTION]


def test_pipeline_alert_ids_and_dedup_keys(small_bundle, tmp_path):
    trace = gen_trace(profiles_by_name()["cryptominer"], 40.0, "job-m3", seed=504)
    _, result = _replay_and_run(trace, tmp_path, small_bundle)
    ids = [a.alert_id for a in result.alerts]
    assert len(ids) == len(set(ids))
    for alert in result.alerts:
        assert alert.alert_id == f"{alert.job_id}/{alert.window_index}"


class FlakyClient:
    """Fails the first ``fail`` deliveries, then accepts; records everything."""

    def __init__(self, fail=3):
        self.fail = fail
        self.delivered = []

    def post_alert(self, node_id, alert):
        if self.fail > 0:
            self.fail -= 1
            raise ConnectionError("coordinator unreachable")
        self.delivered.append((node_id, alert.alert_id))
        return True, {}


def test_pipeline_spools_on_delivery_failure(small_bundle, tmp_path):
    trace = gen_trace(profiles_by_name()["cryptominer"], 40.0, "job-m4", seed=505)
    spool = AlertSpool(tmp_path / "spool.alog")
    client = FlakyClient(fail=10**9)
    _, result = _replay_and_run(trace, tmp_path, small_bundle, client=client, node_id="n1", spool=spool)
    assert result.alerts and result.delivery_failures == len(result.alerts)
    spooled = spool.drain()
    assert [a.alert_id for a in spooled] == [a.alert_id for a in result.alerts]


def test_flush_spool_redelivers_then_clears(small_bundle, tmp_path):
    spool = AlertSpool(tmp_path / "spool.alog")
    alert = Alert(
        alert_id="j/1", node_id="n1", job_id="j", t_ns=1, window_index=1,
        score=0.9, model_id="m", rule="k-of-n:3/5", action_taken=ResponseAction.RAISE_ALERT,
    )
    spool.append(alert)
    client = FlakyClient(fail=0)
    assert flush_spool(spool, client, "n1") == 1
    assert client.delivered == [("n1", "j/1")]
    assert spool.drain() == []


def test_flush_spool_skips_torn_and_bad_lines_and_delivers_the_rest(tmp_path):
    spool = AlertSpool(tmp_path / "spool.alog")
    spool.append(parse_alert_line(GOOD_LINE))
    with open(spool.path, "a", encoding="utf-8") as fh:
        fh.write(GOOD_LINE.replace('"job_id":"j"', '"job_id":["j"]') + "\n")
    spool.append(parse_alert_line(GOOD_LINE.replace("j/1", "j/2")))
    with open(spool.path, "a", encoding="utf-8") as fh:
        fh.write('{"alert_id":"b","node')  # torn last line
    client = FlakyClient(fail=0)
    assert flush_spool(spool, client, "n1") == 2
    assert client.delivered == [("n1", "j/1"), ("n1", "j/2")]
    assert spool.drain() == []


class SpoolingClient(FlakyClient):
    """Delivers, and on its first post spools ``late`` to ``path``, as another process could mid-flush."""

    def __init__(self, path, late):
        super().__init__(fail=0)
        self.spool, self.late = AlertSpool(path), late

    def post_alert(self, node_id, alert):
        if self.late is not None:
            self.spool.append(self.late)
            self.late = None
        return super().post_alert(node_id, alert)


def test_an_alert_spooled_during_a_flush_is_delivered_not_lost(tmp_path):
    spool = AlertSpool(tmp_path / "spool.alog")
    first, late = parse_alert_line(GOOD_LINE), parse_alert_line(GOOD_LINE.replace("j/1", "j/2"))
    spool.append(first)
    client = SpoolingClient(spool.path, late)
    assert flush_spool(spool, client, "n1") == 2
    assert client.delivered == [("n1", "j/1"), ("n1", "j/2")]
    assert spool.drain() == [] and os.listdir(tmp_path) == []


def test_an_append_under_way_when_a_flush_starts_is_delivered_not_lost(tmp_path):
    spool = AlertSpool(tmp_path / "spool.alog")
    spool.append(parse_alert_line(GOOD_LINE))
    client, flushed = FlakyClient(fail=0), []
    with open(spool.path, "ab") as fh:  # an append that has opened the spool and not yet written
        fcntl.flock(fh, fcntl.LOCK_EX)
        flusher = threading.Thread(target=lambda: flushed.append(flush_spool(spool, client, "n1")))
        flusher.start()
        time.sleep(0.2)
        fh.write((GOOD_LINE.replace("j/1", "j/2") + "\n").encode())
    flusher.join(5.0)
    assert flushed == [2] and client.delivered == [("n1", "j/1"), ("n1", "j/2")]
    assert os.listdir(tmp_path) == []


def test_an_append_that_finds_its_spool_claimed_writes_to_the_new_spool(tmp_path):
    spool, claimed = AlertSpool(tmp_path / "spool.alog"), AlertSpool(tmp_path / "claimed.alog")
    spool.append(parse_alert_line(GOOD_LINE))
    with open(spool.path, "rb") as fh:  # a flush that holds the lock and claims the spool
        fcntl.flock(fh, fcntl.LOCK_EX)
        appender = threading.Thread(target=spool.append, args=(parse_alert_line(GOOD_LINE.replace("j/1", "j/2")),))
        appender.start()
        time.sleep(0.2)
        os.replace(spool.path, claimed.path)
    appender.join(5.0)
    assert [a.alert_id for a in claimed.drain()] == ["j/1"]
    assert [a.alert_id for a in spool.drain()] == ["j/2"]


def test_a_transport_failure_keeps_the_claimed_alerts_for_the_next_flush(tmp_path):
    spool = AlertSpool(tmp_path / "spool.alog")
    first, second = parse_alert_line(GOOD_LINE), parse_alert_line(GOOD_LINE.replace("j/1", "j/2"))
    spool.append(first)
    spool.append(second)
    with pytest.raises(ConnectionError):
        flush_spool(spool, FlakyClient(fail=1), "n1")
    spool.append(parse_alert_line(GOOD_LINE.replace("j/1", "j/3")))  # spooled after the failed flush
    client = FlakyClient(fail=0)
    assert flush_spool(spool, client, "n1") == 3
    assert client.delivered == [("n1", "j/1"), ("n1", "j/2"), ("n1", "j/3")]  # the claimed file first
    assert os.listdir(tmp_path) == []


def test_an_alert_spooled_after_a_torn_last_line_starts_a_line_of_its_own(tmp_path):
    spool = AlertSpool(tmp_path / "spool.alog")
    torn = '{"alert_id":"b","node'
    (tmp_path / "spool.alog").write_text(torn, encoding="utf-8")
    first, second = parse_alert_line(GOOD_LINE), parse_alert_line(GOOD_LINE.replace("j/1", "j/2"))
    spool.append(first)
    assert spool.drain() == [first]
    spool.append(second)
    assert spool.drain() == [first, second]
    assert (tmp_path / "spool.alog").read_text(encoding="utf-8") == "\n".join(
        [torn, GOOD_LINE, GOOD_LINE.replace("j/1", "j/2"), ""])


def test_pipeline_policy_violations_forwarded_as_alerts(small_bundle, tmp_path):
    from warden.sandbox import SandboxPolicy

    trace = gen_trace(profiles_by_name()["ddos-flood"], 40.0, "job-d1", seed=506)
    policy = SandboxPolicy(net_allowed=False)
    _, result = _replay_and_run(trace, tmp_path, small_bundle, policy=policy)
    policy_alerts = [a for a in result.alerts if a.rule.startswith("policy:")]
    assert policy_alerts
    assert all(a.action_taken == ResponseAction.RAISE_ALERT for a in policy_alerts)
    assert all(a.alert_id.startswith("job-d1/pv") for a in policy_alerts)


@pytest.fixture()
def coordinator(tmp_path):
    server, service = make_server("127.0.0.1:0", tmp_path / "ledger.log")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = CoordinatorClient(f"http://127.0.0.1:{server.server_address[1]}")
    yield client
    client.close()
    server.shutdown()
    server.server_close()
    service.close()


def test_pipeline_counts_rejected_alerts_and_does_not_spool_them(small_bundle, tmp_path, coordinator):
    trace = gen_trace(profiles_by_name()["cryptominer"], 40.0, "job-m5", seed=507)
    spool = AlertSpool(tmp_path / "spool.alog")
    # the node id was never registered, so the coordinator answers 404
    _, result = _replay_and_run(trace, tmp_path, small_bundle, client=coordinator, node_id="ghost", spool=spool)
    assert result.alerts
    assert result.rejected == len(result.alerts)
    assert result.delivery_failures == 0
    assert spool.drain() == []


def test_flush_spool_skips_rejected_alerts(tmp_path, coordinator):
    spool = AlertSpool(tmp_path / "spool.alog")
    for i in range(3):
        spool.append(
            Alert(
                alert_id=f"j/{i}", node_id="n", job_id="j", t_ns=i, window_index=i,
                score=0.9, model_id="m", rule="k-of-n:3/5", action_taken=ResponseAction.RAISE_ALERT,
            )
        )
    assert flush_spool(spool, coordinator, "ghost") == 0  # every alert rejected with 404
    assert spool.drain() == []
    node = coordinator.register("host-a")
    assert flush_spool(spool, coordinator, node) == 0  # nothing left to send
    assert coordinator.list_alerts()["alerts"] == []


def test_pipeline_survives_a_resource_sample_older_than_the_previous(small_bundle):
    from warden.sandbox import SandboxPolicy

    def ev(t_s):
        return SyscallEvent(t_ns=int(t_s * 1e9), job_id="job-clk", pid=1, tid=1, name="read", direction=ENTER)

    def rs(t_s, cpu):
        return ResourceSample(
            t_ns=int(t_s * 1e9), job_id="job-clk", cpu_pct=cpu, rss_bytes=0,
            net_rx_bytes=0, net_tx_bytes=0, io_read_bytes=0, io_write_bytes=0,
        )

    class ListHandle:
        job_id = "job-clk"
        # the wall clock steps back: 3 s, then 2 s
        telemetry = [TraceColumns.from_records([ev(0), rs(1, 10.0), rs(3, 10.0), rs(2, 90.0), ev(4)], "job-clk")]

        def terminate(self, reason):
            raise AssertionError("no terminate expected")

    config = DetectorConfig(action_policy=((1, ResponseAction.RAISE_ALERT),))
    result = run_pipeline(ListHandle(), small_bundle, config, policy=SandboxPolicy(cpu_limit_pct=50.0))
    policy_alerts = [(a.rule, a.t_ns) for a in result.alerts if a.rule.startswith("policy:")]
    assert policy_alerts == [("policy:CpuLimit", int(2e9))]  # the late sample's limit is still checked


def test_pipeline_stops_scoring_after_terminate_but_drains_the_stream(small_bundle):
    from warden.sandbox import SandboxPolicy

    trace = gen_trace(profiles_by_name()["cryptominer"], 40.0, "job-m6", seed=508)
    consumed = []
    terminations = []
    columns = TraceColumns.from_records(trace.records, trace.job_id)
    chunks = [columns[i : i + REPLAY_CHUNK_RECORDS] for i in range(0, len(columns), REPLAY_CHUNK_RECORDS)]

    class ListHandle:
        job_id = trace.job_id
        telemetry = (consumed.append(len(chunk)) or chunk for chunk in chunks)

        def terminate(self, reason):
            terminations.append(reason)

    # every resource sample breaks the CPU limit, so a policy alert after the
    # terminate would show up at the end of the alert list
    result = run_pipeline(ListHandle(), small_bundle, DetectorConfig(), policy=SandboxPolicy(cpu_limit_pct=1e-9))
    assert terminations == [KillReason.DETECTOR_ACTION]
    assert sum(consumed) == len(trace.records) == result.records_in  # the stream was read to its end
    actions = [a.action_taken for a in result.alerts]
    assert actions.count(ResponseAction.TERMINATE) == 1
    assert actions[-1] == ResponseAction.TERMINATE
    assert result.windows_scored < len(make_windows(trace, FeatureConfig()))
