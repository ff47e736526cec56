"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the end-to-end criteria share the session-scoped seed-42 corpus and
trained models from conftest.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from tests.conftest import heldout_entries
from tests.test_coordinator import alert_body, crash_round
from tests.test_metrics import brute_force_auc
from tests.test_ml import blobs
from warden.cli import main as cli_main
from warden.datagen import gen_trace, profiles_by_name
from warden.detector import DetectorConfig, DetectorState, decide_action, run_pipeline, update
from warden.features import extract
from warden.hashing import SplitMix64, fnv1a64
from warden.ml import (
    MlpClassifier,
    ModelBundle,
    RnnClassifier,
    SvmClassifier,
    auc_score,
    grad_check,
    group_mean_scores,
)
from warden.records import parse_line, serialize_line
from warden.sandbox import (
    JobDescriptor,
    JobStatus,
    KillReason,
    ProcessBackend,
    SandboxPolicy,
    replay_job,
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_format_round_trip():
    with criterion(1, "format round-trip, 10k records under 10 s"):
        start = time.monotonic()
        profiles = list(profiles_by_name().values())
        count = 0
        for i, profile in enumerate(profiles):
            trace = gen_trace(profile, 30.0, f"job-rt{i}", seed=2000 + i)
            for record in trace.records:
                line = serialize_line(record)
                back = parse_line(line)
                assert back == record, "parse(serialize(x)) != x"
                assert serialize_line(back) == line, "serialize(parse(line)) != line"
                count += 1
        elapsed = time.monotonic() - start
        assert count >= 10000, f"only {count} records exercised"
        assert elapsed < 10.0, f"round-trip took {elapsed:.1f} s"


def test_criterion_02_gradient_correctness():
    with criterion(2, "gradient checks over 20 seeds"):
        for seed in range(20):
            rng = SplitMix64(fnv1a64(f"acc2-{seed}"))
            x = np.array([rng.gauss() for _ in range(6)])
            y = seed % 2

            mlp = MlpClassifier(hidden=4, epochs=0, seed=seed).fit(np.vstack([x, -x]), np.array([0, 1]))
            err = grad_check(mlp, (x, y), epsilon=1e-5)
            assert err < 1e-4, f"MLP seed {seed}: {err:.3e}"

            seq = np.array([rng.randrange(8) for _ in range(12)])
            rnn = RnnClassifier(hidden=4, embed=3, epochs=0, seed=seed, vocab=8)
            rnn.fit([seq, seq[:3]], np.array([0, 1]))
            err = grad_check(rnn, (seq, y), epsilon=1e-5)
            assert err < 1e-4, f"RNN seed {seed}: {err:.3e}"

            svm = SvmClassifier(lambda_=1e-2, epochs=0, seed=seed)
            svm.w_ = np.array([rng.gauss() for _ in range(6)])
            svm.b_ = rng.gauss()
            ys = 1.0 if y == 1 else -1.0
            if abs(ys * (float(x @ svm.w_) + svm.b_) - 1.0) < 0.1:
                svm.b_ += ys
            err = grad_check(svm, (x, y), epsilon=1e-5)
            assert err < 1e-6, f"SVM seed {seed}: {err:.3e}"


def test_criterion_03_pegasos_sanity():
    with criterion(3, "Pegasos 100% training accuracy on separable sets"):
        X2 = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y2 = np.array([1, 0])
        two_point = SvmClassifier(epochs=50, seed=0).fit(X2, y2)
        assert (two_point.predict(X2) == y2).all()

        X, y = blobs(99, n=200)
        assert ((2 * y - 1) * X.sum(axis=1)).min() > 0, "oracle: set not separable"
        model = SvmClassifier(lambda_=0.05, epochs=50, seed=0).fit(X, y)
        accuracy = (model.predict(X) == y).mean()
        assert accuracy == 1.0, f"training accuracy {accuracy}"


def test_criterion_04_end_to_end_model_comparison(comparison42):
    with criterion(4, "seed-42 corpus: SVM/MLP trace AUC >= 0.95, RNN >= 0.90, <= 10 min"):
        c = comparison42
        test = c["test"]
        svm_scores = c["svm"].proba(c["X_test"])
        _, svm_trace, svm_labels = group_mean_scores(svm_scores, test.y, test.groups)
        svm_auc = auc_score(svm_trace, svm_labels)

        mlp_scores = c["mlp"].proba(c["X_test"])
        _, mlp_trace, mlp_labels = group_mean_scores(mlp_scores, test.y, test.groups)
        mlp_auc = auc_score(mlp_trace, mlp_labels)

        rnn_auc = auc_score(c["rnn"].proba(c["seq_test"].sequences), c["seq_test"].y)

        budget = c["extract_seconds"] + sum(c["timings"].values())
        print(
            f"  svm-trace-auc={svm_auc:.4f} mlp-trace-auc={mlp_auc:.4f} "
            f"rnn-trace-auc={rnn_auc:.4f} train+eval={budget:.0f}s"
        )
        assert svm_auc >= 0.95, f"SVM per-trace AUC {svm_auc}"
        assert mlp_auc >= 0.95, f"MLP per-trace AUC {mlp_auc}"
        assert rnn_auc >= 0.90, f"RNN per-trace AUC {rnn_auc}"
        assert budget <= 600.0, f"train+eval took {budget:.0f} s"


def test_criterion_05_detection_latency(corpus42, comparison42, tmp_path):
    with criterion(5, "held-out cryptominer: alarm within 6 windows, terminate by 7"):
        c = comparison42
        test_groups = set(c["test"].groups)
        miners = heldout_entries(corpus42, test_groups, profile="cryptominer")
        assert miners, "no held-out cryptominer trace in the test split"
        entry = miners[0]

        bundle = ModelBundle(
            kind="mlp", model=c["mlp"], feature_config=c["config"], scaler=c["scaler"], model_id="acc5"
        )
        from warden.records import load_labeled_trace

        trace = load_labeled_trace(
            os.path.join(corpus42["dir"], entry["file"]), entry["job_id"], entry["label"], entry["profile"]
        )
        # score the emitted windows through the detector transition directly
        from warden.detector import score_window

        config = DetectorConfig(tau=0.5, k=3, n=5)
        state = DetectorState()
        first_alarm = first_terminate = None
        for position, vector in enumerate(extract(trace, c["config"]), start=1):
            score = score_window(bundle, vector)
            state, alarm = update(state, config, score)
            if alarm and first_alarm is None:
                first_alarm = position
            if alarm and decide_action(config, state.consecutive_alarms).name == "TERMINATE":
                first_terminate = first_terminate or position
            if position >= 8:
                break
        assert first_alarm is not None and first_alarm <= 6, f"first alarm at window {first_alarm}"
        assert first_terminate is not None and first_terminate <= 7, f"terminate at window {first_terminate}"

        # and the full pipeline reaches the same decision
        handle = replay_job(os.path.join(corpus42["dir"], entry["file"]), entry["job_id"] + "-acc5")
        result = run_pipeline(handle, bundle, config)
        assert result.terminated


def test_criterion_06_false_positive_smoothing():
    with criterion(6, "k-of-n smoothing: 1e5 noisy windows, k3/n5 rate < 0.01"):
        rng = SplitMix64(606)
        scores = [1.0 if rng.uniform() < 0.1 else 0.0 for _ in range(100000)]
        smoothed = DetectorConfig(k=3, n=5)
        raw = DetectorConfig(k=1, n=1)
        state_s, state_r = DetectorState(), DetectorState()
        alarms_s = alarms_r = 0
        for score in scores:
            state_s, a_s = update(state_s, smoothed, score)
            state_r, a_r = update(state_r, raw, score)
            alarms_s += a_s
            alarms_r += a_r
        rate_s = alarms_s / len(scores)
        rate_r = alarms_r / len(scores)
        print(f"  k3n5={rate_s:.5f} k1n1={rate_r:.5f}")
        assert rate_s < 0.01, f"smoothed alarm rate {rate_s}"
        assert rate_s < rate_r, "smoothing did not reduce the alarm rate"
        assert abs(rate_r - 0.1) < 0.01


def test_criterion_07_auc_oracle_equivalence():
    with criterion(7, "rank-statistic AUC == all-pairs AUC on 100 random sets"):
        rng = SplitMix64(707)
        for trial in range(100):
            n = 2 + rng.randrange(199)
            labels = [rng.randrange(2) for _ in range(n)]
            if sum(labels) in (0, n):
                labels[0] = 1 - labels[0]
            scores = [rng.randrange(25) / 24.0 for _ in range(n)]
            fast = auc_score(scores, labels)
            slow = brute_force_auc(scores, labels)
            assert fast == slow, f"trial {trial}: {fast!r} != {slow!r}"


def test_criterion_08_coordinator_durability(tmp_path):
    with criterion(8, "coordinator: dense seq under concurrency, 20 crash rounds"):
        import threading as _threading

        from warden.coordinator import CoordinatorClient, make_server, read_ledger

        server, service = make_server("127.0.0.1:0", tmp_path / "acc8.log")
        thread = _threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = CoordinatorClient(f"http://127.0.0.1:{server.server_address[1]}")
        node = client.register("acc8-host")
        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(lambda i: client.post_alert(node, alert_body(i)), range(100)))
        seqs = sorted(rec["seq"] for _, rec in results)
        assert seqs == list(range(1, 101)), "ledger seq not dense 1..100"
        # duplicates never create a second entry
        with ThreadPoolExecutor(max_workers=8) as pool:
            dups = list(pool.map(lambda _: client.post_alert(node, alert_body(3)), range(30)))
        assert sum(1 for created, _ in dups if created) == 0
        alert_events = [e for e in read_ledger(tmp_path / "acc8.log") if e["event"] == "alert"]
        assert len(alert_events) == 100
        client.close()
        server.shutdown()
        service.close()

        for round_index in range(20):
            crash_round(tmp_path, round_index)


def test_criterion_09_sandbox_contracts(tmp_path):
    with criterion(9, "terminate idempotency x1000, wallclock kill within 3.5 s"):
        from warden.records import write_trace_file

        trace = gen_trace(profiles_by_name()["batch-compute"], 6.0, "job-acc9", seed=9)
        path = tmp_path / "acc9.trc"
        write_trace_file(path, trace.records)

        phase_rank = {"pending": 0, "running": 1, "completed": 2, "killed": 2}
        rng = SplitMix64(909)
        for trial in range(1000):
            handle = replay_job(str(path), f"acc9-{trial}")
            consumer = threading.Thread(target=lambda: [None for _ in handle.telemetry], daemon=True)
            consumer.start()
            outcomes = []

            def killer(reason):
                outcomes.append(handle.terminate(reason))

            killers = []
            for reason in (KillReason.DETECTOR_ACTION, KillReason.WALLCLOCK_EXCEEDED):
                if rng.uniform() < 0.8:
                    killers.append(threading.Thread(target=killer, args=(reason,)))
            statuses = [handle.status()]
            for t in killers:
                t.start()
            statuses.append(handle.status())
            for t in killers:
                t.join()
            final = handle.wait(5.0)
            statuses.append(final)
            assert final.terminal, f"trial {trial} never reached a terminal state"
            ranks = [phase_rank[s.phase] for s in statuses]
            assert ranks == sorted(ranks), f"trial {trial}: status regressed {statuses}"
            # every terminate call observed the one effective terminal status
            for outcome in outcomes:
                assert outcome == final, f"trial {trial}: terminate returned {outcome}, final {final}"
            assert handle.terminate(KillReason.POLICY_VIOLATION) == final
            assert handle.terminate(KillReason.WALLCLOCK_EXCEEDED) == final

        backend = ProcessBackend(sample_interval_ms=200)
        policy = SandboxPolicy(wallclock_limit_s=1.0)
        start = time.monotonic()
        handle = backend.launch(JobDescriptor(job_id="acc9-sleep", command=("/bin/sleep", "60"), policy=policy))
        consumer = threading.Thread(target=lambda: [None for _ in handle.telemetry], daemon=True)
        consumer.start()
        status = handle.wait(10.0)
        elapsed = time.monotonic() - start
        print(f"  wallclock kill after {elapsed:.2f} s")
        assert status == JobStatus.killed(KillReason.WALLCLOCK_EXCEEDED)
        assert elapsed <= 3.5, f"kill took {elapsed:.2f} s"


def test_criterion_10_artifact_determinism(tmp_path):
    with criterion(10, "gen-dataset / extract / train byte-identical across runs"):
        outputs = {}
        for run in ("a", "b"):
            base = tmp_path / run
            corpus = base / "corpus"
            assert cli_main(["gen-dataset", "--normal", "3", "--malicious", "3",
                             "--duration", "30", "--seed", "11", "--out", str(corpus)]) == 0
            manifest = str(corpus / "manifest.json")
            features = base / "features.csv"
            assert cli_main(["extract", "--manifest", manifest, "--out", str(features)]) == 0
            models = {}
            for kind in ("svm", "mlp", "rnn"):
                out = base / f"{kind}.wmdl"
                args = ["train", "--kind", kind, "--manifest", manifest, "--out", str(out), "--seed", "7"]
                if kind == "rnn":
                    args += ["--epochs", "5"]
                assert cli_main(args) == 0
                models[kind] = out.read_bytes()
            trace_bytes = {
                name: (corpus / name).read_bytes() for name in sorted(os.listdir(corpus))
            }
            outputs[run] = {"traces": trace_bytes, "features": features.read_bytes(), "models": models}
        assert outputs["a"]["traces"] == outputs["b"]["traces"], "gen-dataset not byte-identical"
        assert outputs["a"]["features"] == outputs["b"]["features"], "extract not byte-identical"
        for kind in ("svm", "mlp", "rnn"):
            assert outputs["a"]["models"][kind] == outputs["b"]["models"][kind], f"{kind} model differs"
