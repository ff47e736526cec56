"""CLI behavior: exit codes, determinism, formats, end-to-end flows."""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np
import pytest

from warden.cli import main, parse_policy_spec
from warden.detector import ResponseAction


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny corpus plus trained svm/mlp models, built once through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    assert run_cli("gen-dataset", "--normal", "4", "--malicious", "4",
                   "--duration", "40", "--seed", "5", "--out", str(corpus)) == 0
    manifest = str(corpus / "manifest.json")
    svm = str(root / "svm.wmdl")
    mlp = str(root / "mlp.wmdl")
    assert run_cli("train", "--kind", "svm", "--manifest", manifest, "--out", svm, "--seed", "1") == 0
    assert run_cli("train", "--kind", "mlp", "--manifest", manifest, "--out", mlp, "--seed", "1") == 0
    with open(manifest) as fh:
        entries = json.load(fh)["entries"]
    return {
        "root": root,
        "corpus": corpus,
        "manifest": manifest,
        "svm": svm,
        "mlp": mlp,
        "entries": entries,
    }


def trace_path(workspace, predicate):
    entry = next(e for e in workspace["entries"] if predicate(e))
    return str(workspace["corpus"] / entry["file"])


# --- gen-dataset / extract ------------------------------------------------------

def test_gen_dataset_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("gen-dataset", "--normal", "2", "--malicious", "2",
                       "--duration", "10", "--seed", "3", "--out", str(out)) == 0
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_dataset_bad_mix_weight_exits_2(tmp_path, capsys):
    code = run_cli("gen-dataset", "--normal", "1", "--malicious", "1", "--duration", "5",
                   "--out", str(tmp_path / "c"), "--mix", "batch-compute=abc")
    err = capsys.readouterr().err
    assert code == 2
    assert "gen-dataset: could not convert string to float: 'abc'" in err.splitlines()
    assert "Traceback" not in err


def test_extract_row_count_matches_window_recount(workspace, tmp_path):
    out = tmp_path / "features.csv"
    assert run_cli("extract", "--manifest", workspace["manifest"], "--out", str(out)) == 0
    rows = out.read_text().strip().split("\n")
    header, data = rows[0], rows[1:]
    assert header.startswith("f0,") and header.endswith("job_id,window_index,label")
    # oracle: recount windows with an independent pass over the traces
    from warden.features import FeatureConfig, make_windows
    from warden.records import load_labeled_trace

    entries = workspace["entries"]
    traces = [load_labeled_trace(workspace["corpus"] / e["file"], e["job_id"], e["label"]) for e in entries]
    expected = sum(len(make_windows(t, FeatureConfig())) for t in traces)
    assert len(data) == expected


def test_extract_deterministic(workspace, tmp_path):
    out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
    run_cli("extract", "--manifest", workspace["manifest"], "--out", str(out1))
    run_cli("extract", "--manifest", workspace["manifest"], "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_extract_empty_manifest(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"seed":0,"duration_s":1.0,"entries":[]}')
    out = tmp_path / "empty.csv"
    assert run_cli("extract", "--manifest", str(manifest), "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("f0,")


def test_extract_corrupt_trace_exits_2(workspace, tmp_path, capsys):
    corrupt_dir = tmp_path / "corrupt"
    corrupt_dir.mkdir()
    src = trace_path(workspace, lambda e: True)
    with open(src) as fh:
        lines = fh.read().splitlines()
    lines[4] = '{"kind":"sys","broken":true}'
    (corrupt_dir / "bad.trc").write_text("\n".join(lines) + "\n")
    manifest = corrupt_dir / "manifest.json"
    manifest.write_text(json.dumps({
        "seed": 0, "duration_s": 40.0,
        "entries": [{"file": "bad.trc", "job_id": workspace["entries"][0]["job_id"],
                     "label": "normal", "profile": "x", "seed": 1}],
    }))
    code = run_cli("extract", "--manifest", str(manifest), "--out", str(corrupt_dir / "o.csv"))
    captured = capsys.readouterr()
    assert code == 2
    assert "bad.trc" in captured.err and ":5" in captured.err


@pytest.mark.parametrize("field, value, message", [
    ("label", "benign", "label must be one of"),
    ("label", "Malicious", "label must be one of"),
    ("job_id", 7, "job_id must be a non-empty string"),
])
@pytest.mark.parametrize("command, output", [
    (("extract",), "--out"),
    (("train", "--kind", "svm"), "--out"),
    (("train", "--kind", "rnn"), "--out"),
    (("eval", "--model", "MODEL"), "--metrics-out"),
])
def test_bad_manifest_entry_exits_2(workspace, tmp_path, capsys, command, output, field, value, message):
    entries = [dict(e, file=str(workspace["corpus"] / e["file"])) for e in workspace["entries"]]
    entries[-1][field] = value
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"seed": 0, "duration_s": 40.0, "entries": entries}))
    argv = [workspace["svm"] if arg == "MODEL" else arg for arg in command]
    out = tmp_path / "out"
    assert run_cli(*argv, "--manifest", str(manifest), output, str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# --- train / eval ------------------------------------------------------------------

def test_train_deterministic_artifacts(workspace, tmp_path):
    m1, m2 = tmp_path / "m1.wmdl", tmp_path / "m2.wmdl"
    for out in (m1, m2):
        assert run_cli("train", "--kind", "svm", "--manifest", workspace["manifest"],
                       "--out", str(out), "--seed", "1") == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_train_rnn_rejects_feature_csv(workspace, tmp_path):
    features = tmp_path / "f.csv"
    run_cli("extract", "--manifest", workspace["manifest"], "--out", str(features))
    code = run_cli("train", "--kind", "rnn", "--features", str(features), "--out", str(tmp_path / "x.wmdl"))
    assert code == 2


def test_train_from_feature_csv(workspace, tmp_path):
    features = tmp_path / "f.csv"
    run_cli("extract", "--manifest", workspace["manifest"], "--out", str(features))
    out = tmp_path / "svm-csv.wmdl"
    assert run_cli("train", "--kind", "svm", "--features", str(features), "--out", str(out), "--seed", "2") == 0
    assert out.exists()


@pytest.mark.parametrize("label", ["malicous", "MALICIOUS", ""])
def test_feature_csv_label_outside_normal_and_malicious_exits_2(workspace, tmp_path, capsys, label):
    features = tmp_path / "f.csv"
    run_cli("extract", "--manifest", workspace["manifest"], "--out", str(features))
    lines = features.read_text().split("\n")
    lines[3] = lines[3].rsplit(",", 1)[0] + "," + label  # the third data row, line 4 of the file
    features.write_text("\n".join(lines))
    out = tmp_path / "svm.wmdl"
    expected = f"{features}:4: label {label!r} is not one of ('normal', 'malicious')"
    assert run_cli("train", "--kind", "svm", "--features", str(features), "--out", str(out)) == 2
    assert f"train: {expected}" in capsys.readouterr().err.splitlines()
    assert not out.exists()
    assert run_cli("eval", "--model", workspace["svm"], "--features", str(features)) == 2
    assert f"eval: {expected}" in capsys.readouterr().err.splitlines()


def test_train_single_class_exits_3(tmp_path):
    corpus = tmp_path / "single"
    assert run_cli("gen-dataset", "--normal", "2", "--malicious", "0",
                   "--duration", "15", "--seed", "4", "--out", str(corpus)) == 0
    code = run_cli("train", "--kind", "svm", "--manifest", str(corpus / "manifest.json"),
                   "--out", str(tmp_path / "m.wmdl"))
    assert code == 3


def test_train_feature_csv_of_another_width_exits_4(workspace, tmp_path, capsys):
    features = tmp_path / "f64.csv"
    assert run_cli("extract", "--manifest", workspace["manifest"], "--out", str(features), "--hash-dim", "64") == 0
    out = tmp_path / "svm.wmdl"
    code = run_cli("train", "--kind", "svm", "--features", str(features), "--out", str(out))
    err = capsys.readouterr().err
    assert code == 4
    assert "train: feature CSV dimension 76 != model dimension 268" in err.splitlines()
    assert not out.exists()


def test_eval_without_a_corpus_exits_2(workspace, capsys):
    code = run_cli("eval", "--model", workspace["svm"])
    err = capsys.readouterr().err
    assert code == 2
    assert "eval: provide --manifest or --features" in err.splitlines()


def test_eval_writes_metrics_and_roc(workspace, tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    roc = tmp_path / "roc.csv"
    assert run_cli("eval", "--model", workspace["mlp"], "--manifest", workspace["manifest"],
                   "--metrics-out", str(metrics), "--roc-out", str(roc)) == 0
    lines = metrics.read_text().strip().split("\n")
    assert lines[0] == "model,accuracy,precision,recall,f1,fpr,auc"
    assert lines[1].startswith("mlp,") and lines[2].startswith("mlp-trace,")
    roc_lines = roc.read_text().strip().split("\n")
    assert roc_lines[0] == "threshold,fpr,tpr"
    assert len(roc_lines) > 2


def test_eval_single_class_auc_blank(workspace, tmp_path):
    corpus = tmp_path / "norm-only"
    run_cli("gen-dataset", "--normal", "3", "--malicious", "0", "--duration", "30",
            "--seed", "6", "--out", str(corpus))
    metrics = tmp_path / "m.csv"
    assert run_cli("eval", "--model", workspace["mlp"], "--manifest", str(corpus / "manifest.json"),
                   "--metrics-out", str(metrics)) == 0
    row = metrics.read_text().strip().split("\n")[1]
    assert row.endswith(",")  # auc column empty


def test_eval_shuffled_input_same_metrics(workspace, tmp_path):
    features = tmp_path / "f.csv"
    run_cli("extract", "--manifest", workspace["manifest"], "--out", str(features))
    lines = features.read_text().strip().split("\n")
    import random

    body = lines[1:]
    random.Random(5).shuffle(body)
    shuffled = tmp_path / "f-shuffled.csv"
    shuffled.write_text("\n".join([lines[0]] + body) + "\n")
    m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    assert run_cli("eval", "--model", workspace["svm"], "--features", str(features), "--metrics-out", str(m1)) == 0
    assert run_cli("eval", "--model", workspace["svm"], "--features", str(shuffled), "--metrics-out", str(m2)) == 0
    assert m1.read_text() == m2.read_text()


def test_eval_fingerprint_mismatch_exits_4(workspace, tmp_path):
    features = tmp_path / "f.csv"
    run_cli("extract", "--manifest", workspace["manifest"], "--out", str(features),
            "--hash-dim", "64")
    code = run_cli("eval", "--model", workspace["svm"], "--features", str(features))
    assert code == 4


def test_model_version_bump_exits_4(workspace, tmp_path):
    import struct

    with open(workspace["svm"], "rb") as fh:
        blob = bytearray(fh.read())
    blob[4:6] = struct.pack("<H", 9)
    bad = tmp_path / "bad.wmdl"
    bad.write_bytes(bytes(blob))
    assert run_cli("eval", "--model", str(bad), "--manifest", workspace["manifest"]) == 4


# --- gradcheck ----------------------------------------------------------------------

def test_gradcheck_command(capsys):
    assert run_cli("gradcheck", "--seeds", "3") == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 3


# --- detect -------------------------------------------------------------------------

def test_detect_normal_exits_0(workspace, capsys):
    path = trace_path(workspace, lambda e: e["label"] == "normal")
    assert run_cli("detect", path, "--model", workspace["mlp"]) == 0
    assert capsys.readouterr().out == ""


def test_detect_miner_exits_10_with_alert_lines(workspace, capsys):
    path = trace_path(workspace, lambda e: e["profile"] == "cryptominer")
    code = run_cli("detect", path, "--model", workspace["mlp"])
    out = capsys.readouterr().out.strip().split("\n")
    assert code == 10
    assert all(line.startswith("{") for line in out)
    parsed = [json.loads(line) for line in out]
    assert any(p["action"] == "terminate" for p in parsed)


def test_detect_multiple_traces_grouped_output(workspace, capsys):
    normal = trace_path(workspace, lambda e: e["label"] == "normal")
    miner = trace_path(workspace, lambda e: e["profile"] == "cryptominer")
    code = run_cli("detect", miner, normal, "--model", workspace["mlp"])
    assert code == 10
    out = [json.loads(l) for l in capsys.readouterr().out.strip().split("\n") if l]
    jobs = [p["job_id"] for p in out]
    assert jobs == sorted(jobs, key=jobs.index)  # grouped per trace, input order


def test_detect_output_ends_at_the_terminate_alert(workspace, capsys):
    miner = trace_path(workspace, lambda e: e["profile"] == "cryptominer")
    outputs = set()
    for _ in range(20):
        assert run_cli("detect", miner, "--model", workspace["mlp"], "--policy", "alert:1,terminate:2") == 10
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1
    actions = [json.loads(line)["action"] for line in outputs.pop().strip().split("\n")]
    assert actions[-1] == "terminate" and actions.count("terminate") == 1


def test_detect_spool_is_written_in_argument_order(workspace, tmp_path, capsys):
    traces = [str(workspace["corpus"] / e["file"]) for e in workspace["entries"]][:6]
    singles = []
    for i, path in enumerate(traces):
        spool = tmp_path / f"single-{i}.alog"
        run_cli("detect", path, "--model", workspace["mlp"], "--spool", str(spool))
        singles.append(spool.read_bytes() if spool.exists() else b"")
    expected = b"".join(singles)
    assert sum(1 for single in singles if single) >= 2  # the order between traces is tested
    for run in range(5):
        spool = tmp_path / f"all-{run}.alog"
        assert run_cli("detect", *traces, "--model", workspace["mlp"], "--spool", str(spool)) == 10
        assert spool.read_bytes() == expected
    capsys.readouterr()


def test_detect_runs_at_most_detect_workers_pipelines_at_once(workspace, monkeypatch, capsys):
    from warden import cli

    lock = threading.Lock()
    in_flight = [0, 0]  # now, most seen
    real = cli.run_pipeline

    def counted(*args, **kwargs):
        with lock:
            in_flight[0] += 1
            in_flight[1] = max(in_flight)
        try:
            time.sleep(0.05)  # give the other workers time to start
            return real(*args, **kwargs)
        finally:
            with lock:
                in_flight[0] -= 1

    monkeypatch.setattr(cli, "DETECT_WORKERS", 2, raising=False)  # the pool reads it at call time
    monkeypatch.setattr(cli, "run_pipeline", counted)
    traces = [str(workspace["corpus"] / e["file"]) for e in workspace["entries"]][:6]
    assert run_cli("detect", *traces, "--model", workspace["mlp"]) == 10
    capsys.readouterr()
    assert in_flight == [0, 2]


def test_detect_reports_each_unreadable_trace_on_one_line(workspace, tmp_path, capsys):
    good = trace_path(workspace, lambda e: e["profile"] == "cryptominer")
    bad = tmp_path / "bad.trc"
    with open(good) as src:
        lines = src.readlines()[:3]
    bad.write_text("".join(lines) + "not json\n")
    nope = tmp_path / "nope.trc"
    run_cli("detect", good, "--model", workspace["mlp"])
    good_out = capsys.readouterr().out
    assert good_out
    code = run_cli("detect", good, str(bad), str(nope), "--model", workspace["mlp"])
    out, err = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in err
    problems = [line for line in err.splitlines() if not line.startswith("warden ")]
    assert len(problems) == 2
    assert problems[0].startswith(f"detect: malformed input: {bad}:4: ")
    assert problems[1] == f"detect: no trace at {nope}"
    assert out == good_out


def test_detect_reports_bytes_that_are_not_utf8_with_path_and_line(workspace, tmp_path, capsys):
    binary = tmp_path / "bin.trc"
    binary.write_bytes(b"\xff\xfe" + "binary\n".encode("utf-16-le"))
    code = run_cli("detect", str(binary), "--model", workspace["mlp"])
    out, err = capsys.readouterr()
    assert code == 2
    assert f"detect: malformed input: {binary}:1: invalid UTF-8: invalid start byte" in err.splitlines()
    assert out == ""


def test_extract_reports_bytes_that_are_not_utf8_with_path_and_line(workspace, tmp_path, capsys):
    good = trace_path(workspace, lambda e: e["label"] == "normal")
    binary = tmp_path / "bin.trc"
    with open(good, "rb") as src:
        binary.write_bytes(b"".join(src.readlines()[:5]) + b"\xff\xfe\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": [{"job_id": "bin", "label": "normal", "file": "bin.trc"}]}))
    code = run_cli("extract", "--manifest", str(manifest), "--out", str(tmp_path / "features.csv"))
    _, err = capsys.readouterr()
    assert code == 2
    assert f"extract: malformed input: {binary}:6: invalid UTF-8: invalid start byte" in err.splitlines()


def test_detect_rnn_model_rejected(workspace, tmp_path):
    rnn_path = tmp_path / "rnn.wmdl"
    assert run_cli("train", "--kind", "rnn", "--manifest", workspace["manifest"],
                   "--out", str(rnn_path), "--seed", "1", "--epochs", "1") == 0
    path = trace_path(workspace, lambda e: True)
    assert run_cli("detect", path, "--model", str(rnn_path)) == 2


def scaler_mismatched_model(path):
    """An svm bundle whose scaler is 76 wide while its feature config says 268."""
    from warden.features import FeatureConfig, Scaler
    from warden.ml import ModelBundle, SvmClassifier, save_model

    X = np.vstack([np.zeros(76), np.ones(76)])
    scaler = Scaler().fit(X)
    model = SvmClassifier(epochs=1).fit(scaler.transform(X), np.array([0, 1]))
    save_model(ModelBundle(kind="svm", model=model, feature_config=FeatureConfig(), scaler=scaler), path)
    return str(path)


def test_detect_model_whose_scaler_is_not_its_config_width_exits_4(workspace, tmp_path, capsys):
    model = scaler_mismatched_model(tmp_path / "bad.wmdl")
    code = run_cli("detect", trace_path(workspace, lambda e: True), "--model", model)
    err = capsys.readouterr().err
    assert code == 4
    assert f"detect: {model}: scaler dimension 76 != feature config dimension 268" in err.splitlines()


def test_detect_unreachable_coordinator_spools(workspace, tmp_path, capsys):
    miner = trace_path(workspace, lambda e: e["profile"] == "cryptominer")
    spool = tmp_path / "spool.alog"
    code = run_cli("detect", miner, "--model", workspace["mlp"],
                   "--coordinator", "http://127.0.0.1:1", "--spool", str(spool))
    capsys.readouterr()
    assert code == 10  # exit still reflects detection outcome
    assert spool.exists() and spool.read_text().strip()


def test_detect_delivers_and_spool_flushes_with_dedup(workspace, tmp_path, capsys):
    from warden.coordinator import make_server

    miner = trace_path(workspace, lambda e: e["profile"] == "cryptominer")
    spool = tmp_path / "spool.alog"
    # first run: coordinator down, alerts spool
    assert run_cli("detect", miner, "--model", workspace["mlp"],
                   "--coordinator", "http://127.0.0.1:1", "--spool", str(spool),
                   "--hostname", "cli-node") == 10
    spooled = len(spool.read_text().strip().split("\n"))
    server, service = make_server("127.0.0.1:0", tmp_path / "ledger.log")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        # second run: spool flushes first, then live alerts; duplicates are deduped
        assert run_cli("detect", miner, "--model", workspace["mlp"],
                       "--coordinator", url, "--spool", str(spool),
                       "--hostname", "cli-node") == 10
        capsys.readouterr()
        alerts = service.list_alerts(limit=1000)[1]["alerts"]
        ids = [a["alert_id"] for a in alerts]
        assert len(ids) == len(set(ids))
        assert len(ids) == spooled  # same trace replayed: every live alert deduped to one copy
        assert not spool.exists() or not spool.read_text().strip()
    finally:
        server.shutdown()
        server.server_close()
        service.close()


@pytest.fixture()
def coordinator_url(tmp_path):
    from warden.coordinator import make_server

    server, service = make_server("127.0.0.1:0", tmp_path / "ledger.log")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    service.close()


def test_detect_rejected_registration_exits_2(workspace, tmp_path, coordinator_url, capsys):
    miner = trace_path(workspace, lambda e: e["profile"] == "cryptominer")
    spool = tmp_path / "spool.alog"
    code = run_cli("detect", miner, "--model", workspace["mlp"],
                   "--coordinator", coordinator_url, "--spool", str(spool), "--hostname", "")
    out, err = capsys.readouterr()
    assert code == 2
    assert "detect: coordinator rejected: 400" in err
    assert out == "" and not spool.exists()  # a rejection is not an outage: nothing spools


# --- run ----------------------------------------------------------------------------

def write_job(tmp_path, name, command, policy=None):
    path = tmp_path / f"{name}.json"
    spec = {"job_id": name, "command": command}
    if policy:
        spec["policy"] = policy
    path.write_text(json.dumps(spec))
    return str(path)


def test_run_true_exits_0(workspace, tmp_path, capsys):
    job = write_job(tmp_path, "true-job", ["/bin/true"])
    assert run_cli("run", "--job", job, "--model", workspace["mlp"]) == 0
    capsys.readouterr()


def test_run_exit_code_passthrough(workspace, tmp_path, capsys):
    job = write_job(tmp_path, "exit7", ["/bin/sh", "-c", "exit 7"])
    assert run_cli("run", "--job", job, "--model", workspace["mlp"]) == 7
    capsys.readouterr()


def test_run_wallclock_kill_exits_13(workspace, tmp_path, capsys):
    job = write_job(tmp_path, "sleepy", ["/bin/sleep", "60"], policy={"wallclock_limit_s": 1.0})
    assert run_cli("run", "--job", job, "--model", workspace["mlp"]) == 13
    capsys.readouterr()


def test_run_spawn_failure_exits_5(workspace, tmp_path):
    job = write_job(tmp_path, "ghost", ["/no/such/bin"])
    assert run_cli("run", "--job", job, "--model", workspace["mlp"]) == 5


def test_run_rejected_registration_starts_no_process(workspace, tmp_path, coordinator_url, capsys):
    marker = tmp_path / "started"
    job = write_job(tmp_path, "marker", ["/bin/sh", "-c", f"touch {marker}"])
    code = run_cli("run", "--job", job, "--model", workspace["mlp"],
                   "--coordinator", coordinator_url, "--hostname", "")
    _, err = capsys.readouterr()
    assert code == 2
    assert "run: coordinator rejected: 400" in err
    assert not marker.exists()


def test_run_bad_detector_flag_exits_2(workspace, tmp_path, capsys):
    marker = tmp_path / "started"
    job = write_job(tmp_path, "marker", ["/bin/sh", "-c", f"touch {marker}"])
    code = run_cli("run", "--job", job, "--model", workspace["mlp"], "--tau", "2")
    _, err = capsys.readouterr()
    assert code == 2
    assert "run: tau must be in (0, 1)" in err
    assert "Traceback" not in err
    assert not marker.exists()


def test_run_job_without_job_id_names_the_field(workspace, tmp_path, capsys):
    marker = tmp_path / "started"
    job = tmp_path / "anonymous.json"
    job.write_text(json.dumps({"command": ["/bin/sh", "-c", f"touch {marker}"]}))
    code = run_cli("run", "--job", str(job), "--model", workspace["mlp"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "run: the job file has no job_id field\n"
    assert not marker.exists()


def test_run_model_whose_scaler_is_not_its_config_width_exits_4(workspace, tmp_path, capsys):
    marker = tmp_path / "started"
    job = write_job(tmp_path, "marker", ["/bin/sh", "-c", f"touch {marker}"])
    code = run_cli("run", "--job", job, "--model", scaler_mismatched_model(tmp_path / "bad.wmdl"))
    err = capsys.readouterr().err
    assert code == 4
    assert "scaler dimension 76 != feature config dimension 268" in err
    assert not marker.exists()


@pytest.mark.parametrize(
    "policy",
    [{"max_pids": "x"}, {"cpu_limit_pct": None}, {"mem_limit_bytes": 1.5}, {"wallclock_limit_s": True}],
    ids=["max_pids", "cpu_limit_pct", "mem_limit_bytes", "wallclock_limit_s"],
)
def test_run_policy_field_of_the_wrong_type_exits_2(workspace, tmp_path, capsys, policy):
    marker = tmp_path / "started"
    job = write_job(tmp_path, "typed", ["/bin/sh", "-c", f"touch {marker}"], policy=policy)
    code = run_cli("run", "--job", job, "--model", workspace["mlp"])
    _, err = capsys.readouterr()
    assert code == 2
    (field,) = policy
    assert err.startswith("run: invalid policy: ") and field in err
    assert "Traceback" not in err
    assert not marker.exists()


@pytest.mark.parametrize(
    "field, value",
    [("command", 5), ("policy", {"fs_hidden_paths": 5}), ("policy", 5), ("env", 5), ("command", ["/bin/true", 5])],
    ids=["command", "fs_hidden_paths", "policy", "env", "command-item"],
)
def test_run_job_field_of_the_wrong_type_exits_2(workspace, tmp_path, capsys, field, value):
    marker = tmp_path / "started"
    spec = {"job_id": "typed", "command": ["/bin/sh", "-c", f"touch {marker}"], field: value}
    job = tmp_path / "typed.json"
    job.write_text(json.dumps(spec))
    code = run_cli("run", "--job", str(job), "--model", workspace["mlp"])
    _, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("run: ") and "must be a JSON" in err
    assert "Traceback" not in err
    assert not marker.exists()


def test_policy_from_dict_keeps_defaults_for_absent_fields():
    from warden.cli import _policy_from_dict
    from warden.sandbox import SandboxPolicy

    policy = _policy_from_dict({"max_pids": 8, "fs_hidden_paths": ["/secret"], "unknown": 1})
    assert policy == SandboxPolicy(max_pids=8, fs_hidden_paths=("/secret",))
    assert _policy_from_dict({}) == SandboxPolicy()


# --- report -------------------------------------------------------------------------

def test_report_metrics_passthrough(workspace, tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    run_cli("eval", "--model", workspace["mlp"], "--manifest", workspace["manifest"],
            "--metrics-out", str(metrics))
    capsys.readouterr()
    assert run_cli("report", "--metrics", str(metrics)) == 0
    out = capsys.readouterr().out
    source_rows = metrics.read_text().strip().split("\n")[1:]
    for row in source_rows:
        for value in row.split(","):
            if value:
                assert value in out  # table numbers equal the source verbatim


def test_report_empty_alert_log(tmp_path, capsys):
    empty = tmp_path / "empty.alog"
    empty.write_text("")
    assert run_cli("report", "--alerts", str(empty)) == 0
    assert "0 alerts" in capsys.readouterr().out


def test_report_alert_summaries_sorted(workspace, tmp_path, capsys):
    miner = trace_path(workspace, lambda e: e["profile"] == "cryptominer")
    spool = tmp_path / "alerts.alog"
    run_cli("detect", miner, "--model", workspace["mlp"], "--spool", str(spool),
            "--coordinator", "http://127.0.0.1:1")
    capsys.readouterr()
    assert run_cli("report", "--alerts", str(spool)) == 0
    out = capsys.readouterr().out
    assert "alert(s)" in out and "max action terminate" in out


def test_report_malformed_metrics_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,metrics,file\n")
    assert run_cli("report", "--metrics", str(bad)) == 2


# --- misc ----------------------------------------------------------------------------

def test_unknown_flag_rejected(workspace):
    assert run_cli("extract", "--manifest", workspace["manifest"], "--out", "/tmp/x.csv",
                   "--bogus-flag", "1") == 2


def test_policy_spec_parser():
    rules = parse_policy_spec("alert:1,terminate:3")
    assert rules == ((1, ResponseAction.RAISE_ALERT), (3, ResponseAction.TERMINATE))
    with pytest.raises(ValueError):
        parse_policy_spec("noop:1")
    with pytest.raises(ValueError):
        parse_policy_spec("")


def test_detect_honors_policy_flag(workspace, capsys):
    miner = trace_path(workspace, lambda e: e["profile"] == "cryptominer")
    # alert-only ladder: no terminate, exit 0
    code = run_cli("detect", miner, "--model", workspace["mlp"], "--policy", "alert:1")
    out = capsys.readouterr().out
    assert code == 0
    assert out and all(json.loads(l)["action"] == "raise_alert" for l in out.strip().split("\n"))


def test_config_file_overrides(workspace, tmp_path, capsys):
    config = tmp_path / "warden.conf"
    config.write_text("tau=0.9\nk=5\nn=8\n")
    miner = trace_path(workspace, lambda e: e["profile"] == "cryptominer")
    code = run_cli("detect", miner, "--model", workspace["mlp"], "--config", str(config))
    out = capsys.readouterr().out.strip()
    if out:
        assert all(json.loads(l)["rule"] == "k-of-n:5/8" for l in out.split("\n"))


def test_banner_on_stderr(workspace, capsys):
    run_cli("gradcheck", "--seeds", "1")
    err = capsys.readouterr().err
    assert err.startswith("warden 0.1.0 seed=0 config=")
