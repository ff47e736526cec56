"""Live-process integration: sampled telemetry feeding the detection loop."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import urllib.request

import numpy as np
import pytest

from warden import sandbox
from warden.coordinator import LEDGER_ENV_VAR
from warden.detector import DetectorConfig, ResponseAction, run_pipeline
from warden.features import FeatureConfig, Scaler
from warden.ml import ModelBundle, SvmClassifier
from warden.records import SYS_ROW
from warden.sandbox import (
    JobDescriptor,
    JobStatus,
    KillReason,
    ProcessBackend,
    SandboxPolicy,
    syscall_sampling_supported,
)

needs_proc_syscall = pytest.mark.skipif(
    not syscall_sampling_supported(), reason="/proc/<pid>/syscall not readable on this kernel"
)


def permissive_bundle(config: FeatureConfig, score: float = 0.95) -> ModelBundle:
    """Zero-weight SVM whose bias makes every window score ``score``."""
    svm = SvmClassifier(epochs=0)
    svm.w_ = np.zeros(config.dim)
    svm.b_ = float(np.log(score / (1.0 - score)))
    scaler = Scaler().fit(np.zeros((2, config.dim)))
    return ModelBundle(kind="svm", model=svm, feature_config=config, scaler=scaler, model_id="permissive")


@pytest.fixture()
def fast_syscall_poll(monkeypatch):
    monkeypatch.setattr(sandbox, "SYSCALL_POLL_S", 0.03)


@needs_proc_syscall
def test_live_job_emits_sampled_syscalls_and_resources(fast_syscall_poll):
    backend = ProcessBackend(sample_interval_ms=300)
    handle = backend.launch(
        JobDescriptor(job_id="live-telemetry", command=("/bin/sleep", "2"))
    )
    chunks = list(handle.telemetry)
    handle.wait(10.0)
    kinds = np.concatenate([c.kind for c in chunks])
    syscalls = np.concatenate([c.enter for c in chunks])[kinds == SYS_ROW]
    samples = [s for c in chunks for s in c.samples]
    assert len(syscalls), "no sampled syscall events from a sleeping job"
    assert samples, "no resource samples"
    assert syscalls.all()  # every sampled event is an enter event
    times = [t for c in chunks for t in c.t_ns.tolist()]
    assert times == sorted(times)


@needs_proc_syscall
def test_live_detection_alerts_and_kills(fast_syscall_poll):
    config = FeatureConfig(window_s=1.0, hop_s=1.0)
    bundle = permissive_bundle(config)
    backend = ProcessBackend(sample_interval_ms=300)
    handle = backend.launch(
        JobDescriptor(
            job_id="live-detect",
            command=("/bin/sleep", "30"),
            policy=SandboxPolicy(wallclock_limit_s=20.0),
        )
    )
    result = run_pipeline(handle, bundle, DetectorConfig(k=1, n=1))
    status = handle.wait(10.0)
    assert result.alerts, "permissive model produced no alerts on a live job"
    assert result.terminated
    assert status == JobStatus.killed(KillReason.DETECTOR_ACTION)
    assert result.alerts[0].action_taken == ResponseAction.RAISE_ALERT
    assert any(a.action_taken == ResponseAction.TERMINATE for a in result.alerts)


def test_serve_cli_honors_ledger_env_var(tmp_path):
    ledger = tmp_path / "env-ledger.log"
    env = dict(os.environ)
    env[LEDGER_ENV_VAR] = str(ledger)
    proc = subprocess.Popen(
        [sys.executable, "-m", "warden.cli", "serve", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    try:
        line = proc.stdout.readline().decode()
        assert "coordinator listening on" in line
        port = int(line.rsplit(":", 1)[1].split(",")[0])
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/v1/health", timeout=5) as resp:
            body = json.loads(resp.read())
        assert body == {"status": "ok", "ledger_seq": 0}
        payload = json.dumps({"hostname": "env-host"}).encode()
        req = urllib.request.Request(f"http://127.0.0.1:{port}/v1/nodes", data=payload, method="POST")
        with urllib.request.urlopen(req, timeout=5) as resp:
            assert resp.status == 201
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    assert ledger.exists()
