"""Smoke test: every workload at a tiny size, with all of its checks, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.import_warden()

import ingest  # noqa: E402
import offline  # noqa: E402
import online  # noqa: E402
import tracing  # noqa: E402
from checks import RawTrace, all_pairs_auc, k_of_n_alarms, require  # noqa: E402
from warden.coordinator import CorruptLedger  # noqa: E402

TINY = [
    (offline.OfflineTrain, offline.TINY),
    (online.OnlineDetect, online.TINY),
    (ingest.CoordinatorIngest, ingest.TINY),
]


def _execute(cls, sizes, workdir, tracer):
    workload = cls(str(workdir), 3, sizes)
    try:
        return workload, run.execute(workload, 0.0, tracer)
    finally:
        workload.close()


@pytest.mark.parametrize("cls, sizes", TINY, ids=[c.name for c, _ in TINY])
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, cls, sizes):
    targets = {(o, a): getattr(tracing._resolve(o), a) for o, a, _, _ in tracing.TARGETS}
    # a second set-up is timed on a spare copy, which is removed afterwards
    workload, out = _execute(cls, dataclasses.replace(sizes, setups=2), tmp_path, None)
    assert not (tmp_path / "spare").exists()
    metrics = run.report(run.load_spec(), False, out["metrics"])
    assert all(m["value"] > 0 for m in metrics.values()), metrics
    assert out["attempted"] >= 1
    # one round at zero seconds; the torn-tail restart is the only operation that fails
    assert out["failed"] == (1 if cls is ingest.CoordinatorIngest else 0)
    assert {(o, a): getattr(tracing._resolve(o), a) for o, a in targets} == targets


@pytest.mark.parametrize("cls, sizes", TINY, ids=[c.name for c, _ in TINY])
def test_traced_run_reports_per_layer_metrics(tmp_path, cls, sizes):
    tracer = tracing.Tracer()
    _, out = _execute(cls, sizes, tmp_path, tracer)
    metrics = run.report(run.load_spec(), True, out["metrics"])
    assert "trace.overhead_pct" in out["metrics"]
    assert metrics["trace.missing_wrappers"]["value"] == 0
    assert tracer.spans and not tracer._undo


def test_missing_target_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("warden.detector", "no_such_function", "x", None),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["warden.detector.no_such_function"]


class _BreaksInSecondRound:
    """Two operations a round; the second round fails its check, or raises as warden would."""

    sizes = offline.Sizes(setups=1, min_rounds=5)

    def __init__(self, error=None):
        self.error = error

    def setup(self):
        pass

    def prepare(self):
        pass

    def round(self, index):
        if index == 1 and self.error is not None:
            raise self.error
        return index

    def ops(self, result):
        return 2, 0

    def check(self, index, result):
        require(index < 1, "round 1 is wrong")


@pytest.mark.parametrize("error", [None, CorruptLedger("line 3: bad crc")], ids=["check", "warden-error"])
def test_stopped_run_counts_the_round_under_way_as_failed(error):
    correct, message, out = run.attempt(_BreaksInSecondRound(error), 0.0, None)
    assert not correct and out["metrics"] == {}
    assert (out["attempted"], out["failed"]) == (3, 1)
    assert ("round 1 is wrong" if error is None else "CorruptLedger") in message


def test_reference_computations():
    assert all_pairs_auc([0.9, 0.5, 0.5, 0.1], [1, 1, 0, 0]) == 0.875
    assert k_of_n_alarms([0.9, 0.1, 0.8, 0.7, 0.2], 0.5, 3, 5) == [False, False, False, True, True]


def test_raw_window_count(tmp_path):
    lines = [
        '{"kind":"sys","t_ns":0,"job_id":"j","pid":1,"tid":1,"name":"read","dir":"enter","args":""}',
        '{"kind":"res","t_ns":6000000000,"job_id":"j"}',
        '{"kind":"sys","t_ns":16000000000,"job_id":"j","pid":1,"tid":1,"name":"read","dir":"exit","args":"","ret":0}',
    ]
    path = tmp_path / "t.trc"
    path.write_text("\n".join(lines) + "\n")
    raw = RawTrace(path)
    # windows of 10 s every 5 s from t0 = 0: [0,10) and [10,20) and [15,25) hold a syscall, [5,15) does not
    assert [k for k, _, _ in raw.windows(10.0, 5.0)] == [0, 2, 3]
    assert (raw.records, raw.enters) == (3, 1)
