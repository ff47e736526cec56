"""online-detect: replayed traces through the node agent's streaming pipeline, one at a time."""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from warden import detector, features, records, sandbox
from warden.detector import DetectorConfig, ResponseAction
from warden.ml import MlpClassifier, ModelBundle
from warden.ml import data as mdata

from checks import RawTrace, k_of_n_alarms, require
from common import gen_corpus, manifest_traces, median, percentile, rate

DETECTOR = DetectorConfig(tau=0.5, k=3, n=5, action_policy=((1, ResponseAction.RAISE_ALERT),), model_id="perfbench-mlp")
WAIT_S = 30.0


@dataclass(frozen=True)
class Sizes:
    duration_s: float = 120.0
    per_profile: int = 1  # in the training corpus and in the replay set
    setups: int = 5
    min_rounds: int = 3  # 88 alerts a round
    min_alerts: int = 200  # so that ten or more lie beyond p95


TINY = Sizes(duration_s=30.0, setups=1, min_rounds=1, min_alerts=1)


class StampedHandle:
    """Hands the job's records to ``run_pipeline`` and notes when each one is handed off.

    The latest hand-off time is that of the record that closed the window
    being scored, or of the end of the stream for windows closed at the end.
    """

    def __init__(self, handle):
        self._handle = handle
        self.job_id = handle.job_id
        self.last_handoff_ns = 0

    @property
    def telemetry(self):
        for record in self._handle.telemetry:
            self.last_handoff_ns = time.perf_counter_ns()
            yield record
        self.last_handoff_ns = time.perf_counter_ns()

    def terminate(self, reason):
        return self._handle.terminate(reason)


class Sink:
    """In-process alert receiver passed to ``run_pipeline`` as its client."""

    def __init__(self):
        self.handle: StampedHandle | None = None
        self.latencies_ms: list[float] = []  # of the current round

    def post_alert(self, node_id, alert):
        self.latencies_ms.append((time.perf_counter_ns() - self.handle.last_handoff_ns) / 1e6)
        return True, {}


@dataclass
class Replay:
    job_id: str
    status: str
    windows_scored: int
    alerts: list  # (window_index, t_ns) per alert
    seconds: float


@dataclass
class RoundResult:
    replays: list[Replay]
    latencies_ms: list[float]

    @property
    def busy_s(self) -> float:
        """Launch plus run_pipeline, summed over the round's traces."""
        return sum(r.seconds for r in self.replays)


class OnlineDetect:
    name = "online-detect"

    def __init__(self, workdir, seed: int, sizes: Sizes = Sizes()):
        self.workdir = workdir
        self.seed = seed
        self.sizes = sizes
        self.sink = Sink()
        self.reference: dict | None = None

    # --- set-up: training corpus, MLP bundle, replay set ------------------------------

    def setup(self) -> None:
        s = self.sizes
        train = gen_corpus(
            os.path.join(self.workdir, "train"),
            self.seed,
            "online-train",
            s.per_profile,
            s.duration_s,
        )
        config = features.FeatureConfig()
        parts = [mdata.build_feature_dataset(manifest, config)[0] for _, _, manifest in train]
        X, y = np.vstack([d.X for d in parts]), np.concatenate([d.y for d in parts])
        scaler = features.Scaler().fit(X)
        model = MlpClassifier(seed=self.seed).fit(scaler.transform(X), y)
        self.bundle = ModelBundle(kind="mlp", model=model, feature_config=config, scaler=scaler, model_id="perfbench-mlp")
        replay = gen_corpus(
            os.path.join(self.workdir, "replay"),
            self.seed,
            "online-replay",
            s.per_profile,
            s.duration_s,
        )
        self.traces = [
            (f"{profile}-{job_id}", label, path)
            for profile, label, manifest in replay
            for job_id, path in manifest_traces(manifest)
        ]

    def prepare(self) -> None:
        self.raw = {job_id: RawTrace(path) for job_id, _, path in self.traces}
        self.round_records = sum(raw.records for raw in self.raw.values())

    # --- one round: every replay trace, one at a time -----------------------------------

    def round(self, index: int) -> RoundResult:
        out = RoundResult([], [])
        self.sink.latencies_ms = out.latencies_ms
        for job_id, _, path in self.traces:
            start = time.perf_counter()
            backend = sandbox.ReplayBackend(path, speed=0)
            handle = backend.launch(sandbox.JobDescriptor(job_id=job_id, command=("replay",)))
            stamped = StampedHandle(handle)
            self.sink.handle = stamped
            result = detector.run_pipeline(stamped, self.bundle, DETECTOR, client=self.sink, node_id="perfbench")
            seconds = time.perf_counter() - start
            status = handle.wait(timeout=WAIT_S)
            alerts = [(a.window_index, a.t_ns) for a in result.alerts]
            out.replays.append(Replay(job_id, status.phase, result.windows_scored, alerts, seconds))
        return out

    def ops(self, result: RoundResult) -> tuple[int, int]:
        return len(result.replays), 0

    # --- checks (not timed) ------------------------------------------------------------

    def _reference(self) -> dict:
        """Per trace: window count and alerted windows from make_windows, score_window and k-of-n."""
        cfg = self.bundle.feature_config
        out = {}
        for job_id, label, path in self.traces:
            raw = self.raw[job_id]
            trace = records.load_labeled_trace(path, job_id=job_id, label=label)
            windows = features.make_windows(trace, cfg)
            scores = [detector.score_window(self.bundle, features.window_vector(w, cfg)) for w in windows]
            alarms = k_of_n_alarms(scores, DETECTOR.tau, DETECTOR.k, DETECTOR.n)
            expected = raw.windows(cfg.window_s, cfg.hop_s)
            require([w.index for w in windows] == [k for k, _, _ in expected], f"{job_id}: make_windows disagrees")
            ends = {k: end for k, _, end in expected}
            out[job_id] = (len(expected), [(w.index, ends[w.index]) for w, a in zip(windows, alarms) if a])
        return out

    def check(self, index: int, result: RoundResult) -> None:
        if self.reference is None:
            self.reference = self._reference()
        for r in result.replays:
            windows, alerts = self.reference[r.job_id]
            require(r.status == "completed", f"{r.job_id}: handle ended {r.status}, not completed")
            require(r.windows_scored == windows, f"{r.job_id}: scored {r.windows_scored} windows, expected {windows}")
            require(r.alerts == alerts, f"{r.job_id}: alerted windows differ from k-of-n over score_window")

    # --- metrics -------------------------------------------------------------------

    def end_to_end(self, rounds) -> dict:
        latencies = [ms for _, r in rounds for ms in r.latencies_ms]
        require(len(latencies) >= self.sizes.min_alerts, f"only {len(latencies)} alerts; p95 needs {self.sizes.min_alerts}")
        return {
            "throughput_per_s": self.round_records / median([r.busy_s for _, r in rounds]),
            "latency_p50_ms": median(latencies),
        }

    def first_alarm_s(self) -> float:
        malicious = {job_id for job_id, label, _ in self.traces if label == "malicious"}
        firsts = [alerts[0][1] / 1e9 for job_id, (_, alerts) in self.reference.items() if alerts and job_id in malicious]
        return median(firsts) if firsts else 0.0

    def per_layer(self, tracer, mark: int, rounds: int, setup_mark: int, plain) -> dict:
        t = tracer
        pipeline_s = t.total_s("detector.run_pipeline", mark)
        parse_s = t.total_s("records.read_trace_file", mark)
        gen_s = t.total_s("datagen.gen_dataset", setup_mark)
        return {
            "datagen.gen_dataset_s": gen_s,
            "datagen.records_per_s": rate(t.count("datagen.gen_trace", setup_mark), gen_s),
            "records.parse_s": parse_s / rounds,
            "records.parse_records_per_s": rate(t.count("records.read_trace_file", mark), parse_s),
            "records.parses_per_trace": len(t.named("records.read_trace_file", mark)) / rounds / len(self.traces),
            "ml.mlp.fit_s": t.total_s("ml.mlp.fit", setup_mark),
            "ml.predict_s": t.total_s("ml.predict", mark) / rounds,
            "sandbox.replay_launch_s": t.total_s("sandbox.launch", mark) / rounds,
            "sandbox.stream_wait_s": t.counters["sandbox.stream.wait_ns"] / 1e9 / rounds,
            "sandbox.records_streamed": t.counters["sandbox.stream.items"] / rounds,
            "detector.run_pipeline_s": pipeline_s / rounds,
            "detector.windows_per_s": rate(t.count("detector.run_pipeline", mark), pipeline_s),
            "detector.windows_scored": t.count("detector.run_pipeline", mark) / rounds,
            "detector.alerts": sum(len(a) for _, a in self.reference.values()),
            "detector.window_vector_ms_p50": t.p50_ms("detector.window_vector", mark),
            "detector.score_window_ms_p50": t.p50_ms("detector.score_window", mark),
            "detector.first_alarm_s": self.first_alarm_s(),
            "detector.alert_latency_p95_ms": percentile([ms for _, r in plain for ms in r.latencies_ms], 95.0),
        }

    def finish(self) -> None:
        pass

    def close(self) -> None:
        # replay threads end right after closing their stream; wait for each
        for thread in threading.enumerate():
            if thread.name.startswith("replay-"):
                thread.join(timeout=WAIT_S)
