"""Online per-job intrusion detection: score windows, smooth alarms, react.

Each job gets one pipeline instance that consumes its telemetry stream,
closes feature windows on watermark (the first record at or past a window's
end), scores them with the deployed model and pushes the decision through a
k-of-n smoother: a window alarms when at least k of the last n threshold
decisions were positive, which suppresses isolated false positives. Runs of
consecutive alarms walk an escalation ladder (alert, then terminate); every
alarm becomes an Alert delivered to the coordinator at least once, with disk
spooling while the coordinator is unreachable.
"""

from __future__ import annotations

import enum
import fcntl
import json
import os
from collections.abc import Iterator
from dataclasses import dataclass, field

from .coordinator import ALERT_FIELDS, Rejected, alert_problem
from .features import FeatureVector, Window, Windower, window_vector
from .ml.io import ModelBundle
from .records import _wire_value
from .sandbox import JobHandle, KillReason, LimitTracker, SandboxPolicy


class ModelMissing(ValueError):
    """The pipeline needs a loaded window-scoring model."""


class FingerprintMismatch(ValueError):
    """Vector schema/dimension does not match what the model was trained on."""


class ResponseAction(enum.IntEnum):
    """Automated reactions, ordered by severity."""

    NONE = 0
    RAISE_ALERT = 1
    TERMINATE = 2

    @property
    def wire(self) -> str:
        return self.name.lower()

    @classmethod
    def from_wire(cls, name: str) -> "ResponseAction":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown action {name!r}") from None


DEFAULT_ACTION_POLICY = ((1, ResponseAction.RAISE_ALERT), (2, ResponseAction.TERMINATE))


@dataclass(frozen=True)
class DetectorConfig:
    tau: float = 0.5
    k: int = 3
    n: int = 5
    action_policy: tuple[tuple[int, ResponseAction], ...] = DEFAULT_ACTION_POLICY
    model_id: str = ""

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must be in (0, 1)")
        if self.k < 1 or self.n < self.k:
            raise ValueError("need 1 <= k <= n")
        thresholds = [t for t, _ in self.action_policy]
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("action thresholds must be strictly increasing")
        policy = tuple((int(t), ResponseAction(a)) for t, a in self.action_policy)
        object.__setattr__(self, "action_policy", policy)

    @property
    def rule(self) -> str:
        return f"k-of-n:{self.k}/{self.n}"


@dataclass(frozen=True)
class DetectorState:
    """Ring of the last <= n window decisions plus the consecutive-alarm run."""

    decisions: tuple[bool, ...] = ()
    consecutive_alarms: int = 0
    windows_seen: int = 0


def update(state: DetectorState, config: DetectorConfig, window_score: float) -> tuple[DetectorState, bool]:
    """Pure smoothing transition: push one decision, report whether it alarms."""
    decisions = (state.decisions + (window_score >= config.tau,))[-config.n :]
    alarm = sum(decisions) >= config.k
    return (
        DetectorState(
            decisions=decisions,
            consecutive_alarms=state.consecutive_alarms + 1 if alarm else 0,
            windows_seen=state.windows_seen + 1,
        ),
        alarm,
    )


def decide_action(config: DetectorConfig, consecutive_alarms: int) -> ResponseAction:
    """Highest-severity rule whose threshold the alarm run has reached."""
    best = ResponseAction.NONE
    if consecutive_alarms <= 0:
        return best
    for threshold, action in config.action_policy:
        if threshold <= consecutive_alarms and action > best:
            best = action
    return best


@dataclass(frozen=True)
class Alert:
    """One alarmed window (or forwarded policy violation) and the action taken."""

    alert_id: str
    node_id: str
    job_id: str
    t_ns: int
    window_index: int
    score: float
    model_id: str
    rule: str
    action_taken: ResponseAction

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")
        object.__setattr__(self, "score", round(float(self.score), 6))

    @property
    def action(self) -> str:  # the wire name of action_taken, as ALERT_FIELDS calls it
        return self.action_taken.wire


def alert_to_dict(alert: Alert) -> dict:
    return {key: getattr(alert, key) for key, _ in ALERT_FIELDS}


def alert_from_dict(data: dict) -> Alert:
    """The alert ``data`` holds; ValueError names the first field that is missing or of the wrong kind."""
    if problem := alert_problem(data):
        raise ValueError(problem)
    values = {key: data[key] for key, _ in ALERT_FIELDS}
    action = ResponseAction.from_wire(values.pop("action"))
    return Alert(**values, action_taken=action)


def serialize_alert_line(alert: Alert) -> str:
    """Canonical `.alog` line (ALERT_FIELDS key order, canonical score formatting)."""
    return "{" + ",".join(f'"{key}":{_wire_value(getattr(alert, key))}' for key, _ in ALERT_FIELDS) + "}"


def parse_alert_line(line: str) -> Alert:
    return alert_from_dict(json.loads(line))


def read_alert_log(path) -> Iterator[Alert | ValueError]:
    """Each non-blank line's Alert, or for a line that holds none (torn, not JSON, a bad field)
    a ValueError naming ``path:lineno`` and what is wrong."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            if line := raw.strip():
                try:
                    yield parse_alert_line(line.decode("utf-8"))
                except ValueError as exc:
                    yield ValueError(f"{path}:{lineno}: {exc}")


# --- scoring and the per-job pipeline --------------------------------------------

def score_window(bundle: ModelBundle, vector: FeatureVector) -> float:
    """Score one window vector through ``bundle.score``; pure."""
    if bundle.scaler is None:
        raise ModelMissing(f"{bundle.kind} bundles cannot score windows (no scaler)")
    if vector.schema_version != bundle.feature_config.schema_version:
        raise FingerprintMismatch(
            f"vector schema {vector.schema_version} != model schema {bundle.feature_config.schema_version}"
        )
    if vector.values.shape[0] != bundle.feature_config.dim:
        raise FingerprintMismatch(
            f"vector dimension {vector.values.shape[0]} != model dimension {bundle.feature_config.dim}"
        )
    return float(bundle.score(vector.values[None, :])[0])


class AlertSpool:
    """Append-only `.alog` spool for alerts that could not be delivered."""

    def __init__(self, path):
        self.path = str(path)

    def append(self, alert: Alert) -> None:
        """Add one line; after a torn last line it starts a new one, so the torn bytes stay a line drain skips.

        The write holds the file's lock and goes to the file still at ``path``, so it never lands in a
        file that flush_spool has claimed.
        """
        line = (serialize_alert_line(alert) + "\n").encode("utf-8")
        os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
        while True:
            with open(self.path, "a+b") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)  # released on close
                try:
                    if not os.path.samestat(os.fstat(fh.fileno()), os.stat(self.path)):
                        continue  # claimed between the open and the lock: open the new spool
                except FileNotFoundError:
                    continue
                if fh.tell():  # append mode starts at the end
                    fh.seek(-1, os.SEEK_END)
                    if fh.read(1) != b"\n":
                        line = b"\n" + line
                fh.write(line)
                return

    def drain(self) -> list[Alert]:
        """The spooled alerts; a line that holds none (such as a torn last line) is skipped."""
        if not os.path.exists(self.path):
            return []
        return [alert for alert in read_alert_log(self.path) if isinstance(alert, Alert)]

    def clear(self) -> None:
        try:
            os.remove(self.path)
        except FileNotFoundError:
            pass


def flush_spool(spool: AlertSpool, client, node_id: str) -> int:
    """Redeliver spooled alerts; server-side id dedup makes retries harmless.

    The spool is claimed by renaming it to ``<path>.flushing`` and delivered
    from there, after any claimed file a failed or crashed flush left, and
    again until no spool is left, so an alert spooled meanwhile is not lost.
    A rejected alert (Rejected) and a line that holds none are skipped.
    Returns the number delivered; a transport failure keeps the claimed file.
    """
    claimed = AlertSpool(spool.path + ".flushing")
    delivered = 0
    while True:
        for alert in claimed.drain():
            try:
                client.post_alert(node_id, alert)
            except Rejected:
                continue
            delivered += 1
        claimed.clear()
        try:
            with open(spool.path, "rb") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)  # waits out an append under way; a later one finds the file moved
                os.replace(spool.path, claimed.path)
        except FileNotFoundError:
            return delivered


@dataclass
class PipelineResult:
    alerts: list[Alert] = field(default_factory=list)
    windows_scored: int = 0
    terminated: bool = False
    delivery_failures: int = 0  # alerts not delivered for a transport failure (spooled, if there is a spool)
    rejected: int = 0  # alerts the coordinator refused (Rejected); never spooled
    records_in: int = 0  # telemetry rows read from the stream, including those read after a terminate


def run_pipeline(
    handle: JobHandle,
    bundle: ModelBundle,
    detector_config: DetectorConfig,
    client=None,
    node_id: str = "local",
    spool: AlertSpool | list[Alert] | None = None,
    policy: SandboxPolicy | None = None,
) -> PipelineResult:
    """Consume one job's telemetry stream of TraceColumns chunks to completion.

    Windows follow ``bundle.feature_config``, the configuration the model was
    trained on. Per window, as soon as it closes: extract, scale, score,
    smooth, act. A Terminate decision stops the job via the sandbox exactly
    once; the pipeline then scores no further window and raises no further
    alert, but still reads the stream to its end, since a producer blocks
    while the stream is full. When ``policy`` is given, CPU/memory/network
    violations are forwarded as RaiseAlert-severity alerts (ids
    ``<job>/pv<i>``) without terminating. Delivery failures fall back to the
    spool (an AlertSpool, or a list to collect them) and never crash the
    pipeline; alerts the coordinator rejects are counted in ``rejected`` and
    not spooled.
    """
    if bundle is None:
        raise ModelMissing("run_pipeline requires a loaded model bundle")
    config = bundle.feature_config
    windower = Windower(config, handle.job_id)
    state = DetectorState()
    result = PipelineResult()
    tracker: LimitTracker | None = None
    pv_count = 0

    def deliver(alert: Alert) -> None:
        result.alerts.append(alert)
        if client is not None:
            try:
                client.post_alert(node_id, alert)
                return
            except Rejected:
                result.rejected += 1
                return
            except Exception:
                result.delivery_failures += 1
        if spool is not None:
            spool.append(alert)

    def handle_window(window: Window) -> None:
        nonlocal state
        vector = window_vector(window, config)
        score = score_window(bundle, vector)
        result.windows_scored += 1
        state, alarm = update(state, detector_config, score)
        if not alarm:
            return
        action = decide_action(detector_config, state.consecutive_alarms)
        alert = Alert(
            alert_id=f"{handle.job_id}/{window.index}",
            node_id=node_id,
            job_id=handle.job_id,
            t_ns=window.t_end_ns,
            window_index=window.index,
            score=score,
            model_id=detector_config.model_id or bundle.model_id,
            rule=detector_config.rule,
            action_taken=action,
        )
        deliver(alert)
        if action == ResponseAction.TERMINATE:
            result.terminated = True
            handle.terminate(KillReason.DETECTOR_ACTION)

    def parts(chunk):
        """(rows, sample): the chunk cut after each resource row when a policy is checked, with that row's sample."""
        start = 0
        if policy is not None:
            for row, sample in zip(chunk.record_rows[0].tolist(), chunk.samples):
                yield chunk[start : row + 1], sample
                start = row + 1
        yield chunk[start:] if start else chunk, None

    telemetry = iter(handle.telemetry)
    for chunk in telemetry:
        result.records_in += len(chunk)
        for rows, sample in parts(chunk):
            for window in windower.push_columns(rows):
                handle_window(window)
                if result.terminated:
                    for chunk in telemetry:  # drain, so that no producer blocks on a full stream
                        result.records_in += len(chunk)
                    return result
            if sample is None:
                continue
            if tracker is None:
                tracker = LimitTracker(policy, windower.t0)
            for violation in tracker.push(sample):
                pv_count += 1
                deliver(
                    Alert(
                        alert_id=f"{handle.job_id}/pv{pv_count - 1}",
                        node_id=node_id,
                        job_id=handle.job_id,
                        t_ns=violation.t_ns,
                        window_index=-1,
                        score=1.0,
                        model_id=detector_config.model_id or bundle.model_id,
                        rule=f"policy:{violation.kind}",
                        action_taken=ResponseAction.RAISE_ALERT,
                    )
                )
    for window in windower.finish():
        handle_window(window)
        if result.terminated:
            break
    return result
