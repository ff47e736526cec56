"""Cross-record trace invariants, checked by the datagen and record tests.

A generated trace must be time-ordered, carry its own job_id on every record
and have cumulative counters that never go down. Violations are data, not
errors; an empty list means the trace is valid.
"""

from __future__ import annotations

from dataclasses import dataclass

from warden.records import LabeledTrace, ResourceSample

_COUNTERS = ("net_rx_bytes", "net_tx_bytes", "io_read_bytes", "io_write_bytes")


@dataclass(frozen=True)
class TraceViolation:
    kind: str  # "OrderViolation" | "JobIdMismatch" | "CounterRegression"
    index: int
    detail: str


def validate_trace(trace: LabeledTrace) -> list[TraceViolation]:
    """Report every ordering, job_id and cumulative-counter violation."""
    violations: list[TraceViolation] = []
    prev_t = None
    prev_sample: ResourceSample | None = None
    for i, rec in enumerate(trace.records):
        if prev_t is not None and rec.t_ns < prev_t:
            violations.append(TraceViolation("OrderViolation", i, f"t_ns {rec.t_ns} < previous {prev_t}"))
        prev_t = rec.t_ns
        if rec.job_id != trace.job_id:
            violations.append(
                TraceViolation("JobIdMismatch", i, f"record job_id {rec.job_id!r} != trace {trace.job_id!r}")
            )
        if isinstance(rec, ResourceSample):
            if prev_sample is not None:
                for counter in _COUNTERS:
                    cur, prev = getattr(rec, counter), getattr(prev_sample, counter)
                    if cur < prev:
                        violations.append(TraceViolation("CounterRegression", i, f"{counter} {cur} < previous {prev}"))
            prev_sample = rec
    return violations
