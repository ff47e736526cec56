"""Reference computations the benchmark checks warden's outputs against.

Each one is written from the documented formats and rules (the `.trc` line
format, the window rule, the k-of-n rule, the all-pairs AUC and the ledger's
CRC line format) without calling the warden code it checks.
"""

from __future__ import annotations

import json
import zlib


class CheckFailed(AssertionError):
    """A benchmark output disagrees with its reference computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class RawTrace:
    """What the benchmark reads from a `.trc` file with plain ``json``."""

    def __init__(self, path):
        self.times: list[int] = []
        self.syscall_times: list[int] = []
        self.enters = 0
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                obj = json.loads(line)
                self.times.append(obj["t_ns"])
                if obj["kind"] == "sys":
                    self.syscall_times.append(obj["t_ns"])
                    if obj["dir"] == "enter":
                        self.enters += 1

    @property
    def records(self) -> int:
        return len(self.times)

    def windows(self, window_s: float, hop_s: float) -> list[tuple[int, int, int]]:
        """(index, start_ns, end_ns) of every window holding a syscall event.

        Window k covers [t0 + k*hop, t0 + k*hop + window), t0 being the first
        record's time; k runs while the window start is at most the last
        record's time.
        """
        win_ns, hop_ns = int(round(window_s * 1e9)), int(round(hop_s * 1e9))
        t0, t_last = self.times[0], self.times[-1]
        out = []
        k = 0
        j = 0  # first syscall at or after the current window start (starts only grow)
        sys_t = self.syscall_times
        while t0 + k * hop_ns <= t_last:
            start = t0 + k * hop_ns
            while j < len(sys_t) and sys_t[j] < start:
                j += 1
            if j < len(sys_t) and sys_t[j] < start + win_ns:
                out.append((k, start, start + win_ns))
            k += 1
        return out


def all_pairs_auc(scores, labels) -> float:
    """Share of (positive, negative) pairs ranked correctly, ties counting 1/2."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    twice = 0
    for p in pos:
        for n in neg:
            twice += 2 if p > n else 1 if p == n else 0
    return twice / (2 * len(pos) * len(neg))


def k_of_n_alarms(scores, tau: float, k: int, n: int) -> list[bool]:
    """A window alarms when at least k of the last n scores reach tau."""
    out = []
    for i in range(len(scores)):
        recent = scores[max(0, i - n + 1) : i + 1]
        out.append(sum(1 for s in recent if s >= tau) >= k)
    return out


def ledger_lines_intact(path) -> int:
    """Re-check every ledger line's CRC32 over its canonical body; returns the line count."""
    with open(path, "rb") as fh:
        blob = fh.read()
    require(blob.endswith(b"\n"), f"{path}: ledger does not end with a newline")
    lines = blob.split(b"\n")[:-1]
    for i, raw in enumerate(lines, start=1):
        obj = json.loads(raw.decode("utf-8"))
        stored = obj.pop("crc")
        body = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        require(f"{zlib.crc32(body.encode('utf-8')):08x}" == stored, f"{path}: line {i} fails its CRC")
    return len(lines)
