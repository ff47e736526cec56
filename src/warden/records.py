"""Telemetry record types, the `.trc` line format and trace validation.

One job produces three kinds of monitored data: syscall enter/exit events,
periodic resource-usage samples with cumulative I/O and network counters, and
free-text log lines. All three share a single newline-delimited JSON line
format with a `kind` discriminator and a canonical key order, so serialization
is byte-deterministic and traces can be replayed without external tooling.

One table per line kind (record class and wire keys in canonical order)
drives both `parse_line` and `serialize_line`; each record checks its own
fields, so a line is rejected by the same rules that guard construction.
Two readers share one block-wise scan of a `.trc` file: `read_trace_file`
runs `parse_line` on every line, and `read_trace_columns` checks each
distinct syscall-line tail once with a regex and sends only the other lines
through `parse_line`.
"""

from __future__ import annotations

import functools
import json
import re
from json.encoder import encode_basestring
from dataclasses import dataclass, fields
from typing import Iterable, Union

import numpy as np

ENTER = "enter"
EXIT = "exit"
DIRECTIONS = (ENTER, EXIT)
_ENTER_RETVAL = "retval is forbidden on enter events"

SEVERITIES = ("debug", "info", "warn", "error")
LABELS = ("normal", "malicious")

MAX_JOB_ID = 64
MAX_NAME = 32
MAX_ARGS = 256
MAX_SOURCE = 64
MAX_MESSAGE = 4096

SYSCALL_NAME_RE = re.compile(rf"[a-z0-9_]{{1,{MAX_NAME}}}")  # the whole name: use fullmatch


class InvalidRecord(ValueError):
    """A record field violates its type invariant; ``field`` names its attribute ("" for no single field)."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


class MalformedLine(ValueError):
    """A trace line cannot be decoded.

    ``offset`` is the byte offset of the first offending field's key within
    the line; 0 when the error is not attributable to a specific field
    (missing field, non-object line).
    """

    def __init__(self, message: str, offset: int = 0):
        super().__init__(message)
        self.offset = offset


class UnsortedInput(ValueError):
    """An input sequence violates its time-ordering precondition."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(message)
        self.position = position


_SHOWN_CHARS = 40  # the most of an offending value that an error message shows


def _shown(value) -> str:
    """repr of an offending value for an error message, cut to _SHOWN_CHARS characters.

    Called only on the raise path. An integer too long to show whole is
    described by its size, which needs no conversion to decimal.
    """
    if isinstance(value, int) and value.bit_length() > 4 * _SHOWN_CHARS:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    text = repr(value)
    return text if len(text) <= _SHOWN_CHARS else f"{text[:_SHOWN_CHARS]}... ({len(text)} chars)"


def _check_int(name: str, value, minimum=None) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidRecord(f"{name} must be an integer, got {_shown(value)}", name)
    if minimum is not None and value < minimum:
        raise InvalidRecord(f"{name} must be >= {minimum}, got {_shown(value)}", name)


def _check_job_id(job_id) -> None:
    if not isinstance(job_id, str) or not job_id or len(job_id) > MAX_JOB_ID:
        raise InvalidRecord(f"job_id must be a non-empty string of at most {MAX_JOB_ID} chars", "job_id")


@dataclass(frozen=True)
class SyscallEvent:
    """One syscall enter or exit observation. ``retval`` is present iff exit."""

    t_ns: int
    job_id: str
    pid: int
    tid: int
    name: str
    direction: str
    args_digest: str = ""
    retval: int | None = None

    def __post_init__(self):
        _check_int("t_ns", self.t_ns)
        _check_job_id(self.job_id)
        _check_int("pid", self.pid, minimum=1)
        _check_int("tid", self.tid, minimum=1)
        if not isinstance(self.name, str) or not SYSCALL_NAME_RE.fullmatch(self.name):
            raise InvalidRecord(f"syscall name must match [a-z0-9_]+ (1-{MAX_NAME} chars), got {_shown(self.name)}", "name")
        if self.direction not in DIRECTIONS:
            raise InvalidRecord(f"direction must be 'enter' or 'exit', got {_shown(self.direction)}", "direction")
        if not isinstance(self.args_digest, str) or len(self.args_digest) > MAX_ARGS:
            raise InvalidRecord(f"args_digest must be a string of at most {MAX_ARGS} chars", "args_digest")
        if self.direction == EXIT:
            if self.retval is None:
                raise InvalidRecord("retval is required on exit events", "retval")
            _check_int("retval", self.retval)
        elif self.retval is not None:
            raise InvalidRecord(_ENTER_RETVAL, "retval")


def _quantize_real(value: float) -> float:
    """Canonical wire resolution for real fields: 6 decimal places."""
    return round(float(value), 6)


@dataclass(frozen=True)
class ResourceSample:
    """Point-in-time resource usage; byte counters are cumulative since job start.

    ``cpu_pct`` is stored quantized to the wire resolution (6 decimals) so that
    parse(serialize(x)) == x holds field-exactly for every constructed sample.
    """

    t_ns: int
    job_id: str
    cpu_pct: float
    rss_bytes: int
    net_rx_bytes: int
    net_tx_bytes: int
    io_read_bytes: int
    io_write_bytes: int

    def __post_init__(self):
        _check_int("t_ns", self.t_ns)
        _check_job_id(self.job_id)
        if isinstance(self.cpu_pct, bool) or not isinstance(self.cpu_pct, (int, float)):
            raise InvalidRecord(f"cpu_pct must be a real number, got {_shown(self.cpu_pct)}", "cpu_pct")
        try:
            cpu = float(self.cpu_pct)
        except OverflowError:  # an integer beyond float's range
            cpu = float("inf")
        if cpu != cpu or cpu in (float("inf"), float("-inf")) or cpu < 0.0:
            raise InvalidRecord(f"cpu_pct must be finite and >= 0, got {_shown(self.cpu_pct)}", "cpu_pct")
        object.__setattr__(self, "cpu_pct", _quantize_real(cpu))
        _check_int("rss_bytes", self.rss_bytes, minimum=0)
        _check_int("net_rx_bytes", self.net_rx_bytes, minimum=0)
        _check_int("net_tx_bytes", self.net_tx_bytes, minimum=0)
        _check_int("io_read_bytes", self.io_read_bytes, minimum=0)
        _check_int("io_write_bytes", self.io_write_bytes, minimum=0)


@dataclass(frozen=True)
class LogRecord:
    """One log line emitted by the job or a node service."""

    t_ns: int
    job_id: str
    source: str
    severity: str
    message: str

    def __post_init__(self):
        _check_int("t_ns", self.t_ns)
        _check_job_id(self.job_id)
        if not isinstance(self.source, str) or len(self.source) > MAX_SOURCE:
            raise InvalidRecord(f"source must be a string of at most {MAX_SOURCE} chars", "source")
        if self.severity not in SEVERITIES:
            raise InvalidRecord(f"severity must be one of {SEVERITIES}, got {_shown(self.severity)}", "severity")
        if not isinstance(self.message, str) or len(self.message) > MAX_MESSAGE:
            raise InvalidRecord(f"message must be a string of at most {MAX_MESSAGE} chars", "message")
        if "\n" in self.message:
            raise InvalidRecord("message must not contain newline characters", "message")


TelemetryRecord = Union[SyscallEvent, ResourceSample, LogRecord]


@dataclass(frozen=True)
class LabeledTrace:
    """A job's full time-ordered telemetry with its ground-truth label.

    ``profile_name`` records generator provenance and is empty for real traces.
    Cross-record invariants (ordering, job_id consistency, counter monotony)
    are not checked at construction.
    """

    job_id: str
    label: str
    profile_name: str
    records: tuple[TelemetryRecord, ...]

    def __post_init__(self):
        _check_job_id(self.job_id)
        if self.label not in LABELS:
            raise InvalidRecord(f"label must be one of {LABELS}, got {_shown(self.label)}", "label")
        if not isinstance(self.profile_name, str):
            raise InvalidRecord("profile_name must be a string", "profile_name")
        object.__setattr__(self, "records", tuple(self.records))


# --- wire format ------------------------------------------------------------

# One table per line kind: its record class, the (wire key, record attribute)
# pairs in canonical key order after "kind", the keys a line must have and the
# keys it may have. "ret" is the one optional key: present iff exit.
_WIRE_KEYS = {"direction": "dir", "args_digest": "args", "retval": "ret"}


def _wire_table(cls) -> tuple:
    pairs = tuple((_WIRE_KEYS.get(f.name, f.name), f.name) for f in fields(cls))
    allowed = frozenset(["kind", *(key for key, _ in pairs)])
    return cls, pairs, allowed - {"ret"}, allowed


_KINDS = {"sys": _wire_table(SyscallEvent), "res": _wire_table(ResourceSample), "log": _wire_table(LogRecord)}


def format_real(x: float) -> str:
    """Canonical real formatting: up to 6 decimals, no trailing zeros, "0" for zero."""
    s = f"{x:.6f}".rstrip("0").rstrip(".")
    if s in ("", "-0", "-"):
        return "0"
    return s


# json.dumps(s, ensure_ascii=False) for a str, without building an encoder per call
_dump_str = encode_basestring


def _wire_value(value) -> str:
    if isinstance(value, str):
        return _dump_str(value)
    return format_real(value) if isinstance(value, float) else str(value)


def serialize_line(record: TelemetryRecord) -> str:
    """Serialize one record to its canonical line (no trailing newline).

    Pure and byte-deterministic: equal records produce identical bytes.
    Raises InvalidRecord for anything but a telemetry record, whose fields
    its class checked when it was built.
    """
    if not isinstance(record, (SyscallEvent, ResourceSample, LogRecord)):
        raise InvalidRecord(f"not a telemetry record: {type(record).__name__}")
    if isinstance(record, SyscallEvent):
        key = (record.tid, record.name, record.args_digest, record.retval)
        return f"{_SYS_HEAD}{record.t_ns}{_sys_tails(record.job_id, record.pid, (key,))[0]}"
    kind = "res" if isinstance(record, ResourceSample) else "log"
    body = ",".join([f'"{key}":{_wire_value(getattr(record, attr))}' for key, attr in _KINDS[kind][1]])
    return f'{{"kind":"{kind}",{body}}}'


def _field_offset(line: str, key: str) -> int:
    """Byte offset of ``"key":`` in the line; a string value equal to the key is not a match."""
    match = re.search(f'"{re.escape(key)}"\\s*:', line)
    return len(line[: match.start()].encode("utf-8")) if match else 0


def parse_line(line: str) -> TelemetryRecord:
    """Decode one trace line into its record.

    Accepts any key order but requires the exact field set of the record kind
    (``ret`` present iff the event is an exit). The record checks its own
    fields, in canonical order. Raises MalformedLine with the byte offset of
    the first offending field.
    """
    stripped = line.strip()
    if not stripped:
        raise MalformedLine("empty line")
    try:
        obj = json.loads(stripped)
    except json.JSONDecodeError as exc:
        offset = len(stripped[: exc.pos].encode("utf-8"))
        raise MalformedLine(f"invalid object syntax: {exc.msg}", offset=offset) from None
    except ValueError as exc:  # an integer beyond int's string-conversion digit limit
        raise MalformedLine(f"invalid number: {exc}") from None
    if not isinstance(obj, dict):
        raise MalformedLine("line is not an object")
    if "kind" not in obj:
        raise MalformedLine("missing field 'kind'")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise MalformedLine(f"unknown kind {_shown(kind)}", offset=_field_offset(stripped, "kind"))
    cls, pairs, required, allowed = _KINDS[kind]
    keys = obj.keys()
    if keys != required and keys != allowed:
        for key, _ in pairs:
            if key in required and key not in obj:
                raise MalformedLine(f"missing field {key!r}")
        for key in obj:
            if key not in allowed:
                raise MalformedLine(f"field {_shown(key)}: unknown field", offset=_field_offset(stripped, key))
    try:
        record = cls(**{attr: obj.get(key) for key, attr in pairs})
        if obj.get("ret", 0) is None:  # "ret":null on an enter line, which the record reads as no retval
            raise InvalidRecord(_ENTER_RETVAL, "retval")
    except InvalidRecord as exc:
        key = _WIRE_KEYS.get(exc.field, exc.field)
        if key not in obj:
            raise MalformedLine(f"missing field {key!r}") from None
        message = str(exc)
        if message.startswith(exc.field):  # the record names its attribute; the line has the wire key
            message = key + message[len(exc.field) :]
        raise MalformedLine(message, offset=_field_offset(stripped, key)) from None
    return record


# --- trace files -------------------------------------------------------------

def write_trace_file(path, records: Iterable[TelemetryRecord]) -> None:
    """Write records as one canonical line each (UTF-8, trailing newline per line)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(serialize_line(record))
            fh.write("\n")


def _sys_tails(job_id: str, pid: int, keys: Iterable[tuple]) -> list[str]:
    """Each syscall key's canonical line after its t_ns; the one place that spells out a sys line.

    A key is ``(tid, name, args, retval)``, retval None on enter; its line is
    ``_SYS_HEAD + str(t_ns) + tail``. No SyscallEvent is built: the caller
    guarantees that the fields meet SyscallEvent's invariants. job_id and pid
    are formatted once.
    """
    ids = f'"job_id":{_dump_str(job_id)},"pid":{pid}'
    return [
        f',{ids},"tid":{tid},"name":"{name}","dir":"enter","args":{_dump_str(args)}}}' if retval is None
        else f',{ids},"tid":{tid},"name":"{name}","dir":"exit","args":{_dump_str(args)},"ret":{retval}}}'
        for tid, name, args, retval in keys
    ]


def write_coded_rows(path, job_id: str, pid: int, t_ns: Iterable[int], codes: Iterable[int], keys: list, others: list) -> None:
    """Write one job's rows in the order given, byte for byte what write_trace_file gives for the same records.

    Row i is the syscall key ``keys[codes[i]]`` (see _sys_tails) at
    ``t_ns[i]``, or the record ``others[-1 - codes[i]]`` when the code is
    negative; each key's line tail is formatted once.
    """
    tails = _sys_tails(job_id, pid, keys)
    other = [serialize_line(r) for r in others]
    lines = [f"{_SYS_HEAD}{t}{tails[c]}" if c >= 0 else other[-1 - c] for t, c in zip(t_ns, codes)]
    lines.append("")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))


# A `.trc` line splits into the head of a canonical `sys` line, its t_ns and
# its tail: groups 1 t_ns (the strict _INT) and 2 the tail, from the comma
# after t_ns; any other line is caught whole by group 3.
#
# _TAIL is the rest of a canonical sys line as serialize_line writes it. It
# admits exactly the values SyscallEvent's invariants allow and strict
# json.loads reads back unchanged: JSON integers of at most 20 digits, pid and
# tid >= 1, strings without quote, backslash or control character, and the
# length limits. A line whose tail it matches becomes a column row without
# re-running the checks; any other line goes through parse_line. Its groups
# are a column row's key: pid, tid, name and "exit" (empty on enter); all
# empty when the tail fails.
_STR = r'[^"\\\x00-\x1f]'
_INT = r"-?(?:0|[1-9][0-9]{0,19})"
_POS_INT = r"[1-9][0-9]{0,19}"
_SYS_HEAD = '{"kind":"sys","t_ns":'
_LINE = re.compile(rf"{re.escape(_SYS_HEAD)}({_INT})(,[^\n]*)\n|([^\n]*)\n")
_TAIL = re.compile(
    rf',"job_id":"{_STR}{{1,{MAX_JOB_ID}}}","pid":({_POS_INT}),"tid":({_POS_INT}),'
    rf'"name":"([a-z0-9_]{{1,{MAX_NAME}}})","dir":"(?:enter|(?P<exit>exit))","args":"{_STR}{{0,{MAX_ARGS}}}"'
    rf'(?(exit),"ret":{_INT})\}}\n|[^\n]*\n'
)

_BLOCK_BYTES = 1 << 16
_KNOWN_TAILS = 1 << 14  # checked tails kept per call; a trace of distinct args refills it


def _blocks(fh):
    """A binary file's bytes in blocks of about _BLOCK_BYTES, each ending at a newline (the last may not)."""
    pending = bytearray()
    while chunk := fh.read(_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield pending + chunk[:cut]
            pending = bytearray()
        pending += chunk[cut:]
    if pending:
        yield pending


def _located(path, lineno: int, exc: MalformedLine) -> MalformedLine:
    err = MalformedLine(f"{path}:{lineno}: {exc}", offset=exc.offset)
    err.lineno = lineno
    return err


def _scan(path, value=None):
    """Yield ``(lineno, t, tails, others, known)`` per block of a `.trc` file, from line ``lineno`` on.

    ``t``, ``tails`` and ``others`` are the block's _LINE groups, one per
    line; lines end at "\\n", "\\r\\n" or "\\r", as in text mode. Given
    ``value``, ``known`` maps each tail ("" too) to ``value`` of its _TAIL
    groups: a tail is checked once per call, by one findall over each block's
    new tails, and the map is cleared when it would pass _KNOWN_TAILS
    entries. Bytes that are not UTF-8 raise MalformedLine with their
    path:lineno and their offset in the line, after the block of the lines
    before them.
    """
    known: dict = {}
    lineno = 1
    with open(path, "rb") as fh:
        for block in _blocks(fh):
            bad = None
            try:
                text = block.decode("utf-8")
            except UnicodeDecodeError as exc:
                head = block[: exc.start]
                cut = max(head.rfind(b"\n"), head.rfind(b"\r")) + 1
                text = head[:cut].decode("utf-8")
                bad = MalformedLine(f"invalid UTF-8: {exc.reason}", offset=exc.start - cut)
            if text:
                if "\r" in text:
                    text = text.replace("\r\n", "\n").replace("\r", "\n")
                t, tails, others = zip(*_LINE.findall(text if text.endswith("\n") else text + "\n"))
                if value is not None:
                    new = list(set(tails).difference(known))
                    if len(known) + len(new) > _KNOWN_TAILS:
                        known.clear()
                        new = list(set(tails))
                    known.update(zip(new, map(value, _TAIL.findall("\n".join(new) + "\n"))))
                yield lineno, t, tails, others, known
                lineno += len(t)
            if bad:
                raise _located(path, lineno, bad)


def _parse_at(path, lineno: int, t: str, tail: str, other: str) -> TelemetryRecord | None:
    """parse_line of a line from its _LINE groups, rebuilt byte for byte; None if blank, errors at path:lineno."""
    line = _SYS_HEAD + t + tail if t else other
    if not line.strip():
        return None
    try:
        return parse_line(line)
    except MalformedLine as exc:
        raise _located(path, lineno, exc) from None


def read_trace_file(path) -> list[TelemetryRecord]:
    """Parse a `.trc` file with parse_line on every non-blank line; MalformedLine is re-raised with the line number attached.

    Lines are split and decoded by the scan read_trace_columns uses, so both
    readers end lines and locate bad bytes alike.
    """
    out: list[TelemetryRecord] = []
    for first, t, tails, others, _ in _scan(path):
        for lineno, row in enumerate(zip(t, tails, others), first):
            if (rec := _parse_at(path, lineno, *row)) is not None:
                out.append(rec)
    return out


class Interner(dict):
    """Numbers keys densely in first-seen order; ``ordered`` lists the keys by number."""

    def __init__(self, keys=()):
        super().__init__()
        self.ordered: list = []
        for key in keys:
            self[key]

    def __missing__(self, key):
        self[key] = number = len(self.ordered)
        self.ordered.append(key)
        return number


# TraceColumns.kind codes
SYS_ROW, RES_ROW, LOG_ROW = 0, 1, 2


@dataclass(frozen=True, eq=False)
class TraceColumns:
    """One job's trace, or a run of its rows, as columns: one row per record in file order.

    Syscall rows (``kind`` SYS_ROW) carry ``name_id`` (an index into
    ``names``), ``thread_id`` (an index into ``threads``, the (pid, tid)
    pairs) and ``enter``; other rows hold 0, 0 and False there. Names and
    threads are numbered by first appearance among the syscall rows.
    ``t_ns`` is int64, or object when a timestamp does not fit int64.
    Resource samples and log records stay objects, in row order, in
    ``samples`` and ``logs``. ``columns[a:b]`` is rows a to b-1 with their
    samples and log records; it shares ``names`` and ``threads``. Built by
    :func:`read_trace_columns` or :meth:`from_records`.
    """

    job_id: str
    t_ns: np.ndarray
    kind: np.ndarray
    name_id: np.ndarray
    thread_id: np.ndarray
    enter: np.ndarray
    names: tuple[str, ...]
    threads: tuple[tuple[int, int], ...]
    samples: tuple[ResourceSample, ...]
    logs: tuple[LogRecord, ...] = ()

    @classmethod
    def from_records(cls, records: Iterable[TelemetryRecord], job_id: str) -> "TraceColumns":
        keys, samples, logs, records = Interner(), [], [], list(records)
        codes = np.array([_record_code(rec, keys, samples, logs) for rec in records], dtype=np.int64)
        return _columns(job_id, _timestamps([rec.t_ns for rec in records]), codes, keys, samples, logs)

    def __len__(self) -> int:
        return len(self.t_ns)

    def __getitem__(self, rows: slice) -> "TraceColumns":
        if rows.step not in (None, 1):
            raise ValueError("TraceColumns rows are sliced with step 1 only")
        start, stop, _ = rows.indices(len(self))
        cut = slice(start, max(start, stop))
        sample_rows, log_rows = self.record_rows
        (s_lo, s_hi), (l_lo, l_hi) = (np.searchsorted(r, (cut.start, cut.stop)).tolist() for r in (sample_rows, log_rows))
        columns = (c[cut] for c in (self.t_ns, self.kind, self.name_id, self.thread_id, self.enter))
        part = TraceColumns(self.job_id, *columns, self.names, self.threads, self.samples[s_lo:s_hi], self.logs[l_lo:l_hi])
        vars(part)["record_rows"] = sample_rows[s_lo:s_hi] - start, log_rows[l_lo:l_hi] - start  # the parent's, shifted
        return part

    @functools.cached_property
    def record_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Row numbers of the samples and of the log records."""
        return np.flatnonzero(self.kind == RES_ROW), np.flatnonzero(self.kind == LOG_ROW)


# Row codes while columns are built: a syscall row's code is its number in an
# Interner of row keys (pid, tid, name, "exit" or ""), _TAIL's groups.
# Other codes are negative: a sample's and a log record's is minus its kind.
_SAMPLE, _LOG, _SLOW, _BLANK = -RES_ROW, -LOG_ROW, -3, -4


def _record_code(rec: TelemetryRecord, keys: Interner, samples: list, logs: list) -> int:
    """A record's row code; a sample or log record is appended to its list."""
    if isinstance(rec, SyscallEvent):
        return keys[str(rec.pid), str(rec.tid), rec.name, "" if rec.direction == ENTER else "exit"]
    sample = isinstance(rec, ResourceSample)
    (samples if sample else logs).append(rec)
    return _SAMPLE if sample else _LOG


def _timestamps(values: list[int]) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:  # parse_line accepts integers of any size
        return np.array(values, dtype=object)


def _columns(job_id: str, t_ns: np.ndarray, codes: np.ndarray, keys: Interner, samples: list, logs: list) -> TraceColumns:
    """TraceColumns from one row code per row; names and threads are numbered by first appearance among syscall rows."""
    ordered = [(name, (int(pid), int(tid)), not exit_) for pid, tid, name, exit_ in keys.ordered]
    sys_codes = codes[codes >= 0]
    first = np.full(len(ordered), len(sys_codes))  # each key's first syscall row
    np.minimum.at(first, sys_codes, np.arange(len(sys_codes)))
    seen = [ordered[k] for k in np.argsort(first, kind="stable").tolist()]
    names, threads = Interner(k[0] for k in seen), Interner(k[1] for k in seen)
    end = [0, 0]  # what the negative codes of samples and log records gather: 0, or False
    name_id = np.array([names[k[0]] for k in ordered] + end, dtype=np.int64)[codes]
    thread_id = np.array([threads[k[1]] for k in ordered] + end, dtype=np.int64)[codes]
    enter = np.array([k[2] for k in ordered] + end, dtype=bool)[codes]
    kind = np.where(codes >= 0, SYS_ROW, -codes).astype(np.int8)
    return TraceColumns(job_id, t_ns, kind, name_id, thread_id, enter, tuple(names.ordered), tuple(threads.ordered), tuple(samples), tuple(logs))


def read_trace_columns(path, job_id: str) -> TraceColumns:
    """Read a `.trc` file into TraceColumns for job ``job_id``.

    The lines accepted and the errors raised are those of read_trace_file,
    with no Python loop over the rows: a row's code is one dict lookup of its
    tail, and the id and enter columns are numpy gathers through the codes.
    Only a line whose tail failed, or any other line, goes through parse_line.
    """
    keys, samples, logs, t_ns, blocks = Interner(), [], [], [], []
    keys["", "", "", ""] = _SLOW  # the groups of a failed tail; not in keys.ordered
    for first, t, tails, others, known in _scan(path, keys.__getitem__):
        codes = np.fromiter(map(known.__getitem__, tails), dtype=np.int64, count=len(tails))
        slow = np.flatnonzero(codes == _SLOW).tolist()
        if slow:
            t = list(t)
            for i in slow:
                rec = _parse_at(path, first + i, t[i], tails[i], others[i])
                codes[i], t[i] = (_BLANK, 0) if rec is None else (_record_code(rec, keys, samples, logs), rec.t_ns)
        t_ns.extend(map(int, t))
        blocks.append(codes)
    codes = np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64)
    rows = codes != _BLANK
    return _columns(job_id, _timestamps(t_ns)[rows], codes[rows], keys, samples, logs)


def load_labeled_trace(path, job_id: str, label: str, profile_name: str = "") -> LabeledTrace:
    return LabeledTrace(job_id=job_id, label=label, profile_name=profile_name, records=tuple(read_trace_file(path)))
