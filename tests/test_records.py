"""Wire format, merging and trace validation contracts."""

from __future__ import annotations

import itertools
import json
import os
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warden.datagen import builtin_profiles, gen_trace
from warden.records import (
    ENTER,
    EXIT,
    LOG_ROW,
    RES_ROW,
    SYS_ROW,
    InvalidRecord,
    LabeledTrace,
    LogRecord,
    MalformedLine,
    ResourceSample,
    SyscallEvent,
    TraceColumns,
    parse_line,
    read_trace_columns,
    read_trace_file,
    serialize_line,
    write_trace_file,
    write_trace_rows,
)
from trace_validation import validate_trace


def sys_event(**kw):
    base = dict(t_ns=100, job_id="j1", pid=7, tid=7, name="read", direction=ENTER, args_digest="")
    base.update(kw)
    return SyscallEvent(**base)


def res_sample(**kw):
    base = dict(
        t_ns=100, job_id="j1", cpu_pct=1.0, rss_bytes=0,
        net_rx_bytes=0, net_tx_bytes=0, io_read_bytes=0, io_write_bytes=0,
    )
    base.update(kw)
    return ResourceSample(**base)


# --- parse_line ------------------------------------------------------------------

def test_parse_enter_event_literal():
    line = '{"kind":"sys","t_ns":100,"job_id":"j1","pid":7,"tid":7,"name":"read","dir":"enter","args":""}'
    rec = parse_line(line)
    assert rec == SyscallEvent(t_ns=100, job_id="j1", pid=7, tid=7, name="read", direction=ENTER, args_digest="")
    assert rec.retval is None


def test_parse_rejects_retval_on_enter():
    line = '{"kind":"sys","t_ns":100,"job_id":"j1","pid":7,"tid":7,"name":"read","dir":"enter","args":"","ret":0}'
    with pytest.raises(MalformedLine) as exc:
        parse_line(line)
    assert exc.value.offset == line.encode().index(b'"ret"')


def test_parse_requires_retval_on_exit():
    line = '{"kind":"sys","t_ns":100,"job_id":"j1","pid":7,"tid":7,"name":"read","dir":"exit","args":""}'
    with pytest.raises(MalformedLine, match="ret"):
        parse_line(line)


def test_parse_unknown_kind():
    with pytest.raises(MalformedLine, match="unknown kind"):
        parse_line('{"kind":"bogus","t_ns":1}')


def test_parse_unknown_field_offset():
    line = '{"kind":"log","t_ns":1,"job_id":"j","source":"s","severity":"info","message":"m","extra":1}'
    with pytest.raises(MalformedLine) as exc:
        parse_line(line)
    assert exc.value.offset == line.encode().index(b'"extra"')


def test_parse_invalid_syntax_reports_offset():
    with pytest.raises(MalformedLine):
        parse_line('{"kind":"sys",')
    with pytest.raises(MalformedLine):
        parse_line("[]")
    with pytest.raises(MalformedLine):
        parse_line("   ")


def test_parse_bad_field_value_offset():
    line = '{"kind":"sys","t_ns":100,"job_id":"j1","pid":0,"tid":7,"name":"read","dir":"enter","args":""}'
    with pytest.raises(MalformedLine) as exc:
        parse_line(line)
    assert exc.value.offset == line.encode().index(b'"pid"')


def test_parse_reports_the_first_offending_field_in_canonical_order():
    res = serialize_line(res_sample()).replace('"t_ns":100', '"t_ns":-0.5').replace('"cpu_pct":1', '"cpu_pct":"1"')
    sys = '{"kind":"sys","t_ns":100,"job_id":"j1","pid":0,"tid":7,"name":"read","dir":"bogus","args":""}'
    for line, key in ((res, "t_ns"), (sys, "pid")):
        with pytest.raises(MalformedLine, match=f"^{key} must be") as exc:
            parse_line(line)
        assert exc.value.offset == line.encode().index(f'"{key}"'.encode())


def test_parse_rejects_non_integer_t_ns():
    with pytest.raises(MalformedLine):
        parse_line('{"kind":"log","t_ns":1.5,"job_id":"j","source":"s","severity":"info","message":"m"}')


# --- serialize_line -------------------------------------------------------------

def test_serialize_canonical_and_deterministic():
    rec = SyscallEvent(t_ns=0, job_id="j", pid=1, tid=1, name="exit", direction=EXIT, args_digest="", retval=0)
    line1 = serialize_line(rec)
    line2 = serialize_line(rec)
    assert line1 == line2
    assert line1 == '{"kind":"sys","t_ns":0,"job_id":"j","pid":1,"tid":1,"name":"exit","dir":"exit","args":"","ret":0}'


def test_serialize_real_formatting():
    assert '"cpu_pct":12.5' in serialize_line(res_sample(cpu_pct=12.5))
    assert '"cpu_pct":0' in serialize_line(res_sample(cpu_pct=0.0))
    assert '"cpu_pct":100' in serialize_line(res_sample(cpu_pct=100.0))
    assert '"cpu_pct":0.333333' in serialize_line(res_sample(cpu_pct=1 / 3))


def test_serialize_rejects_non_record():
    with pytest.raises(InvalidRecord):
        serialize_line({"kind": "sys"})


def test_round_trip_log_with_unicode_and_quotes():
    rec = LogRecord(t_ns=5, job_id="j1", source="stdout", severity="warn", message='café said "hi"\tok')
    assert parse_line(serialize_line(rec)) == rec


def test_write_trace_rows_equals_write_trace_file(tmp_path):
    odd = 'say "hi" C:\\x\ttab résumé ☃'
    records = [
        sys_event(t_ns=1, tid=9, name="open", args_digest=odd),
        sys_event(t_ns=2, tid=9, name="open", direction=EXIT, args_digest=odd, retval=-13),
        res_sample(t_ns=2, cpu_pct=12.5),
        sys_event(t_ns=3, name="read", direction=EXIT, retval=0),
        LogRecord(t_ns=4, job_id="j1", source="stdout", severity="warn", message='"x"\ty'),
    ]
    rows = [
        (r.t_ns, r.tid, r.name, r.args_digest, r.retval) if isinstance(r, SyscallEvent) else (r.t_ns, r)
        for r in records
    ]
    write_trace_file(tmp_path / "a.trc", records)
    write_trace_rows(tmp_path / "b.trc", "j1", 7, rows)
    assert (tmp_path / "b.trc").read_bytes() == (tmp_path / "a.trc").read_bytes()
    assert list(read_trace_file(tmp_path / "b.trc")) == records
    write_trace_rows(tmp_path / "empty.trc", "j1", 7, [])
    assert (tmp_path / "empty.trc").read_bytes() == b""


def test_invariants_enforced_at_construction():
    with pytest.raises(InvalidRecord):
        sys_event(name="Read")  # uppercase
    with pytest.raises(InvalidRecord):
        sys_event(name="read\n")  # would end the line early
    with pytest.raises(InvalidRecord):
        sys_event(direction=EXIT)  # missing retval
    with pytest.raises(InvalidRecord):
        sys_event(direction=ENTER, retval=1)
    with pytest.raises(InvalidRecord):
        res_sample(cpu_pct=-1.0)
    with pytest.raises(InvalidRecord):
        res_sample(net_rx_bytes=-5)
    with pytest.raises(InvalidRecord):
        LogRecord(t_ns=1, job_id="j", source="s", severity="info", message="a\nb")
    with pytest.raises(InvalidRecord):
        LogRecord(t_ns=1, job_id="j", source="s", severity="fatal", message="x")


# the round-trip contract over generator output: parse(serialize(x)) == x
# field-exact and serialize(parse(line)) == line byte-exact
def test_round_trip_over_generator_records():
    profiles = builtin_profiles()
    total = 0
    for i, profile in enumerate(profiles):
        trace = gen_trace(profile, 30.0, f"job-{i}", seed=1000 + i)
        for rec in trace.records:
            line = serialize_line(rec)
            back = parse_line(line)
            assert back == rec
            assert serialize_line(back) == line
            total += 1
    assert total >= 10000


# --- hypothesis round-trip over arbitrary valid records ---------------------------

name_st = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=32)
job_st = st.text(min_size=1, max_size=64).filter(lambda s: s.strip() != "")
msg_st = st.text(max_size=200).filter(lambda s: "\n" not in s)


@st.composite
def any_record(draw):
    kind = draw(st.sampled_from(["sys", "res", "log"]))
    t_ns = draw(st.integers(min_value=0, max_value=2**62))
    job = draw(job_st)
    if kind == "sys":
        direction = draw(st.sampled_from([ENTER, EXIT]))
        return SyscallEvent(
            t_ns=t_ns,
            job_id=job,
            pid=draw(st.integers(1, 2**31)),
            tid=draw(st.integers(1, 2**31)),
            name=draw(name_st),
            direction=direction,
            args_digest=draw(st.text(max_size=64)),
            retval=draw(st.integers(-(2**31), 2**31)) if direction == EXIT else None,
        )
    if kind == "res":
        return ResourceSample(
            t_ns=t_ns,
            job_id=job,
            cpu_pct=draw(st.floats(min_value=0, max_value=1e6, allow_nan=False)),
            rss_bytes=draw(st.integers(0, 2**40)),
            net_rx_bytes=draw(st.integers(0, 2**40)),
            net_tx_bytes=draw(st.integers(0, 2**40)),
            io_read_bytes=draw(st.integers(0, 2**40)),
            io_write_bytes=draw(st.integers(0, 2**40)),
        )
    return LogRecord(
        t_ns=t_ns,
        job_id=job,
        source=draw(st.text(max_size=64)),
        severity=draw(st.sampled_from(["debug", "info", "warn", "error"])),
        message=draw(msg_st),
    )


@given(any_record())
@settings(max_examples=300, deadline=None)
def test_round_trip_property(rec):
    line = serialize_line(rec)
    assert "\n" not in line
    assert parse_line(line) == rec
    assert serialize_line(parse_line(line)) == line


# --- validate_trace ---------------------------------------------------------------

def make_trace(records, job_id="j1"):
    return LabeledTrace(job_id=job_id, label="normal", profile_name="", records=tuple(records))


def test_validate_empty_trace():
    assert validate_trace(make_trace([])) == []


def test_validate_counter_regression():
    a = res_sample(t_ns=1, net_rx_bytes=10)
    b = res_sample(t_ns=2, net_rx_bytes=5)
    violations = validate_trace(make_trace([a, b]))
    assert [v.kind for v in violations] == ["CounterRegression"]
    assert violations[0].index == 1


def test_validate_job_id_mismatch():
    violations = validate_trace(make_trace([sys_event(job_id="other")]))
    assert [v.kind for v in violations] == ["JobIdMismatch"]


def test_validate_shuffled_trace_reports_order_violation():
    profile = builtin_profiles()[0]
    trace = gen_trace(profile, 10.0, "job-s", seed=3)
    records = list(trace.records)[:100]
    rng = random.Random(8)
    for attempt in range(20):
        shuffled = records[:]
        rng.shuffle(shuffled)
        if [r.t_ns for r in shuffled] != sorted(r.t_ns for r in shuffled):
            violations = validate_trace(make_trace(shuffled, job_id="job-s"))
            assert any(v.kind == "OrderViolation" for v in violations)
            return
    pytest.fail("shuffle never produced an unsorted order")


def brute_force_valid(trace) -> bool:
    """O(n^2) oracle: every pairwise ordering / job / counter constraint."""
    recs = trace.records
    for i in range(len(recs)):
        if recs[i].job_id != trace.job_id:
            return False
        for j in range(i + 1, len(recs)):
            if recs[i].t_ns > recs[j].t_ns:
                return False
    samples = [r for r in recs if isinstance(r, ResourceSample)]
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            for counter in ("net_rx_bytes", "net_tx_bytes", "io_read_bytes", "io_write_bytes"):
                if getattr(samples[i], counter) > getattr(samples[j], counter):
                    return False
    return True


def test_validate_agrees_with_brute_force_on_random_traces():
    rng = random.Random(17)
    for _ in range(200):
        records = []
        counters = [0, 0, 0, 0]
        t = 0
        for _ in range(rng.randrange(0, 15)):
            t += rng.randrange(-2, 10)  # occasionally goes backwards
            t = max(t, 0)
            if rng.random() < 0.5:
                records.append(sys_event(t_ns=t, job_id="j1" if rng.random() < 0.9 else "zz"))
            else:
                for k in range(4):
                    counters[k] += rng.randrange(-3, 10)  # occasionally regresses
                    counters[k] = max(counters[k], 0)
                records.append(
                    res_sample(
                        t_ns=t,
                        net_rx_bytes=counters[0],
                        net_tx_bytes=counters[1],
                        io_read_bytes=counters[2],
                        io_write_bytes=counters[3],
                    )
                )
        trace = make_trace(records)
        assert (validate_trace(trace) == []) == brute_force_valid(trace)


# --- the scan: canonical syscall lines without parse_line ---------------------------

def per_line_reference(path):
    """parse_line on every non-blank line of the file read in text mode: the reference for both readers."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(parse_line(line))
            except MalformedLine as exc:
                err = MalformedLine(f"{path}:{lineno}: {exc}", offset=exc.offset)
                err.lineno = lineno
                raise err from None
    return out


def column_view(trace):
    """Each row of TraceColumns as (t_ns, kind, name, (pid, tid), enter), (t_ns, kind, sample) or (t_ns, kind)."""
    samples = iter(trace.samples)
    rows = []
    cols = (trace.t_ns, trace.kind, trace.name_id, trace.thread_id, trace.enter)
    for t_ns, kind, name, thread, enter in zip(*(c.tolist() for c in cols)):
        if kind == SYS_ROW:
            rows.append((t_ns, "sys", trace.names[name], trace.threads[thread], enter))
        elif kind == RES_ROW:
            rows.append((t_ns, "res", next(samples)))
        else:
            rows.append((t_ns, "log"))
    assert next(samples, None) is None
    return rows


def test_trace_columns_compare_by_identity():
    records = [sys_event(t_ns=100), sys_event(t_ns=200, direction=EXIT, retval=0)]
    a, b = TraceColumns.from_records(records, "j1"), TraceColumns.from_records(records, "j1")
    assert a == a
    assert a != b  # no element-wise comparison of the numpy columns
    assert column_view(a) == column_view(b)


def record_view(records):
    """The rows column_view expects for these records."""
    rows = []
    for rec in records:
        if isinstance(rec, SyscallEvent):
            rows.append((rec.t_ns, "sys", rec.name, (rec.pid, rec.tid), rec.direction == ENTER))
        elif isinstance(rec, ResourceSample):
            rows.append((rec.t_ns, "res", rec))
        else:
            rows.append((rec.t_ns, "log"))
    return rows


def read_columns(path):
    return column_view(read_trace_columns(path, "j1"))


def reference_columns(path):
    return record_view(per_line_reference(path))


def outcome(read, path):
    """The records read, or the error's type, message, offset and line number."""
    try:
        return read(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "offset", None), getattr(exc, "lineno", None)


def plain(s: str) -> bool:
    """True when serialize_line writes ``s`` without an escape sequence."""
    return not any(c in '"\\' or ord(c) < 0x20 for c in s)


@given(
    t_ns=st.integers(-(10**22), 10**22),
    job_id=st.text(min_size=1, max_size=64),
    pid=st.integers(1, 2**63),
    tid=st.integers(1, 2**63),
    name=name_st,
    args=st.text(max_size=256),
    retval=st.one_of(st.none(), st.integers(-(2**63), 2**63)),
)
@settings(max_examples=500, deadline=None)
def test_fast_path_equals_parse_line_property(tmp_path_factory, t_ns, job_id, pid, tid, name, args, retval):
    """read_trace_columns reads a canonical syscall line without parse_line, to the columns of its record."""
    rec = SyscallEvent(
        t_ns=t_ns, job_id=job_id, pid=pid, tid=tid, name=name,
        direction=ENTER if retval is None else EXIT, args_digest=args, retval=retval,
    )
    line = serialize_line(rec) + "\n"
    path = tmp_path_factory.getbasetemp() / "property.trc"
    path.write_bytes(line.encode("utf-8"))
    records = read_trace_file(path)
    with mock.patch("warden.records.parse_line", wraps=parse_line) as spy:
        columns = read_columns(path)
    fast = spy.call_count == 0
    assert records == [parse_line(line)] == [rec]
    assert type(records[0]) is SyscallEvent and hash(records[0]) == hash(rec)
    assert columns == record_view([rec])
    assert fast == (plain(job_id) and plain(args) and len(str(abs(t_ns))) <= 20)


ENTER_LINE = '{"kind":"sys","t_ns":100,"job_id":"j1","pid":7,"tid":8,"name":"read","dir":"enter","args":"ab"}'
EXIT_LINE = '{"kind":"sys","t_ns":101,"job_id":"j1","pid":7,"tid":8,"name":"read","dir":"exit","args":"ab","ret":-3}'

MUTATED_LINES = {
    "canonical enter": ENTER_LINE,
    "canonical exit": EXIT_LINE,
    "reordered keys": ENTER_LINE.replace('"kind":"sys","t_ns":100', '"t_ns":100,"kind":"sys"'),
    "escaped quote": ENTER_LINE.replace('"args":"ab"', '"args":"a\\"b"'),
    "escaped e-acute": ENTER_LINE.replace('"job_id":"j1"', '"job_id":"caf\\u00e9"'),
    "escaped tab": ENTER_LINE.replace('"args":"ab"', '"args":"a\\tb"'),
    "raw tab": ENTER_LINE.replace('"args":"ab"', '"args":"a\tb"'),
    "raw e-acute": ENTER_LINE.replace('"job_id":"j1"', '"job_id":"caf\u00e9"'),
    "raw DEL": ENTER_LINE.replace('"args":"ab"', '"args":"a\x7fb"'),
    "leading zero pid": ENTER_LINE.replace('"pid":7', '"pid":07'),
    "leading zero t_ns": ENTER_LINE.replace('"t_ns":100', '"t_ns":0100'),
    "minus zero t_ns": ENTER_LINE.replace('"t_ns":100', '"t_ns":-0'),
    "minus zero ret": EXIT_LINE.replace('"ret":-3', '"ret":-0'),
    "minus zero pid": ENTER_LINE.replace('"pid":7', '"pid":-0'),
    "zero tid": ENTER_LINE.replace('"tid":8', '"tid":0'),
    "exponent t_ns": ENTER_LINE.replace('"t_ns":100', '"t_ns":1e3'),
    "fraction pid": ENTER_LINE.replace('"pid":7', '"pid":7.0'),
    "unicode digits t_ns": ENTER_LINE.replace('"t_ns":100', '"t_ns":\u0661\u0662'),
    "21-digit t_ns": ENTER_LINE.replace('"t_ns":100', '"t_ns":' + "9" * 21),
    "5000-digit t_ns": ENTER_LINE.replace('"t_ns":100', '"t_ns":' + "1" * 5000),
    "ret on enter": ENTER_LINE[:-1] + ',"ret":0}',
    "no ret on exit": EXIT_LINE.replace(',"ret":-3', ""),
    "32-char name": ENTER_LINE.replace('"name":"read"', '"name":"' + "r" * 32 + '"'),
    "33-char name": ENTER_LINE.replace('"name":"read"', '"name":"' + "r" * 33 + '"'),
    "uppercase name": ENTER_LINE.replace('"name":"read"', '"name":"Read"'),
    "256-char args": ENTER_LINE.replace('"args":"ab"', '"args":"' + "a" * 256 + '"'),
    "257-char args": ENTER_LINE.replace('"args":"ab"', '"args":"' + "a" * 257 + '"'),
    "64-char job_id": ENTER_LINE.replace('"job_id":"j1"', '"job_id":"' + "j" * 64 + '"'),
    "65-char job_id": ENTER_LINE.replace('"job_id":"j1"', '"job_id":"' + "j" * 65 + '"'),
    "empty job_id": ENTER_LINE.replace('"job_id":"j1"', '"job_id":""'),
    "unknown dir": ENTER_LINE.replace('"dir":"enter"', '"dir":"both"'),
    "extra field": ENTER_LINE[:-1] + ',"extra":1}',
    "trailing spaces": ENTER_LINE + "  ",
    "leading space": " " + ENTER_LINE,
    "space after colon": ENTER_LINE.replace('"pid":7', '"pid": 7'),
    "no closing brace": ENTER_LINE[:-1],
    "resource sample": serialize_line(res_sample(t_ns=100, job_id="j1")),
    "log line": '{"kind":"log","t_ns":100,"job_id":"j1","source":"s","severity":"info","message":"m"}',
    "blank": "",
    "whitespace only": " \t ",
}


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("mutation", sorted(MUTATED_LINES))
def test_read_trace_file_matches_per_line_parse_on_mutated_lines(tmp_path, mutation, newline):
    path = tmp_path / "mutated.trc"
    lines = [ENTER_LINE, EXIT_LINE, MUTATED_LINES[mutation], ENTER_LINE]
    path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode())
    assert outcome(read_trace_file, path) == outcome(per_line_reference, path)
    assert outcome(read_columns, path) == outcome(reference_columns, path)


def test_integer_past_the_digit_limit_is_a_malformed_line(tmp_path):
    path = tmp_path / "long-int.trc"
    path.write_text("\n".join([ENTER_LINE, EXIT_LINE, MUTATED_LINES["5000-digit t_ns"]]) + "\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as exc:
        read_trace_file(path)
    assert str(exc.value).startswith(f"{path}:3: invalid number: ")
    assert exc.value.lineno == 3


def test_seed7_corpus_parses_to_equal_records_both_ways(small_corpus, monkeypatch):
    import warden.records as records_module

    paths = [os.path.join(small_corpus["dir"], e["file"]) for e in small_corpus["manifest"]["entries"]]
    expected = [per_line_reference(p) for p in paths]
    assert [read_trace_file(p) for p in paths] == expected
    slow_lines = []
    real_parse_line = records_module.parse_line
    monkeypatch.setattr(records_module, "parse_line", lambda line: slow_lines.append(line) or real_parse_line(line))
    assert [read_columns(p) for p in paths] == [record_view(records) for records in expected]
    syscalls = sum(isinstance(r, SyscallEvent) for records in expected for r in records)
    assert syscalls > 10000
    # every syscall line took the tail check; only res and log lines reached parse_line
    assert len(slow_lines) == sum(map(len, expected)) - syscalls


@pytest.mark.parametrize("block_bytes", [7, 64, 1 << 16])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_scan_blocks_match_per_line_parse(tmp_path, monkeypatch, block_bytes, newline):
    # blocks smaller than a line, a blank line, a log line and no newline at the end
    monkeypatch.setattr("warden.records._BLOCK_BYTES", block_bytes)
    log = '{"kind":"log","t_ns":102,"job_id":"j1","source":"s","severity":"info","message":"m"}'
    lines = [ENTER_LINE, EXIT_LINE, "", log, serialize_line(res_sample(t_ns=103)), MUTATED_LINES["reordered keys"]]
    path = tmp_path / "blocks.trc"
    path.write_bytes(newline.join(lines * 20).encode("utf-8"))
    assert read_trace_file(path) == per_line_reference(path)
    assert read_columns(path) == reference_columns(path)


@pytest.mark.parametrize("block_bytes", [7, 1 << 16])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("read", [read_trace_file, read_columns], ids=["records", "columns"])
def test_bytes_that_are_not_utf8_are_a_malformed_line(tmp_path, monkeypatch, block_bytes, newline, read):
    monkeypatch.setattr("warden.records._BLOCK_BYTES", block_bytes)
    path = tmp_path / "binary.trc"
    bad = ENTER_LINE.encode().replace(b'"ab"', b'"a\xffb"')
    path.write_bytes(newline.encode().join([ENTER_LINE.encode(), b"", EXIT_LINE.encode(), bad, ENTER_LINE.encode()]))
    with pytest.raises(MalformedLine) as exc:
        read(path)
    assert str(exc.value) == f"{path}:4: invalid UTF-8: invalid start byte"
    assert exc.value.lineno == 4
    assert exc.value.offset == bad.index(b"\xff")


def test_a_malformed_line_before_bad_bytes_is_reported_first(tmp_path):
    path = tmp_path / "binary.trc"
    path.write_bytes(b"\n".join([ENTER_LINE.encode(), b"{nope}", b"\xff\xfe"]))
    with pytest.raises(MalformedLine) as exc:
        read_trace_file(path)
    assert exc.value.lineno == 2 and "invalid object syntax" in str(exc.value)


def test_columns_keep_integers_beyond_int64(tmp_path):
    big = 2**64 + 5
    records = [
        sys_event(t_ns=big, pid=2**70, tid=1),
        sys_event(t_ns=big + 1, pid=2**70, tid=1, name="write"),
        res_sample(t_ns=big + 2),
    ]
    path = tmp_path / "big.trc"
    path.write_text("".join(serialize_line(r) + "\n" for r in records), encoding="utf-8")
    trace = read_trace_columns(path, "j1")
    assert trace.t_ns.dtype == object
    assert column_view(trace) == record_view(records)


# --- raw columns: the bulk tail check against one record at a time -----------------

def loop_columns(records, job_id):
    """TraceColumns built one record at a time, names and threads numbered as first met: the oracle."""
    t_ns, kind, name_id, thread_id, enter, samples, logs = ([] for _ in range(7))
    names, threads = {}, {}
    for rec in records:
        event, sample = isinstance(rec, SyscallEvent), isinstance(rec, ResourceSample)
        t_ns.append(rec.t_ns)
        kind.append(SYS_ROW if event else RES_ROW if sample else LOG_ROW)
        name_id.append(names.setdefault(rec.name, len(names)) if event else 0)
        thread_id.append(threads.setdefault((rec.pid, rec.tid), len(threads)) if event else 0)
        enter.append(event and rec.direction == ENTER)
        if not event:
            (samples if sample else logs).append(rec)
    try:
        stamps = np.array(t_ns, dtype=np.int64)
    except OverflowError:
        stamps = np.array(t_ns, dtype=object)
    return TraceColumns(
        job_id, stamps, np.array(kind, dtype=np.int8), np.array(name_id, dtype=np.int64),
        np.array(thread_id, dtype=np.int64), np.array(enter, dtype=bool),
        tuple(names), tuple(threads), tuple(samples), tuple(logs),
    )


def raw_columns(columns):
    """Every field of TraceColumns, each array as its dtype and values."""
    arrays = (columns.t_ns, columns.kind, columns.name_id, columns.thread_id, columns.enter)
    return (
        columns.job_id, [(a.dtype.str, a.tolist()) for a in arrays],
        columns.names, columns.threads, columns.samples, columns.logs,
    )


def raw_read(path):
    return raw_columns(read_trace_columns(path, "j1"))


def raw_reference(path):
    records = per_line_reference(path)
    reference = raw_columns(TraceColumns.from_records(records, "j1"))
    assert reference == raw_columns(loop_columns(records, "j1"))
    return reference


ARGS_CHOICES = ["", "plain", "/etc/passwd", 'a"b', "a\\b", "tab\there", "café", "x" * 256]


@st.composite
def line_spec(draw):
    """How to write one line of any t_ns: ``render(spec, t_ns)`` gives the line, without its end."""
    style = draw(st.sampled_from(["canonical"] * 4 + ["reordered", "escaped", "res", "log", "blank"]))
    if style == "blank":
        return style, draw(st.sampled_from(["", " ", "\t "]))
    if style in ("res", "log"):
        return style, draw(st.integers(0, 3))
    exit_ = draw(st.booleans())
    fields = {
        "job_id": "j1",
        "pid": draw(st.integers(1, 3)),
        "tid": draw(st.integers(1, 3)),
        "name": draw(st.sampled_from(["read", "write", "openat", "x"])),
        "dir": EXIT if exit_ else ENTER,
        "args": draw(st.sampled_from(ARGS_CHOICES)),
    }
    if exit_:
        fields["ret"] = draw(st.integers(-3, 3))
    order = draw(st.permutations(list(fields))) if style == "reordered" else list(fields)
    return style, (fields, order)


def render(spec, t_ns: int) -> str:
    style, detail = spec
    if style == "blank":
        return detail
    if style == "res":
        return serialize_line(res_sample(t_ns=t_ns, rss_bytes=detail))
    if style == "log":
        return serialize_line(LogRecord(t_ns=t_ns, job_id="j1", source="s", severity="info", message=f"m{detail}"))
    fields, order = detail
    obj = {"kind": "sys", "t_ns": t_ns, **{key: fields[key] for key in order}}
    line = json.dumps(obj, separators=(",", ":"), ensure_ascii=False)
    args = fields["args"]
    if style == "escaped" and args:  # the first args character as a \u escape
        rest = json.dumps(args[1:], ensure_ascii=False)[1:]
        line = line.replace(f'"args":{json.dumps(args, ensure_ascii=False)}', f'"args":"\\u{ord(args[0]):04x}{rest}')
    return line


@given(
    specs=st.lists(st.tuples(line_spec(), st.sampled_from(["\n", "\r\n", "\r"])), min_size=1, max_size=12),
    past_a_block=st.booleans(),
    known_tails=st.sampled_from([1, 8, 1 << 14]),
)
@settings(max_examples=60, deadline=None)
def test_raw_columns_equal_the_per_record_build_property(tmp_path_factory, specs, past_a_block, known_tails):
    """The same spec list is written over and over, so its tails repeat in every 64-KiB block."""
    one_pass = sum(len(render(spec, 10**9)) + len(end) for spec, end in specs)
    passes = 1 + (3 * (1 << 16)) // max(one_pass, 1) if past_a_block else 1
    t_ns = itertools.count(10**9, 997)
    text = "".join(render(spec, next(t_ns)) + end for _ in range(passes) for spec, end in specs)
    path = tmp_path_factory.getbasetemp() / "raw-columns.trc"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch("warden.records._KNOWN_TAILS", known_tails):
        assert outcome(raw_read, path) == outcome(raw_reference, path)
        assert outcome(read_trace_file, path) == outcome(per_line_reference, path)


def test_ids_number_by_first_row_when_a_parsed_line_brings_a_name_and_thread_in(tmp_path):
    # the reordered line is parsed after its block's tails are checked, yet its
    # name and thread come first in the file, so they take id 0
    write = ENTER_LINE.replace('"name":"read"', '"name":"write"').replace('"pid":7,"tid":8', '"pid":9,"tid":9')
    reordered = write.replace('"kind":"sys","t_ns":100', '"t_ns":100,"kind":"sys"')
    path = tmp_path / "trap.trc"
    path.write_text("\n".join([reordered, ENTER_LINE, write, EXIT_LINE]) + "\n", encoding="utf-8")
    columns = read_trace_columns(path, "j1")
    assert columns.names == ("write", "read") and columns.threads == ((9, 9), (7, 8))
    assert columns.name_id.tolist() == [0, 1, 0, 1] and columns.thread_id.tolist() == [0, 1, 0, 1]
    assert raw_read(path) == raw_reference(path)


def test_an_empty_trace_reads_to_empty_columns(tmp_path):
    for name, text in (("empty.trc", ""), ("blank.trc", "\n \n\r\n")):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert raw_read(path) == raw_reference(path) == raw_columns(loop_columns([], "j1"))
        assert read_trace_file(path) == []


BAD_LINES = {
    "zero pid": ENTER_LINE.replace('"pid":7', '"pid":0'),
    "ret on enter": MUTATED_LINES["ret on enter"],
    "257-char args": MUTATED_LINES["257-char args"],
    "leading zero t_ns": ENTER_LINE.replace('"t_ns":100', '"t_ns":01'),
    "21-digit t_ns": MUTATED_LINES["21-digit t_ns"],  # valid: parse_line reads integers of any size
}


def later_block_trace(path, bad: bytes) -> int:
    """Write ``bad`` after 1,400 repeated canonical lines, past two 64-KiB blocks; return its line number."""
    head = "\n".join([ENTER_LINE, EXIT_LINE] * 700).encode()
    assert len(head) > 2 * (1 << 16)
    path.write_bytes(head + b"\n" + bad + b"\n" + "\n".join([EXIT_LINE, ENTER_LINE] * 5).encode() + b"\n")
    return 1401


@pytest.mark.parametrize("bad", sorted(BAD_LINES))
@pytest.mark.parametrize("read,reference", [(read_trace_file, per_line_reference), (raw_read, raw_reference)], ids=["records", "columns"])
def test_a_bad_line_in_a_later_block_is_located_as_parse_line_locates_it(tmp_path, bad, read, reference):
    path = tmp_path / "later.trc"
    lineno = later_block_trace(path, BAD_LINES[bad].encode())
    got, want = outcome(read, path), outcome(reference, path)
    assert got == want
    if bad != "21-digit t_ns":
        assert want[0] == "MalformedLine" and want[3] == lineno and want[1].startswith(f"{path}:{lineno}: ")


@pytest.mark.parametrize("line", [ENTER_LINE[:-1] + ',"ret":null}', EXIT_LINE.replace('"ret":-3', '"ret":null')], ids=["enter", "exit"])
def test_ret_null_is_rejected_at_ret_by_every_reader(tmp_path, line):
    offset = line.encode().index(b'"ret"')
    with pytest.raises(MalformedLine) as exc:
        parse_line(line)
    assert exc.value.offset == offset
    path = tmp_path / "ret-null.trc"
    path.write_text("\n".join([ENTER_LINE, line, EXIT_LINE]) + "\n", encoding="utf-8")
    for read in (read_trace_file, read_columns):
        with pytest.raises(MalformedLine) as exc:
            read(path)
        assert (exc.value.lineno, exc.value.offset) == (2, offset)
        assert str(exc.value).startswith(f"{path}:2: ")


@pytest.mark.parametrize("read", [read_trace_file, read_columns], ids=["records", "columns"])
def test_bytes_that_are_not_utf8_in_a_later_block_are_located(tmp_path, read):
    path = tmp_path / "later-binary.trc"
    bad = ENTER_LINE.encode().replace(b'"ab"', b'"a\xffb"')
    lineno = later_block_trace(path, bad)
    with pytest.raises(MalformedLine) as exc:
        read(path)
    assert (str(exc.value), exc.value.lineno, exc.value.offset) == (
        f"{path}:{lineno}: invalid UTF-8: invalid start byte", lineno, bad.index(b"\xff"),
    )


def test_a_trace_of_distinct_args_on_every_line_reads_to_the_reference(tmp_path):
    # every tail is new, so the map of checked tails fills and is cleared several times
    rows = [
        (10**9 + i, 1 + i % 4, ("read", "write", "openat")[i % 3], f"/data/file-{i:06d}", None if i % 2 == 0 else i % 7 - 3)
        for i in range(60_000)
    ]
    path = tmp_path / "distinct.trc"
    write_trace_rows(path, "job-0001", 4242, rows)
    records = per_line_reference(path)
    assert raw_read(path) == raw_columns(TraceColumns.from_records(records, "j1")) == raw_columns(loop_columns(records, "j1"))
    assert read_trace_file(path) == records


def test_the_map_of_checked_tails_is_cleared_when_full(tmp_path, monkeypatch):
    import warden.records as records_module

    monkeypatch.setattr(records_module, "_BLOCK_BYTES", 1024)
    monkeypatch.setattr(records_module, "_KNOWN_TAILS", 64)
    path = tmp_path / "distinct.trc"
    write_trace_rows(path, "j1", 7, [(i, 1, "read", f"a{i}", None) for i in range(2000)])
    sizes = [len(known) for *_, known in records_module._scan(path, str)]
    assert max(sizes) <= 64 and sizes[-1] < max(sizes)
