"""Coordinator: ingest dedup, pagination, request bounds, durability, crash recovery."""

from __future__ import annotations

import errno
import http.client
import json
import os
import pathlib
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warden import coordinator
from warden.coordinator import (
    IDLE_CONNECTIONS,
    MAX_BODY_BYTES,
    MAX_LIMIT,
    REQUEST_TIMEOUT_S,
    RETRY_DELAYS_S,
    CoordinatorClient,
    CoordinatorService,
    CoordinatorUnavailable,
    CorruptLedger,
    Rejected,
    make_server,
    read_ledger,
    recover,
)


def canonical(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def ledger_line(event: dict) -> str:
    """A ledger line built here: the canonical event with the crc of its canonical text embedded."""
    return canonical({**event, "crc": f"{zlib.crc32(canonical(event).encode('utf-8')):08x}"})


def alert_body(i, job="job-1"):
    return {
        "alert_id": f"{job}/{i}",
        "job_id": job,
        "t_ns": 1000 + i,
        "window_index": i,
        "score": 0.75,
        "model_id": "m1",
        "rule": "k-of-n:3/5",
        "action": "raise_alert",
    }


@pytest.fixture()
def live(tmp_path):
    server, service = make_server("127.0.0.1:0", tmp_path / "ledger.log")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = CoordinatorClient(f"http://127.0.0.1:{server.server_address[1]}")
    yield {"client": client, "service": service, "ledger": str(tmp_path / "ledger.log"),
           "address": server.server_address, "server": server}
    client.close()
    server.shutdown()
    server.server_close()
    service.close()


# --- registration ------------------------------------------------------------------

def test_register_idempotency_key(live):
    client = live["client"]
    a = client.register("host-a", idempotency_key="k1")
    b = client.register("host-a", idempotency_key="k1")
    c = client.register("host-a", idempotency_key="k2")
    d = client.register("host-a")
    assert a == b
    assert len({a, c, d}) == 3


def test_register_empty_hostname_is_400(live):
    with pytest.raises(Rejected) as exc:
        live["client"].register("")
    assert exc.value.status == 400
    assert not isinstance(exc.value, CoordinatorUnavailable)  # a rejection is not an outage


def test_parallel_registrations_all_distinct(live):
    client = live["client"]
    with ThreadPoolExecutor(max_workers=16) as pool:
        ids = list(pool.map(lambda i: client.register(f"host-{i}"), range(100)))
    assert len(set(ids)) == 100
    events = read_ledger(live["ledger"])
    assert sum(1 for e in events if e["event"] == "node") == 100


# --- alert ingest -------------------------------------------------------------------

def test_ingest_dedup_returns_first_record(live):
    client = live["client"]
    node = client.register("host-a")
    created1, rec1 = client.post_alert(node, alert_body(1))
    created2, rec2 = client.post_alert(node, alert_body(1))
    assert created1 is True and created2 is False
    assert rec1["seq"] == rec2["seq"] == 1
    events = [e for e in read_ledger(live["ledger"]) if e["event"] == "alert"]
    assert len(events) == 1


def test_ingest_unknown_node_404(live):
    with pytest.raises(Rejected) as exc:
        live["client"].post_alert("node-999", alert_body(1))
    assert exc.value.status == 404
    assert not isinstance(exc.value, CoordinatorUnavailable)  # a rejection is not an outage


def test_post_alert_with_score_2_is_rejected_with_422(live):
    client = live["client"]
    node = client.register("host-a")
    bad = alert_body(3)
    bad["score"] = 2  # a raw dict: Alert itself refuses scores above 1
    with pytest.raises(Rejected) as exc:
        client.post_alert(node, bad)
    assert exc.value.status == 422
    assert "score" in exc.value.body["error"]


def test_post_alert_transport_failure_is_unavailable(tmp_path, monkeypatch):
    server, service = make_server("127.0.0.1:0", tmp_path / "ledger.log")
    port = server.server_address[1]
    server.server_close()
    service.close()
    connects = []
    connect = coordinator._Connection.connect
    monkeypatch.setattr(coordinator._Connection, "connect", lambda c: connects.append(c) or connect(c))
    with pytest.raises(CoordinatorUnavailable):
        CoordinatorClient(f"http://127.0.0.1:{port}", timeout=2.0).post_alert("node-1", alert_body(1))
    assert len(connects) == 1  # a refused connection is not resent


def test_ingest_invalid_score_422(live):
    client = live["client"]
    node = client.register("host-a")
    bad = alert_body(2)
    bad["score"] = 1.5
    with pytest.raises(Rejected) as exc:
        client._request("POST", "/v1/alerts", {**bad, "node_id": node})
    assert exc.value.status == 422


@pytest.mark.parametrize(
    "field, value",
    [("job_id", ["job-1"]), ("t_ns", True), ("window_index", False), ("model_id", {"m": 1}), ("rule", None), ("action", 3),
     pytest.param("score", 10**400, id="score-beyond-float-range")],
)
def test_alert_field_of_the_wrong_type_is_422_and_not_stored(tmp_path, field, value):
    service = CoordinatorService(tmp_path / "ledger.log")
    _, node = service.register_node("host-a")
    status, body = service.ingest_alert(node["node_id"], {**alert_body(1), field: value})
    service.close()
    assert status == 422 and field in body["error"]
    assert not [e for e in read_ledger(tmp_path / "ledger.log") if e["event"] == "alert"]


def raw_post(address, path: str, body: dict) -> tuple[int, dict]:
    """(status, reply) of one POST through http.client; the body is sent as ASCII JSON, escapes kept."""
    connection = http.client.HTTPConnection(*address, timeout=5.0)
    try:
        connection.request("POST", path, body=json.dumps(body), headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


# bodies that once got no reply: the server thread raised and closed the connection
UNREPLIED = [
    ("list node_id", "/v1/alerts", {**alert_body(1), "node_id": ["node-1"]}, 422, "node_id"),
    ("lone surrogate in an alert string", "/v1/alerts", {**alert_body(1), "node_id": "node-1", "job_id": "\ud800"},
     422, "job_id"),
    ("lone surrogate in alert_id", "/v1/alerts", {**alert_body(1), "node_id": "node-1", "alert_id": "a\udfff"},
     422, "alert_id"),
    ("lone surrogate in hostname", "/v1/nodes", {"hostname": "h\ud800"}, 400, "hostname"),
]


@pytest.mark.parametrize("path, body, status, field", [case[1:] for case in UNREPLIED], ids=[c[0] for c in UNREPLIED])
def test_body_that_got_no_reply_is_answered_over_http_and_appends_nothing(live, path, body, status, field):
    live["client"].register("host-a")
    ledger = pathlib.Path(live["ledger"])
    before = ledger.read_bytes()
    reply_status, reply = raw_post(live["address"], path, body)
    assert reply_status == status and reply["error"].startswith(field), reply
    assert ledger.read_bytes() == before
    assert live["client"].register("host-b") == "node-2"  # the server still answers; no node number skipped


@pytest.mark.parametrize("path, body, status, field", [case[1:] for case in UNREPLIED], ids=[c[0] for c in UNREPLIED])
def test_body_that_got_no_reply_is_answered_in_process_and_appends_nothing(tmp_path, path, body, status, field):
    service = CoordinatorService(tmp_path / "ledger.log")
    service.register_node("host-a")
    before = (tmp_path / "ledger.log").read_bytes()
    if path == "/v1/nodes":
        reply_status, reply = service.register_node(body["hostname"])
    else:
        reply_status, reply = service.ingest_alert(body["node_id"], body)
    assert reply_status == status and reply["error"].startswith(field), reply
    assert (tmp_path / "ledger.log").read_bytes() == before
    assert service.register_node("host-b")[1]["node_id"] == "node-2"
    service.close()


def test_alert_without_node_id_over_http_is_422_naming_it(live):
    live["client"].register("host-a")
    status, reply = raw_post(live["address"], "/v1/alerts", alert_body(1))
    assert status == 422 and reply["error"].startswith("node_id")


def test_server_error_is_unavailable(live, monkeypatch):
    monkeypatch.setattr(live["service"], "health", lambda: (503, {"error": "draining"}))
    with pytest.raises(CoordinatorUnavailable):
        live["client"].health()


def test_concurrent_distinct_posts_dense_seq(live):
    client = live["client"]
    node = client.register("host-a")
    with ThreadPoolExecutor(max_workers=16) as pool:
        results = list(pool.map(lambda i: client.post_alert(node, alert_body(i)), range(100)))
    assert all(created for created, _ in results)
    seqs = sorted(rec["seq"] for _, rec in results)
    assert seqs == list(range(1, 101))


def test_concurrent_duplicate_posts_single_entry(live):
    client = live["client"]
    node = client.register("host-a")
    with ThreadPoolExecutor(max_workers=16) as pool:
        results = list(pool.map(lambda _: client.post_alert(node, alert_body(7)), range(50)))
    assert sum(1 for created, _ in results if created) == 1
    assert len({rec["seq"] for _, rec in results}) == 1


# --- listing ------------------------------------------------------------------------

def test_list_empty_store(live):
    page = live["client"].list_alerts()
    assert page == {"alerts": [], "next_seq": 0}


def test_list_since_last_is_empty(live):
    client = live["client"]
    node = client.register("host-a")
    for i in range(5):
        client.post_alert(node, alert_body(i))
    page = client.list_alerts(since_seq=5)
    assert page["alerts"] == [] and page["next_seq"] == 5


def test_pagination_enumerates_everything_once(live):
    client = live["client"]
    node = client.register("host-a")
    for i in range(35):
        client.post_alert(node, alert_body(i))
    pages = []
    cursor = 0
    while True:
        page = client.list_alerts(since_seq=cursor, limit=10)
        if not page["alerts"]:
            break
        pages.append(page["alerts"])
        cursor = page["next_seq"]
    assert [len(p) for p in pages] == [10, 10, 10, 5]
    seen = [rec["seq"] for page in pages for rec in page]
    assert seen == list(range(1, 36))


def test_list_filters_and_bad_limit(live):
    client = live["client"]
    node = client.register("host-a")
    client.post_alert(node, alert_body(0, job="job-a"))
    client.post_alert(node, alert_body(1, job="job-b"))
    page = client.list_alerts(job_id="job-b")
    assert [r["job_id"] for r in page["alerts"]] == ["job-b"]
    with pytest.raises(Rejected) as exc:
        client.list_alerts(limit=5000)
    assert exc.value.status == 400
    with pytest.raises(Rejected) as exc:
        client._request("GET", "/v1/alerts?limit=abc")
    assert exc.value.status == 400


# --- routes and request bounds -------------------------------------------------------

def test_removed_command_routes_answer_404(live):
    client = live["client"]
    node = client.register("host-a")
    for method, path, body in (
        ("POST", "/v1/jobs/job-1/actions", {"node_id": node, "action": "terminate"}),
        ("GET", f"/v1/nodes/{node}/commands", None),
        ("POST", "/v1/commands/cmd-1/ack", {}),
    ):
        with pytest.raises(Rejected) as exc:
            client._request(method, path, body)
        assert exc.value.status == 404
        assert exc.value.body["error"].startswith(f"no route for {method}")


def raw_post_nodes(address, content_length: bytes, body: bytes, end_body: bool = True) -> bytes:
    """One POST /v1/nodes over a raw socket; the reply bytes up to the server's close."""
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(
            b"POST /v1/nodes HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
            b"Content-Length: " + content_length + b"\r\n\r\n" + body
        )
        if end_body:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    return reply


def test_bad_content_length_is_400_and_registers_nothing(live):
    for length in (b"-1", b"abc"):
        reply = raw_post_nodes(live["address"], length, b'{"hostname":"h"}')
        assert reply.startswith(b"HTTP/1.1 400 "), (length, reply)
        assert b"\r\nConnection: close\r\n" in reply  # the body's end is unknown: a client must not reuse it
    assert live["service"].state.nodes == {}


def test_a_long_bad_content_length_gets_a_short_400(live):
    reply = raw_post_nodes(live["address"], b"a" * 60_000, b'{"hostname":"h"}')
    assert reply.startswith(b"HTTP/1.1 400 "), reply[:200]
    _, _, body = reply.partition(b"\r\n\r\n")
    assert 0 < len(body) < 1024
    assert json.loads(body)["error"].startswith("Content-Length must be a non-negative integer, got 'aaaa")


def test_oversized_content_length_is_413(live):
    reply = raw_post_nodes(live["address"], str(MAX_BODY_BYTES + 1).encode(), b'{"hostname":"h"}')
    assert reply.startswith(b"HTTP/1.1 413 "), reply
    assert b"\r\nConnection: close\r\n" in reply
    assert live["service"].state.nodes == {}


def test_body_shorter_than_content_length_is_closed_within_the_timeout(live, monkeypatch):
    assert 0 < coordinator._Handler.timeout == REQUEST_TIMEOUT_S
    monkeypatch.setattr(coordinator._Handler, "timeout", 0.5)  # the same mechanism, shorter
    start = time.monotonic()
    reply = raw_post_nodes(live["address"], b"100", b'{"hostname"', end_body=False)
    assert reply == b""  # closed without an answer, well before the client's 5-s timeout
    assert time.monotonic() - start < 4.0
    assert live["service"].state.nodes == {}


def test_a_client_reset_mid_body_prints_no_traceback(live, monkeypatch, capsys):
    server = live["server"]
    handled = threading.Event()
    shutdown_request = server.shutdown_request

    def shutdown_and_note(request):  # runs after the handler and any handle_error
        shutdown_request(request)
        handled.set()

    monkeypatch.setattr(server, "shutdown_request", shutdown_and_note)
    sock = socket.create_connection(live["address"], timeout=5.0)
    sock.sendall(b"POST /v1/nodes HTTP/1.1\r\nHost: test\r\nContent-Length: 100\r\n\r\n{")
    time.sleep(0.2)  # the server reads the headers and waits for the rest of the body
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()  # a zero linger time sends a reset
    assert handled.wait(5.0)
    assert "Traceback" not in capsys.readouterr().err
    assert live["client"].health() == {"status": "ok", "ledger_seq": 0}


def test_health_reports_ledger_seq(live):
    client = live["client"]
    assert client.health() == {"status": "ok", "ledger_seq": 0}
    node = client.register("host-a")
    client.post_alert(node, alert_body(1))
    assert client.health()["ledger_seq"] == 1


def test_health_shows_the_fail_stop(live, monkeypatch):
    client, service = live["client"], live["service"]
    node = client.register("host-a")
    fsync_fails_once(monkeypatch)
    with pytest.raises(CoordinatorUnavailable):
        client.post_alert(node, alert_body(1))  # 503
    assert service.health() == (503, {"status": "failed", "error": service._failure, "ledger_seq": 0})
    assert "ledger append failed" in service._failure
    with pytest.raises(CoordinatorUnavailable, match="503.*failed"):
        client.health()


# --- persistent connections ---------------------------------------------------------

def count_connections(monkeypatch, server) -> list:
    """The client addresses of the connections the server accepts from now on."""
    opened = []
    accept = server.process_request

    def process_request(request, client_address):
        opened.append(client_address)
        return accept(request, client_address)

    monkeypatch.setattr(server, "process_request", process_request)
    return opened


def test_serial_posts_share_one_connection(live, monkeypatch):
    opened = count_connections(monkeypatch, live["server"])
    client = live["client"]
    node = client.register("host-a")
    for i in range(200):
        assert client.post_alert(node, alert_body(i))[1]["seq"] == i + 1
    assert len(opened) == 1


class RecordingWriter:
    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)

    def flush(self):
        pass


def sent_reply(status, body, close_connection=False) -> bytes:
    """The one write _Handler._send makes for a reply."""
    handler = coordinator._Handler.__new__(coordinator._Handler)  # no socket: _send only writes
    handler.request_version = "HTTP/1.1"
    handler.requestline = "GET /v1/health HTTP/1.1"
    handler.close_connection = close_connection
    handler.wfile = RecordingWriter()
    handler._send(status, body)
    [reply] = handler.wfile.writes
    return reply


@pytest.mark.parametrize("close_connection", [False, True])
def test_each_reply_leaves_in_one_write(close_connection):
    for status, body in ((200, {"status": "ok", "ledger_seq": 0}), (404, {"error": "no route for GET /x"})):
        reply = sent_reply(status, body, close_connection)
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode())
        assert payload == (json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n").encode()
        assert f"\r\nContent-Length: {len(payload)}".encode() in head
        assert (b"\r\nConnection: close" in head) == close_connection


def sent_body(status, body) -> bytes:
    """The body _Handler._send writes, checked against the canonical encoding of the same dict."""
    payload = sent_reply(status, body).partition(b"\r\n\r\n")[2]
    assert payload == (coordinator._canonical(body) + "\n").encode("utf-8")
    return payload


def page_bodies(service, limit, **filters) -> list[bytes]:
    """Every page of one filter, with since_seq moved on by each page's next_seq."""
    bodies, cursor = [], 0
    while True:
        status, page = service.list_alerts(since_seq=cursor, limit=limit, **filters)
        assert status == 200
        bodies.append(sent_body(status, page))
        if len(page["alerts"]) < limit:
            return bodies
        cursor = page["next_seq"]


TEXT = st.text(alphabet=st.sampled_from("ab/-é日本\u2028\x00\"\\🜁"), max_size=5)
ALERT = st.fixed_dictionaries(
    {
        "alert_id": TEXT.filter(bool),
        "job_id": st.sampled_from(["job-1", "jöb-2", "作业-3"]),
        "t_ns": st.integers(0, 2**63 - 1),
        "window_index": st.integers(0, 10**6),
        "score": st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1])),
        "model_id": TEXT,
        "rule": TEXT,
        "action": TEXT,
    }
)


def every_page(service) -> list[list[bytes]]:
    filters = [{}, {"job_id": "jöb-2"}, {"node_id": "node-2"}, {"job_id": "job-1", "node_id": "node-1"}]
    return [page_bodies(service, limit, **f) for limit in (1, MAX_LIMIT) for f in filters]


@given(posts=st.lists(st.tuples(st.sampled_from(["node-1", "node-2"]), ALERT), min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_alert_replies_are_the_canonical_encoding_of_their_bodies(tmp_path_factory, posts):
    """201 and dedup 200 replies, and pages by job and by node at limit 1 and MAX_LIMIT, before and after a restart."""
    ledger = tmp_path_factory.mktemp("replies") / "ledger.log"
    first = {}  # (node_id, alert_id) -> (the alert first posted, its 201 reply body)
    service = CoordinatorService(ledger)
    try:
        service.register_node("host-a")
        service.register_node("host-b")
        for node_id, alert in posts:
            status, body = service.ingest_alert(node_id, alert)
            payload = sent_body(status, body)
            key = (node_id, alert["alert_id"])
            assert status == (200 if key in first else 201)
            assert first.setdefault(key, (alert, payload))[1] == payload
        live_pages = every_page(service)
    finally:
        service.close()
    service = CoordinatorService(ledger)
    try:
        assert every_page(service) == live_pages
        for (node_id, _), (alert, payload) in first.items():
            assert sent_body(*service.ingest_alert(node_id, alert)) == payload
    finally:
        service.close()


def test_post_after_the_server_dropped_an_idle_connection_succeeds(live, monkeypatch):
    monkeypatch.setattr(coordinator._Handler, "timeout", 0.3)  # REQUEST_TIMEOUT_S, shortened
    opened = count_connections(monkeypatch, live["server"])
    dropped = threading.Event()
    shutdown_request = live["server"].shutdown_request

    def record_drop(request):
        shutdown_request(request)
        dropped.set()

    monkeypatch.setattr(live["server"], "shutdown_request", record_drop)
    client = live["client"]
    node = client.register("host-a", idempotency_key="host-a")
    client.post_alert(node, alert_body(1))
    time.sleep(0.6)
    assert dropped.wait(timeout=5.0)  # the parked connection is closed on the server side
    created, record = client.post_alert(node, alert_body(2))
    assert created and record["seq"] == 2
    assert len(opened) == 2
    alert_ids = [e["alert_id"] for e in read_ledger(live["ledger"]) if e["event"] == "alert"]
    assert alert_ids == ["job-1/1", "job-1/2"]


def test_rejected_reply_keeps_the_connection(live, monkeypatch):
    opened = count_connections(monkeypatch, live["server"])
    client = live["client"]
    with pytest.raises(Rejected) as exc:
        client.post_alert("node-999", alert_body(1))
    assert exc.value.status == 404
    node = client.register("host-a", idempotency_key="host-a")
    bad = alert_body(2)
    bad["score"] = 2
    with pytest.raises(Rejected) as exc:
        client.post_alert(node, bad)
    assert exc.value.status == 422
    assert client.post_alert(node, alert_body(1))[0] is True
    assert len(opened) == 1


def test_reply_that_closes_the_connection_makes_the_client_reconnect(live, monkeypatch):
    read_body = coordinator._Handler._read_body

    def refuse_and_close(handler):
        read_body(handler)
        handler.close_connection = True  # as for a bad or oversized Content-Length
        return 400, {"error": "refused"}

    opened = count_connections(monkeypatch, live["server"])
    client = live["client"]
    assert client.health()["status"] == "ok"
    monkeypatch.setattr(coordinator._Handler, "_read_body", refuse_and_close)
    with pytest.raises(Rejected) as exc:
        client.register("host-a", idempotency_key="host-a")
    assert exc.value.status == 400 and exc.value.body == {"error": "refused"}
    assert client._idle == []  # closed on the reply's "Connection: close", not parked for a failed resend
    monkeypatch.setattr(coordinator._Handler, "_read_body", read_body)
    assert client.register("host-a", idempotency_key="host-a") == "node-1"
    assert len(opened) == 2


def fail_exchanges(monkeypatch, error) -> list:
    """Make every reply read raise error; returns the connections that tried, one per attempt."""
    attempts = []

    def read_reply(connection):
        attempts.append(connection)
        raise error

    monkeypatch.setattr(coordinator._Connection, "read_reply", read_reply)
    return attempts


def test_register_without_key_is_sent_once_on_a_reset(live, monkeypatch):
    attempts = fail_exchanges(monkeypatch, ConnectionResetError(104, "Connection reset by peer"))
    with pytest.raises(CoordinatorUnavailable):
        live["client"].register("host-a")
    assert len(attempts) == 1


def test_idempotent_request_is_resent_twice_on_fresh_connections(live, monkeypatch):
    sleeps = []
    monkeypatch.setattr(coordinator.time, "sleep", sleeps.append)
    client = live["client"]
    assert client.health()["status"] == "ok"  # parks a connection for the first attempt
    parked = list(client._idle)
    attempts = fail_exchanges(monkeypatch, ConnectionResetError("connection closed before the reply"))
    for request in (
        lambda: client.register("host-a", idempotency_key="host-a"),
        lambda: client.post_alert("node-1", alert_body(1)),
        client.health,
    ):
        attempts.clear()
        sleeps.clear()
        with pytest.raises(CoordinatorUnavailable):
            request()
        assert len(attempts) == 3 and len(set(map(id, attempts))) == 3
        assert len(sleeps) == 2 and all(0 <= s <= bound for s, bound in zip(sleeps, RETRY_DELAYS_S))
    assert sum(RETRY_DELAYS_S) < 0.1
    assert parked and not client._idle  # a failed connection is never parked


@pytest.mark.parametrize("error", [TimeoutError("timed out"), ValueError("garbled status line b'junk'")])
def test_timeout_or_garbled_reply_is_not_resent(live, monkeypatch, error):
    attempts = fail_exchanges(monkeypatch, error)
    with pytest.raises(CoordinatorUnavailable):
        live["client"].post_alert("node-1", alert_body(1))
    assert len(attempts) == 1


def test_shared_client_under_thread_churn(live):
    # more threads than idle slots, with frequent switches: a connection handed to two
    # threads at once would cross replies or break one
    client = live["client"]
    node = client.register("host-a")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2 * IDLE_CONNECTIONS) as pool:
            results = list(pool.map(lambda i: client.post_alert(node, alert_body(i)), range(400), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert [rec["alert_id"] for _, rec in results] == [f"job-1/{i}" for i in range(400)]
    assert sorted(rec["seq"] for _, rec in results) == list(range(1, 401))
    assert 0 < len(client._idle) <= IDLE_CONNECTIONS
    client.close()
    assert client._idle == []


# --- HTTP/1.1 framing, server side (raw sockets) --------------------------------------

def raw_exchange(address, request: bytes) -> bytes:
    """Send raw request bytes; the reply bytes up to the server's close (a 5-s wait for it fails the test)."""
    reply = b""
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(request)
        try:
            while chunk := sock.recv(65536):
                reply += chunk
        except ConnectionResetError:  # a server that refuses a request may close with bytes of it unread
            pass
    return reply


def nodes_request(body: bytes, fields: bytes) -> bytes:
    return b"POST /v1/nodes HTTP/1.1\r\nHost: test\r\n" + fields + b"\r\n" + body


HOSTNAME = b'{"hostname":"h"}'


@pytest.mark.parametrize("line", [b"GET /v1/health", b"POST /v1/nodes", b"GET /v1/health HTTP/1.1 extra",
                                  b"GET /v1/health HTTP/one", b"GET /v1/health HTTP/\xb2.1"])
def test_a_malformed_request_line_is_400_and_closed(live, line):
    reply = raw_exchange(live["address"], line + b"\r\nHost: test\r\n\r\n")
    assert reply.startswith(b"HTTP/1.1 400 ") and b"\r\nConnection: close\r\n" in reply, reply


def test_http_2_is_505(live):
    reply = raw_exchange(live["address"], b"GET /v1/health HTTP/2.0\r\n\r\n")
    assert reply.startswith(b"HTTP/1.1 505 "), reply


def test_a_header_line_over_64_kib_is_431(live):
    reply = raw_exchange(live["address"], b"GET /v1/health HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n")
    assert reply.startswith(b"HTTP/1.1 431 "), reply[:200]


@pytest.mark.parametrize("count, status", [(100, b"200"), (101, b"431")])
def test_more_than_100_header_lines_is_431(live, count, status):
    fields = b"".join(b"X-Field-%d: v\r\n" % i for i in range(count - 1)) + b"Connection: close\r\n"
    reply = raw_exchange(live["address"], b"GET /v1/health HTTP/1.1\r\n" + fields + b"\r\n")
    assert reply.startswith(b"HTTP/1.1 " + status + b" "), reply[:200]


@pytest.mark.parametrize("line", [b"no colon here", b"Content-Length : 16", b" folded: line"])
def test_a_header_line_without_a_colon_or_with_space_before_it_is_400(live, line):
    reply = raw_exchange(live["address"], nodes_request(HOSTNAME, b"Content-Length: 16\r\n" + line + b"\r\n"))
    assert reply.startswith(b"HTTP/1.1 400 "), reply
    assert live["service"].state.nodes == {}


def test_http_1_0_closes_unless_keep_alive(live):
    reply = raw_exchange(live["address"], b"GET /v1/health HTTP/1.0\r\n\r\nGET /v1/health HTTP/1.0\r\n\r\n")
    assert reply.count(b"HTTP/1.1 200 ") == 1 and b"\r\nConnection: close\r\n" in reply
    reply = raw_exchange(live["address"], b"GET /v1/health HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
                                          b"GET /v1/health HTTP/1.0\r\n\r\n")
    assert reply.count(b"HTTP/1.1 200 ") == 2


def test_connection_close_is_honoured(live):
    reply = raw_exchange(live["address"], b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n"
                                          b"GET /v1/health HTTP/1.1\r\n\r\n")
    assert reply.count(b"HTTP/1.1 200 ") == 1 and b"\r\nConnection: close\r\n" in reply


def test_expect_100_continue_gets_an_interim_100(live):
    reply = raw_exchange(live["address"], nodes_request(
        HOSTNAME, b"Content-Length: 16\r\nExpect: 100-continue\r\nConnection: close\r\n"))
    assert reply.startswith(b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 201 "), reply


def test_field_names_are_read_in_any_case(live):
    reply = raw_exchange(live["address"], nodes_request(
        HOSTNAME, b"cOnTeNt-LeNgTh: 16\r\nidempotency-KEY: key-1\r\nCONNECTION: close\r\n"))
    assert reply.startswith(b"HTTP/1.1 201 "), reply
    assert live["service"].state.idempotency == {"key-1": "node-1"}


def test_two_different_content_lengths_are_400_and_closed(live):
    request = nodes_request(HOSTNAME + b"GET /v1/health HTTP/1.1\r\n\r\n", b"Content-Length: 16\r\nContent-Length: 43\r\n")
    reply = raw_exchange(live["address"], request)
    assert reply.startswith(b"HTTP/1.1 400 ") and b"\r\nConnection: close\r\n" in reply, reply
    assert reply.count(b"HTTP/1.1 ") == 1
    assert live["service"].state.nodes == {}


def test_transfer_encoding_is_501_and_closed(live):
    # were the chunked body left unread, its bytes would be read as the next request
    request = nodes_request(b"10\r\n" + HOSTNAME + b"\r\n0\r\n\r\n", b"Transfer-Encoding: chunked\r\n")
    reply = raw_exchange(live["address"], request)
    assert reply.startswith(b"HTTP/1.1 501 ") and b"\r\nConnection: close\r\n" in reply, reply
    assert reply.count(b"HTTP/1.1 ") == 1
    assert live["service"].state.nodes == {}


def test_a_get_with_a_body_is_400_and_closed(live):
    # were the body left unread, the POST inside it would be served as the next request
    smuggled = nodes_request(HOSTNAME, b"Content-Length: %d\r\n" % len(HOSTNAME))
    request = b"GET /v1/health HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n" % len(smuggled) + smuggled
    reply = raw_exchange(live["address"], request)
    assert reply.startswith(b"HTTP/1.1 400 ") and b"\r\nConnection: close\r\n" in reply, reply
    assert reply.count(b"HTTP/1.1 ") == 1
    assert live["service"].state.nodes == {}
    empty = b"GET /v1/health HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    assert raw_exchange(live["address"], empty).startswith(b"HTTP/1.1 200 ")


def test_no_request_or_reply_goes_through_the_email_header_parser(live, monkeypatch):
    def parse_headers(*args, **kwargs):
        raise AssertionError("email header parser called")

    monkeypatch.setattr(http.client, "parse_headers", parse_headers)  # http.server's parser, and http.client's
    client = live["client"]
    node = client.register("host-a", idempotency_key="key-ü")
    assert client.post_alert(node, alert_body(1))[0] is True
    assert [a["alert_id"] for a in client.list_alerts()["alerts"]] == ["job-1/1"]
    assert client.health() == {"status": "ok", "ledger_seq": 1}
    assert live["service"].state.idempotency == {"key-ü": node}  # header values travel as Latin-1


def reply_parts(reply: bytes) -> tuple[bytes, dict[bytes, bytes], bytes]:
    """(status line, fields by lower-cased name, body) of one reply, with no second reply after it."""
    head, _, body = reply.partition(b"\r\n\r\n")
    status, *lines = head.split(b"\r\n")
    fields = {name.lower(): value.strip() for name, _, value in (line.partition(b":") for line in lines)}
    assert reply.count(b"HTTP/1.1 ") == 1 and int(fields[b"content-length"]) == len(body), reply
    return status, fields, body


@pytest.mark.parametrize("request_bytes, status", [
    (b"GET /v1/health HTTP/one\r\n\r\n", 400),
    (b"GET /v1/health HTTP/2.0\r\n\r\n", 505),
    (b"GET /v1/health HTTP/1.1\r\n" + b"".join(b"X-Field-%d: v\r\n" % i for i in range(101)) + b"\r\n", 431),
    (nodes_request(b"10\r\n" + HOSTNAME + b"\r\n0\r\n\r\n", b"Transfer-Encoding: chunked\r\n"), 501),
    (b"PUT /v1/nodes HTTP/1.1\r\nHost: test\r\nContent-Length: 16\r\n\r\n" + HOSTNAME, 501),
], ids=["bad-request-line", "http-2", "101-header-lines", "transfer-encoding", "put"])
def test_every_refusal_is_one_json_reply_that_closes(live, request_bytes, status):
    line, fields, body = reply_parts(raw_exchange(live["address"], request_bytes))
    assert line.startswith(b"HTTP/1.1 %d " % status)
    assert fields[b"content-type"] == b"application/json" and fields[b"connection"] == b"close"
    assert fields[b"date"].endswith(b" GMT") and b"server" not in fields
    assert list(json.loads(body)) == ["error"] and json.loads(body)["error"]
    assert live["service"].state.nodes == {}


def test_a_request_line_over_64_kib_is_414_and_closed(live):
    line, fields, body = reply_parts(raw_exchange(live["address"], b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n"))
    assert line.startswith(b"HTTP/1.1 414 ") and fields[b"connection"] == b"close"
    assert json.loads(body) == {"error": "request line over 65536 bytes"}


def test_a_refused_large_body_reaches_the_client_as_413_on_one_connection(live, monkeypatch):
    opened = count_connections(monkeypatch, live["server"])
    with pytest.raises(Rejected) as exc:
        live["client"].register("h" * (8 << 20), idempotency_key="big")
    assert exc.value.status == 413
    assert len(opened) == 1  # the client read the refusal instead of a reset, so it did not resend
    assert live["service"].state.nodes == {}


@pytest.mark.parametrize("request_bytes, status", [
    (b"GET /" + b"a" * (4 << 20) + b" HTTP/1.1\r\n\r\n", 414),
    (b"GET /v1/health HTTP/1.1\r\nX-Big: " + b"a" * (4 << 20) + b"\r\n\r\n", 431),
], ids=["request-line", "header-line"])
def test_a_refusal_with_request_bytes_unread_lingers_until_the_client_has_sent_them(live, request_bytes, status):
    with socket.create_connection(live["address"], timeout=5.0) as sock:
        sock.sendall(request_bytes)  # a reset would fail this send
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    line, fields, _ = reply_parts(reply)
    assert line.startswith(b"HTTP/1.1 %d " % status) and fields[b"connection"] == b"close"


def test_a_lingering_close_stops_at_its_byte_bound(live, monkeypatch):
    monkeypatch.setattr(coordinator, "LINGER_BYTES", 1 << 16)
    with socket.create_connection(live["address"], timeout=5.0) as sock:
        sock.sendall(b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n")
        start = time.monotonic()
        with pytest.raises(OSError):  # the server stops reading and closes; more bytes meet a reset
            while True:
                sock.sendall(b"a" * 65536)
    assert time.monotonic() - start < coordinator.LINGER_S + 2.0


def test_a_refusal_reaches_the_client_as_its_error_text(live):
    client = CoordinatorClient(f"http://127.0.0.1:{live['address'][1]}/a b")  # a request line of four words
    with pytest.raises(Rejected) as exc:
        client.health()
    assert exc.value.status == 400
    assert exc.value.body == {"error": "Bad request syntax ('GET /a b/v1/health HTTP/1.1')"}
    assert client._idle == []


def test_importing_the_coordinator_loads_no_stdlib_http_server_client_or_email_parser():
    src = os.path.dirname(os.path.dirname(coordinator.__file__))
    script = "import sys, warden.coordinator; print(sorted({'http.server', 'http.client', 'email.parser'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


# --- HTTP/1.1 framing, client side (a server of canned replies) -----------------------

class CannedServer:
    """Reads each request and answers it with ``reply``, then closes that connection; counts connections."""

    def __init__(self, reply: bytes):
        self.reply = reply
        self.accepted = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"

    def _serve(self):
        while not self.stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except TimeoutError:
                continue
            self.accepted += 1
            conn.settimeout(5.0)
            with conn, conn.makefile("rb") as reader:
                length = 0
                while (line := reader.readline()) not in (b"\r\n", b""):
                    name, _, value = line.partition(b":")
                    length = int(value) if name.lower() == b"content-length" else length
                reader.read(length)
                conn.sendall(self.reply)

    def close(self):
        self.stop.set()
        self.thread.join(timeout=5.0)
        assert not self.thread.is_alive()
        self.listener.close()


@pytest.fixture()
def canned():
    servers = []

    def start(reply: bytes) -> CannedServer:
        servers.append(CannedServer(reply))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


HEALTH = b'{"ledger_seq":0,"status":"ok"}\n'


@pytest.mark.parametrize("reply", [
    pytest.param(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1f\r\n" + HEALTH + b"\r\n0\r\n\r\n", id="chunked"),
    pytest.param(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" + HEALTH, id="no-content-length"),
    pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + HEALTH, id="short-body"),
    pytest.param(b"junk\r\n\r\n", id="garbled-status-line"),
])
def test_a_reply_the_client_does_not_read_is_unavailable_and_not_resent(canned, reply):
    server = canned(reply)
    client = CoordinatorClient(server.url, timeout=2.0)
    with pytest.raises(CoordinatorUnavailable):
        client.health()
    assert server.accepted == 1
    assert client._idle == []


def test_end_of_stream_before_the_status_line_is_resent_twice(canned, monkeypatch):
    sleeps = []
    monkeypatch.setattr(coordinator.time, "sleep", sleeps.append)
    server = canned(b"")
    client = CoordinatorClient(server.url, timeout=2.0)
    with pytest.raises(CoordinatorUnavailable):
        client.health()
    assert server.accepted == 3 and len(sleeps) == 2
    with pytest.raises(CoordinatorUnavailable):
        client.register("host-a")  # no idempotency key: sent once
    assert server.accepted == 4 and len(sleeps) == 2


@pytest.mark.parametrize("head, parked", [
    (b"HTTP/1.1 200 OK\r\n", True),
    (b"HTTP/1.1 200 OK\r\nConnection: close\r\n", False),
    (b"HTTP/1.0 200 OK\r\n", False),
])
def test_a_closing_or_http_1_0_reply_is_not_parked(canned, head, parked):
    server = canned(head + b"Content-Length: %d\r\n\r\n" % len(HEALTH) + HEALTH)
    client = CoordinatorClient(server.url, timeout=2.0)
    assert client.health() == {"status": "ok", "ledger_seq": 0}
    assert len(client._idle) == parked
    client.close()


@pytest.mark.parametrize("key", ["k\r\nX-Injected: 1", "k\n", "k\r"])
def test_a_header_value_with_cr_or_lf_raises_before_any_io(monkeypatch, key):
    connects = []
    monkeypatch.setattr(coordinator._Connection, "connect", lambda c: connects.append(c))
    with pytest.raises(ValueError, match="invalid header value"):
        CoordinatorClient("http://127.0.0.1:1").register("host-a", idempotency_key=key)
    assert connects == []


# --- recovery -----------------------------------------------------------------------

def test_recover_missing_file(tmp_path):
    state = recover(tmp_path / "none.log")
    assert state.alerts == [] and state.nodes == {}


def test_recover_clean_ledger(live):
    client = live["client"]
    node = client.register("host-a")
    for i in range(50):
        client.post_alert(node, alert_body(i))
    state = recover(live["ledger"])
    assert [a["seq"] for a in state.alerts] == list(range(1, 51))
    assert state.next_seq == 51


def test_recover_discards_torn_tail(tmp_path, live):
    client = live["client"]
    node = client.register("host-a")
    client.post_alert(node, alert_body(1))
    with open(live["ledger"], "ab") as fh:
        fh.write(b'{"event":"alert","seq":2,"node_id":"node-1"')  # torn write, no newline
    state = recover(live["ledger"])
    assert len(state.alerts) == 1
    assert state.next_seq == 2


def test_recover_rejects_midfile_corruption(tmp_path):
    path = tmp_path / "ledger.log"
    lines = [
        ledger_line({"event": "node", "node_id": "node-1", "hostname": "h", "t_ns": 1, "idempotency_key": None}),
        ledger_line({"event": "node", "node_id": "node-2", "hostname": "h", "t_ns": 2, "idempotency_key": None}),
    ]
    mangled = lines[0][:-2] + '9"}'  # damage the first line's crc
    path.write_text(mangled + "\n" + lines[1] + "\n", encoding="utf-8")
    with pytest.raises(CorruptLedger):
        recover(path)


def test_service_resumes_seq_after_restart(tmp_path):
    ledger = tmp_path / "ledger.log"
    service = CoordinatorService(ledger)
    service.register_node("host-a")
    status, rec = service.ingest_alert("node-1", alert_body(1))
    assert status == 201 and rec["seq"] == 1
    service.close()
    service2 = CoordinatorService(ledger)
    status, rec = service2.ingest_alert("node-1", alert_body(2))
    assert status == 201 and rec["seq"] == 2
    status, rec = service2.ingest_alert("node-1", alert_body(1))  # dedup survives restart
    assert status == 200 and rec["seq"] == 1
    service2.close()


# written by a coordinator that still had the operator command channel
LEDGER_WITH_COMMANDS = """\
{"crc":"62195aa0","event":"node","hostname":"host-a","idempotency_key":"key-a","node_id":"node-1","t_ns":1792346339162125951}
{"crc":"71f13595","event":"node","hostname":"host-b","idempotency_key":null,"node_id":"node-2","t_ns":1792346339163841573}
{"action":"terminate","alert_id":"job-1/0","crc":"d5e915f5","event":"alert","job_id":"job-1","model_id":"m1","node_id":"node-1","received_t_ns":1792346339164063296,"rule":"k-of-n:3/5","score":0.75,"seq":1,"t_ns":1000,"window_index":0}
{"action":"terminate","command_id":"cmd-1","crc":"27e64aac","event":"command","job_id":"job-1","node_id":"node-1","t_ns":1792346339164326262}
{"command_id":"cmd-1","crc":"6cc34c6c","event":"ack","t_ns":1792346339164513600}
{"action":"terminate","command_id":"cmd-2","crc":"f6f8a004","event":"command","job_id":"job-2","node_id":"node-2","t_ns":1792346339164660658}
{"action":"terminate","alert_id":"job-2/1","crc":"c644ecad","event":"alert","job_id":"job-2","model_id":"m1","node_id":"node-2","received_t_ns":1792346339164823106,"rule":"k-of-n:3/5","score":0.75,"seq":2,"t_ns":1001,"window_index":1}
"""


def test_ledger_with_command_and_ack_lines_recovers(tmp_path):
    ledger = tmp_path / "ledger.log"
    ledger.write_text(LEDGER_WITH_COMMANDS, encoding="utf-8")
    state = recover(ledger)
    # what recovery gave when command and ack lines still built state
    assert {k: v.to_dict() for k, v in state.nodes.items()} == {
        "node-1": {"node_id": "node-1", "hostname": "host-a",
                   "registered_t_ns": 1792346339162125951, "last_seen_t_ns": 1792346339164063296},
        "node-2": {"node_id": "node-2", "hostname": "host-b",
                   "registered_t_ns": 1792346339163841573, "last_seen_t_ns": 1792346339164823106},
    }
    alerts = [e for e in read_ledger(ledger) if e["event"] == "alert"]
    assert state.alerts == alerts and [a["alert_id"] for a in alerts] == ["job-1/0", "job-2/1"]
    assert state.idempotency == {"key-a": "node-1"} and state.node_counter == 2

    service = CoordinatorService(ledger)
    assert service.register_node("host-a", "key-a") == (200, state.nodes["node-1"].to_dict())
    assert service.register_node("host-c")[1]["node_id"] == "node-3"
    assert service.ingest_alert("node-2", alert_body(1, job="job-2"))[0] == 200  # dedup survives
    status, rec = service.ingest_alert("node-3", alert_body(2))
    assert status == 201 and rec["seq"] == 3
    service.close()
    assert [a["seq"] for a in recover(ledger).alerts] == [1, 2, 3]


def test_unknown_ledger_event_kind_is_corruption(tmp_path):
    ledger = tmp_path / "ledger.log"
    ledger.write_text(ledger_line({"event": "bogus", "t_ns": 1}) + "\n", encoding="utf-8")
    with pytest.raises(CorruptLedger, match="unknown ledger event kind 'bogus'"):
        recover(ledger)


def test_restart_after_torn_tail_keeps_later_acks(tmp_path):
    ledger = tmp_path / "ledger.log"
    service = CoordinatorService(ledger)
    service.register_node("host-a")
    assert service.ingest_alert("node-1", alert_body(0))[0] == 201
    service.close()
    with open(ledger, "ab") as fh:
        fh.write(b'{"event":"alert","seq":2,"node_')  # torn write, no newline
    service = CoordinatorService(ledger)
    assert [service.ingest_alert("node-1", alert_body(i))[0] for i in (1, 2)] == [201, 201]
    service.close()
    service = CoordinatorService(ledger)
    service.close()
    state = recover(ledger)
    assert [a["alert_id"] for a in state.alerts] == ["job-1/0", "job-1/1", "job-1/2"]


class FlushFailsOnce:
    """A ledger file handle whose next flush raises ENOSPC, leaving the line in its write buffer."""

    def __init__(self, fh):
        self.fh = fh
        self.failed = False

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def flush(self):
        if not self.failed:
            self.failed = True
            raise OSError(errno.ENOSPC, "No space left on device")
        self.fh.flush()


def fsync_fails_once(monkeypatch):
    fsync = os.fsync
    calls = []

    def failing(fd):
        calls.append(fd)
        if len(calls) == 1:
            raise OSError(errno.EIO, "Input/output error")
        fsync(fd)

    monkeypatch.setattr(coordinator.os, "fsync", failing)


@pytest.mark.parametrize("fault", ["EIO at fsync", "ENOSPC at flush"])
def test_a_failed_append_stops_writes_until_restart_and_the_ledger_recovers(tmp_path, monkeypatch, capsys, fault):
    ledger = tmp_path / "ledger.log"
    service = CoordinatorService(ledger)
    service.register_node("host-a")
    sent, acked = [], []

    def post(i):
        sent.append(f"job-1/{i}")
        status, body = service.ingest_alert("node-1", alert_body(i))
        if status == 201:
            acked.append(body["alert_id"])
        return status

    assert post(0) == 201
    if fault == "EIO at fsync":
        fsync_fails_once(monkeypatch)
    else:
        service._fh = FlushFailsOnce(service._fh)
    assert post(1) == 503  # the failed append itself
    assert "coordinator: ledger append failed" in capsys.readouterr().err
    assert [post(1), post(2)] == [503, 503]  # a retry and a new alert: no write until a restart
    status, body = service.register_node("host-b")
    assert status == 503 and "ledger append failed" in body["error"]
    assert service.ingest_alert("node-1", alert_body(0))[0] == 200  # reads still answer
    assert service.state.node_counter == 1 and list(service.state.nodes) == ["node-1"]
    service.close()
    monkeypatch.undo()

    restarted = CoordinatorService(ledger)
    recovered = [a["alert_id"] for a in restarted.state.alerts]
    assert set(acked) <= set(recovered) <= set(sent)
    assert [a["seq"] for a in restarted.state.alerts] == list(range(1, len(recovered) + 1))
    status, body = restarted.ingest_alert("node-1", alert_body(3))
    assert status == 201 and body["seq"] == len(recovered) + 1
    restarted.close()
    assert [a["alert_id"] for a in recover(ledger).alerts] == recovered + ["job-1/3"]


def test_a_failed_registration_takes_no_node_number(tmp_path, monkeypatch):
    service = CoordinatorService(tmp_path / "ledger.log")
    service.register_node("host-a")
    fsync_fails_once(monkeypatch)
    assert service.register_node("host-b")[0] == 503
    assert service.state.node_counter == 1 and list(service.state.nodes) == ["node-1"]
    service.close()


def test_ledger_lines_of_a_registration_and_an_ingest_are_pinned(tmp_path, monkeypatch):
    monkeypatch.setattr(coordinator.time, "time_ns", lambda: 1792346339000000123)
    service = CoordinatorService(tmp_path / "ledger.log")
    assert service.register_node("höst-a", "key-ü")[0] == 201
    alert = {"alert_id": "jöb-ü/7", "job_id": "jöb-ü", "t_ns": 2**64 + 5, "window_index": 7, "score": 0.123457,
             "model_id": "mlp-€", "rule": "k-of-n:3/5", "action": "terminate"}
    assert service.ingest_alert("node-1", alert)[0] == 201
    service.close()
    assert (tmp_path / "ledger.log").read_text(encoding="utf-8") == (
        '{"crc":"9a988285","event":"node","hostname":"höst-a","idempotency_key":"key-ü","node_id":"node-1",'
        '"t_ns":1792346339000000123}\n'
        '{"action":"terminate","alert_id":"jöb-ü/7","crc":"820e0a9a","event":"alert","job_id":"jöb-ü",'
        '"model_id":"mlp-€","node_id":"node-1","received_t_ns":1792346339000000123,"rule":"k-of-n:3/5",'
        '"score":0.123457,"seq":1,"t_ns":18446744073709551621,"window_index":7}\n'
    )


def test_listen_backlog_holds_a_burst_of_connections(tmp_path):
    # nothing accepts: each connection must wait in the listen queue
    server, service = make_server("127.0.0.1:0", tmp_path / "ledger.log")
    sockets = []
    try:
        for _ in range(20):
            try:
                sockets.append(socket.create_connection(server.server_address, timeout=0.5))
            except OSError:
                pass
        assert len(sockets) == 20
    finally:
        for sock in sockets:
            sock.close()
        server.server_close()
        service.close()


# --- crash-recovery fuzz --------------------------------------------------------------

SERVE_SCRIPT = """
import sys
from warden.coordinator import make_server
server, service = make_server("127.0.0.1:0", sys.argv[1])
print(f"PORT={server.server_address[1]}", flush=True)
server.serve_forever()
"""


def independent_replay(path):
    """Oracle: replay the ledger with local parsing and crc checks only."""
    alerts = []
    nodes = set()
    if not os.path.exists(path):
        return nodes, alerts
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n")
    for raw in lines[:-1]:
        if not raw.strip():
            continue
        obj = json.loads(raw.decode("utf-8"))
        stored = obj.pop("crc")
        canon = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        assert f"{zlib.crc32(canon.encode()):08x}" == stored, "oracle crc mismatch on intact line"
        if obj["event"] == "alert":
            alerts.append(obj)
        elif obj["event"] == "node":
            nodes.add(obj["node_id"])
    return nodes, alerts


def crash_round(tmp_path, round_index, posts=30):
    ledger = tmp_path / "crash.log"
    proc = subprocess.Popen(
        [sys.executable, "-c", SERVE_SCRIPT, str(ledger)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    try:
        port_line = proc.stdout.readline().decode()
        port = int(port_line.strip().split("=")[1])
        client = CoordinatorClient(f"http://127.0.0.1:{port}", timeout=5.0)
        node = client.register("host-crash", idempotency_key=f"crash-{round_index}")
        acked = []

        def poster():
            for i in range(posts):
                try:
                    created, rec = client.post_alert(node, alert_body(i, job=f"job-r{round_index}"))
                    acked.append(rec["seq"])
                except Exception:
                    return

        thread = threading.Thread(target=poster)
        thread.start()
        time.sleep(0.02 + (round_index % 5) * 0.01)
        proc.send_signal(signal.SIGKILL)
        thread.join(timeout=10)
        client.close()
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()

    state = recover(ledger)
    nodes, oracle_alerts = independent_replay(ledger)
    assert [a["seq"] for a in state.alerts] == [a["seq"] for a in oracle_alerts]
    assert [a["seq"] for a in state.alerts] == list(range(1, len(state.alerts) + 1))
    assert set(a["alert_id"] for a in state.alerts) == set(a["alert_id"] for a in oracle_alerts)
    # durability: every acknowledged write survived
    for seq in acked:
        assert seq <= len(state.alerts)
    os.remove(ledger)
    return len(acked), len(state.alerts)


def test_crash_recovery_fuzz(tmp_path):
    rounds = 8
    for r in range(rounds):
        crash_round(tmp_path, r)
