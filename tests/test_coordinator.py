"""Coordinator: ingest dedup, pagination, commands, durability, crash recovery."""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor

import pytest

from warden.coordinator import (
    AlertRejected,
    CoordinatorClient,
    CoordinatorService,
    CoordinatorUnavailable,
    CorruptLedger,
    encode_ledger_line,
    make_server,
    read_ledger,
    recover,
)


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
    yield {"client": client, "service": service, "ledger": str(tmp_path / "ledger.log")}
    server.shutdown()
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
    status, body = live["client"]._request("POST", "/v1/nodes", {"hostname": ""})
    assert status == 400


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
    with pytest.raises(AlertRejected) as exc:
        live["client"].post_alert("node-999", alert_body(1))
    assert exc.value.status == 404
    assert not isinstance(exc.value, CoordinatorUnavailable)  # a rejection is not an outage


def test_post_alert_with_score_2_is_rejected_with_422(live):
    client = live["client"]
    node = client.register("host-a")
    bad = alert_body(3)
    bad["score"] = 2  # a raw dict: Alert itself refuses scores above 1
    with pytest.raises(AlertRejected) as exc:
        client.post_alert(node, bad)
    assert exc.value.status == 422
    assert "score" in exc.value.body["error"]


def test_post_alert_transport_failure_is_unavailable(tmp_path):
    server, service = make_server("127.0.0.1:0", tmp_path / "ledger.log")
    port = server.server_address[1]
    server.server_close()
    service.close()
    with pytest.raises(CoordinatorUnavailable):
        CoordinatorClient(f"http://127.0.0.1:{port}", timeout=2.0).post_alert("node-1", alert_body(1))


def test_ingest_invalid_score_422(live):
    client = live["client"]
    node = client.register("host-a")
    bad = alert_body(2)
    bad["score"] = 1.5
    status, body = client._request("POST", "/v1/alerts", {**bad, "node_id": node})
    assert status == 422


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
    status, _ = client._request("GET", "/v1/alerts?limit=5000")
    assert status == 400
    status, _ = client._request("GET", "/v1/alerts?limit=abc")
    assert status == 400


# --- commands -----------------------------------------------------------------------

def test_command_lifecycle(live):
    client = live["client"]
    node = client.register("host-a")
    cmd = client.command_action("job-1", node, "terminate")
    assert cmd["status"] == "pending"
    pending = client.poll_commands(node)
    assert [c["command_id"] for c in pending] == [cmd["command_id"]]
    acked = client.ack_command(cmd["command_id"])
    assert acked["status"] in ("pending", "acked")
    again = client.ack_command(cmd["command_id"])  # idempotent no-op
    assert again["status"] == "acked"
    assert client.poll_commands(node) == []


def test_command_unknown_node_404(live):
    status, _ = live["client"]._request("POST", "/v1/jobs/j/actions", {"node_id": "node-99", "action": "terminate"})
    assert status == 404


def test_health_reports_ledger_seq(live):
    client = live["client"]
    assert client.health() == {"status": "ok", "ledger_seq": 0}
    node = client.register("host-a")
    client.post_alert(node, alert_body(1))
    assert client.health()["ledger_seq"] == 1


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
        encode_ledger_line({"event": "node", "node_id": "node-1", "hostname": "h", "t_ns": 1, "idempotency_key": None}),
        encode_ledger_line({"event": "node", "node_id": "node-2", "hostname": "h", "t_ns": 2, "idempotency_key": None}),
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
    finally:
        proc.kill()
        proc.wait()

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
