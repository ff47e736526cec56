"""Central alert service: node registry, deduplicating ingest, durable ledger.

All state lives in one append-only line ledger (JSON object per line with an
embedded CRC32 over the line's canonical form). Every mutating request is
appended and fsynced before the response goes out, so any acknowledged write
survives a crash; recovery replays intact lines and discards a torn tail.
Alert ingest deduplicates on (node_id, alert_id), which gives node agents
safe at-least-once retry semantics. Request bodies are capped in size and
every socket read times out, so a client cannot pin a server thread.

ALERT_FIELDS is the one definition of an alert's fields: ingest judges each
body against it before taking the lock (a missing, mistyped or non-UTF-8
field, node_id included, is a 422 naming the field; a bad hostname is a
400), and warden.detector writes and reads `.alog` lines through it. If an
append raises, the file may hold part or all of a line the state lacks, so
that write and every later one gets a 503 until a restart recovers from
the file (fail-stop).

Each stored alert keeps, next to its dict, the canonical text whose CRC32
its ledger line carries, as computed when it was appended or recovered. The
201 and dedup 200 replies of an alert ingest and every page of alerts are
assembled from those texts, byte for byte what encoding the reply's dict
would give, so no reply re-encodes a stored alert. This costs about 0.3 KB
per stored alert next to the roughly 1.7 KB its dict and values take.

Connections are persistent (HTTP/1.1 keep-alive): the server sends each reply
in one write and drops a connection after REQUEST_TIMEOUT_S of silence, and
CoordinatorClient pools idle connections and resends only idempotent requests
after a reset (see its docstring).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import sys
import threading
import time
import traceback
import urllib.parse
import zlib
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .records import _shown

DEFAULT_LIMIT = 100
MAX_LIMIT = 1000
LISTEN_BACKLOG = 128  # socketserver's default of 5 resets bursts of concurrent clients
MAX_BODY_BYTES = 1 << 20  # one alert is a few hundred bytes
REQUEST_TIMEOUT_S = 10.0  # per socket read or write on the server side; also how long an idle connection lives
IDLE_CONNECTIONS = 8  # per client; each one parked holds a server thread
RETRY_DELAYS_S = (0.01, 0.04)  # bounds of the jittered sleeps before the two resends of an idempotent request

LEDGER_ENV_VAR = "WARDEN_LEDGER_PATH"


class CorruptLedger(ValueError):
    """A non-tail ledger line failed its checksum or cannot be parsed."""


class CoordinatorUnavailable(ConnectionError):
    """The coordinator endpoint cannot be reached."""


class Rejected(ValueError):
    """The coordinator answered with a 4xx: resending the request cannot succeed."""

    def __init__(self, status: int, body: dict):
        super().__init__(f"rejected: {status} {body}")
        self.status = status
        self.body = body


def _canonical(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


class _Text(dict):
    """A reply body that also carries its canonical text, so the HTTP layer sends that text as it is."""

    __slots__ = ("text",)


def _with_text(body: dict, text: str) -> _Text:
    out = _Text(body)
    out.text = text
    return out


def _ledger_line(event: dict) -> tuple[str, str]:
    """(the event's canonical text, its ledger line: that text's crc embedded in the canonical event)."""
    text = _canonical(event)
    crc = zlib.crc32(text.encode("utf-8"))
    return text, _canonical({**event, "crc": f"{crc:08x}"})


def encode_ledger_line(event: dict) -> str:
    """Event line with an embedded crc over the canonical event body."""
    return _ledger_line(event)[1]


def decode_ledger_line(line: str) -> tuple[dict, str]:
    """(event, its canonical text) of a line whose crc checks out."""
    obj = json.loads(line)
    if not isinstance(obj, dict) or "crc" not in obj:
        raise ValueError("not a ledger event line")
    stored = obj.pop("crc")
    text = _canonical(obj)
    crc = zlib.crc32(text.encode("utf-8"))
    if f"{crc:08x}" != stored:
        raise ValueError(f"checksum mismatch (stored {stored}, computed {crc:08x})")
    return obj, text


def read_ledger(path) -> list[dict]:
    """Replay intact lines; a torn final line (crash tail) is discarded.

    A bad line anywhere before the tail raises CorruptLedger: appends are
    sequential, so mid-file damage cannot come from a crash.
    """
    return [event for event, _ in _ledger_events(path)]


def _ledger_events(path) -> list[tuple[dict, str]]:
    """read_ledger's events, each with its canonical text."""
    if not os.path.exists(path):
        return []
    with open(path, "rb") as fh:
        blob = fh.read()
    events: list[tuple[dict, str]] = []
    if not blob:
        return events
    lines = blob.split(b"\n")
    lines.pop()  # bytes after the final newline: a torn write, silently discarded
    for i, raw in enumerate(lines):
        if not raw.strip():
            continue
        try:
            events.append(decode_ledger_line(raw.decode("utf-8")))
        except (ValueError, UnicodeDecodeError) as exc:
            raise CorruptLedger(f"{path}: line {i + 1}: {exc}") from None
    return events


@dataclass
class NodeRecord:
    node_id: str
    hostname: str
    registered_t_ns: int
    last_seen_t_ns: int

    def to_dict(self) -> dict:
        return {
            "node_id": self.node_id,
            "hostname": self.hostname,
            "registered_t_ns": self.registered_t_ns,
            "last_seen_t_ns": self.last_seen_t_ns,
        }


# each alert field's wire key and kind, in `.alog` key order: str, "id" (a non-empty str), int, or "score" (in [0, 1])
ALERT_FIELDS = (("alert_id", "id"), ("node_id", str), ("job_id", str), ("t_ns", int), ("window_index", int),
                ("score", "score"), ("model_id", str), ("rule", str), ("action", str))
_KIND_TEXT = {str: "a UTF-8 string", "id": "a non-empty UTF-8 string", int: "an integer", "score": "a number in [0, 1]"}
_SURROGATE = re.compile("[\ud800-\udfff]")  # a str holding one cannot be encoded as UTF-8


def field_problem(key: str, value, kind) -> str | None:
    """Why ``value`` cannot be field ``key`` of ALERT_FIELDS kind ``kind``, or None. A bool is not a number."""
    if kind == "score":
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and 0.0 <= value <= 1.0
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, str) and (kind is str or value != "") and (value.isascii() or not _SURROGATE.search(value))
    return None if ok else f"{key} must be {_KIND_TEXT[kind]}, got {_shown(value)}"


def alert_problem(alert) -> str | None:
    """What is wrong with the first ALERT_FIELDS field that ``alert`` lacks or holds badly; None if nothing is."""
    if not isinstance(alert, dict):
        return "alert must be an object"
    for key, kind in ALERT_FIELDS:
        if key not in alert:
            return f"missing field {key!r}"
        if problem := field_problem(key, alert[key], kind):
            return problem
    return None


_RETIRED_EVENTS = ("command", "ack")  # a removed command channel's events: no-ops, so older ledgers recover


class CoordinatorState:
    """In-memory state; every mutation flows through apply() so live handling
    and crash recovery share one code path."""

    def __init__(self):
        self.nodes: dict[str, NodeRecord] = {}
        self.idempotency: dict[str, str] = {}
        self.alerts: list[dict] = []  # index = ledger_seq - 1
        self.texts: list[str] = []  # each alert's canonical text, as its ledger line's crc covers it
        self.dedup: dict[tuple[str, str], int] = {}  # (node_id, alert_id) -> seq
        self.node_counter = 0

    @property
    def next_seq(self) -> int:
        return len(self.alerts) + 1

    def apply(self, event: dict, text: str) -> None:
        """Apply one ledger event; text is its canonical form, the text its ledger line's crc covers."""
        kind = event["event"]
        if kind == "node":
            record = NodeRecord(
                node_id=event["node_id"],
                hostname=event["hostname"],
                registered_t_ns=event["t_ns"],
                last_seen_t_ns=event["t_ns"],
            )
            self.nodes[record.node_id] = record
            key = event.get("idempotency_key")
            if key:
                self.idempotency[key] = record.node_id
            self.node_counter = max(self.node_counter, int(record.node_id.split("-")[-1]))
        elif kind == "alert":
            seq = event["seq"]
            if seq != self.next_seq:
                raise CorruptLedger(f"alert seq {seq} breaks density (expected {self.next_seq})")
            self.alerts.append(dict(event))
            self.texts.append(text)
            self.dedup[(event["node_id"], event["alert_id"])] = seq
            node = self.nodes.get(event["node_id"])
            if node:
                node.last_seen_t_ns = max(node.last_seen_t_ns, event["received_t_ns"])
        elif kind not in _RETIRED_EVENTS:
            raise CorruptLedger(f"unknown ledger event kind {kind!r}")


def recover(ledger_path) -> CoordinatorState:
    """Rebuild service state from the ledger file (missing file = empty state)."""
    state = CoordinatorState()
    for event, text in _ledger_events(ledger_path):
        state.apply(event, text)
    return state


def _cut_torn_tail(path) -> None:
    """Truncate the ledger after its last newline, durably, so the next append
    starts a line of its own instead of extending the torn bytes recovery skipped."""
    with open(path, "r+b") as fh:
        size = fh.seek(0, os.SEEK_END)
        if size == 0:
            return
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        fh.truncate(fh.read().rfind(b"\n") + 1)
        fh.flush()
        os.fsync(fh.fileno())


class CoordinatorService:
    """Thread-safe service core behind the HTTP layer (usable in-process too)."""

    def __init__(self, ledger_path):
        self.ledger_path = str(ledger_path)
        self._lock = threading.Lock()
        self.state = recover(self.ledger_path)
        directory = os.path.dirname(os.path.abspath(self.ledger_path))
        os.makedirs(directory, exist_ok=True)
        if os.path.exists(self.ledger_path):
            _cut_torn_tail(self.ledger_path)
        self._fh = open(self.ledger_path, "ab")
        self._failure: str | None = None  # set by the first append that raised; writes stop until a restart

    def close(self) -> None:
        with self._lock:
            self._fh.close()

    def _append(self, event: dict) -> tuple[int, dict] | None:
        """Durably append one event: written, flushed and fsynced, then applied; None on success.

        After any exception the file may hold part or all of a line the state
        lacks, and a later append would reuse its seq, so this append and
        every later one answer 503 until a restart recovers from the file.
        """
        text, line = _ledger_line(event)  # raises before anything is written if the event cannot be encoded
        if self._failure is None:
            try:
                self._fh.write((line + "\n").encode("utf-8"))
                self._fh.flush()
                os.fsync(self._fh.fileno())
                self.state.apply(event, text)
                return None
            except Exception as exc:
                self._failure = f"ledger append failed ({exc}); no write is taken until the coordinator restarts"
                print(f"coordinator: {self._failure}", file=sys.stderr)
                traceback.print_exc()
        return 503, {"error": self._failure}

    # --- operations; each returns (http_status, body_dict) -------------------

    def register_node(self, hostname: str, idempotency_key: str | None = None) -> tuple[int, dict]:
        if problem := field_problem("hostname", hostname, "id"):
            return 400, {"error": problem}
        with self._lock:
            if idempotency_key and idempotency_key in self.state.idempotency:
                node_id = self.state.idempotency[idempotency_key]
                return 200, self.state.nodes[node_id].to_dict()
            node_id = f"node-{self.state.node_counter + 1}"  # apply() advances the counter
            event = {
                "event": "node",
                "node_id": node_id,
                "hostname": hostname,
                "t_ns": time.time_ns(),
                "idempotency_key": idempotency_key,
            }
            return self._append(event) or (201, self.state.nodes[node_id].to_dict())

    def ingest_alert(self, node_id: str, alert: dict) -> tuple[int, dict]:
        values = {**alert, "node_id": node_id} if isinstance(alert, dict) else alert
        if problem := alert_problem(values):
            return 422, {"error": problem}
        with self._lock:
            if node_id not in self.state.nodes:
                return 404, {"error": f"unknown node {node_id!r}"}
            key = (node_id, alert["alert_id"])
            if key in self.state.dedup:
                index = self.state.dedup[key] - 1
                return 200, _with_text(self.state.alerts[index], self.state.texts[index])
            event = {
                "event": "alert",
                "seq": self.state.next_seq,
                "node_id": node_id,
                "received_t_ns": time.time_ns(),
                **{k: values[k] for k, _ in ALERT_FIELDS},
            }
            return self._append(event) or (201, _with_text(self.state.alerts[-1], self.state.texts[-1]))

    def list_alerts(
        self,
        job_id: str | None = None,
        node_id: str | None = None,
        since_seq: int = 0,
        limit: int = DEFAULT_LIMIT,
    ) -> tuple[int, dict]:
        if limit < 1 or limit > MAX_LIMIT:
            return 400, {"error": f"limit must be in [1, {MAX_LIMIT}]"}
        if since_seq < 0:
            return 400, {"error": "since_seq must be >= 0"}
        alerts, texts = self.state.alerts, self.state.texts
        with self._lock:
            end = len(alerts)
        # both lists only grow and a stored alert never changes, so the walk up to end needs no lock
        records, record_texts = [], []
        next_seq = since_seq  # cursor = highest seq scanned, so filtered paging advances
        for next_seq in range(since_seq + 1, end + 1):
            record = alerts[next_seq - 1]
            if job_id is not None and record["job_id"] != job_id:
                continue
            if node_id is not None and record["node_id"] != node_id:
                continue
            records.append(dict(record))
            record_texts.append(texts[next_seq - 1])
            if len(records) >= limit:
                break
        text = '{"alerts":[' + ",".join(record_texts) + f'],"next_seq":{next_seq}}}'
        return 200, _with_text({"alerts": records, "next_seq": next_seq}, text)

    def health(self) -> tuple[int, dict]:
        with self._lock:
            return 200, {"status": "ok", "ledger_seq": len(self.state.alerts)}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = REQUEST_TIMEOUT_S  # a stalled client times out instead of pinning its thread
    service: CoordinatorService = None  # injected by make_server

    def log_message(self, fmt, *args):  # quiet by default
        pass

    def _send(self, status: int, body: dict) -> None:
        text = body.text if isinstance(body, _Text) else _canonical(body)
        payload = (text + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            self.send_header("Connection", "close")  # so the client does not park this connection
        # status line, headers and body in one write: a second small write on a
        # kept-alive connection waits on Nagle and the client's delayed ACK (~40 ms)
        self._headers_buffer.append(b"\r\n" + payload)
        self.flush_headers()

    def _read_body(self) -> tuple[int, dict]:
        """(200, the JSON object sent) or (4xx, an error body)."""
        header = self.headers.get("Content-Length", "0")
        if not (header.isascii() and header.isdigit()):
            self.close_connection = True  # the body's end is unknown
            return 400, {"error": f"Content-Length must be a non-negative integer, got {_shown(header)}"}
        length = int(header)
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # the body is left unread
            return 413, {"error": f"body of {length} bytes exceeds {MAX_BODY_BYTES}"}
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return 200, {}
        try:
            obj = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            obj = None
        if not isinstance(obj, dict):
            return 400, {"error": "request body must be a JSON object"}
        return 200, obj

    def do_GET(self):
        parsed = urllib.parse.urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        if parts == ["v1", "health"]:
            return self._send(*self.service.health())
        if parts == ["v1", "alerts"]:
            query = urllib.parse.parse_qs(parsed.query)

            def q(name, default=None):
                return query[name][0] if name in query else default

            try:
                since_seq = int(q("since_seq", "0"))
                limit = int(q("limit", str(DEFAULT_LIMIT)))
            except ValueError:
                return self._send(400, {"error": "since_seq and limit must be integers"})
            return self._send(
                *self.service.list_alerts(
                    job_id=q("job_id"), node_id=q("node_id"), since_seq=since_seq, limit=limit
                )
            )
        return self._send(404, {"error": f"no route for GET {parsed.path}"})

    def do_POST(self):
        parsed = urllib.parse.urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        status, body = self._read_body()
        if status != 200:
            return self._send(status, body)
        if parts == ["v1", "nodes"]:
            return self._send(
                *self.service.register_node(
                    body.get("hostname", ""), self.headers.get("Idempotency-Key")
                )
            )
        if parts == ["v1", "alerts"]:
            return self._send(*self.service.ingest_alert(body.get("node_id"), body))
        return self._send(404, {"error": f"no route for POST {parsed.path}"})


class _Server(ThreadingHTTPServer):
    # class attributes: the constructor binds and listens, so setting them afterwards is too late
    request_queue_size = LISTEN_BACKLOG
    daemon_threads = True

    def handle_error(self, request, client_address):
        """A client that resets or drops its connection is routine: no traceback. Any other error is reported as before."""
        if not isinstance(sys.exc_info()[1], (ConnectionResetError, ConnectionAbortedError, BrokenPipeError)):
            super().handle_error(request, client_address)


def make_server(listen: str, ledger_path) -> tuple[ThreadingHTTPServer, CoordinatorService]:
    """Bind the service; listen is "host:port" (port 0 picks a free port)."""
    host, _, port = listen.rpartition(":")
    service = CoordinatorService(ledger_path)
    handler = type("BoundHandler", (_Handler,), {"service": service})
    server = _Server((host or "127.0.0.1", int(port)), handler)
    return server, service


def serve_forever(listen: str, ledger_path) -> None:
    server, service = make_server(listen, ledger_path)
    host, port = server.server_address[:2]
    print(f"coordinator listening on {host}:{port}, ledger at {service.ledger_path}", flush=True)
    try:
        server.serve_forever()
    finally:
        service.close()


class CoordinatorClient:
    """Small HTTP client for node agents and the CLI; one instance may be shared by threads.

    Requests go over persistent HTTP/1.1 connections kept in a small idle pool.
    An idempotent request (a GET, an alert, a registration with an
    Idempotency-Key) that meets a reset or a dropped connection, such as a
    pooled one the server closed after REQUEST_TIMEOUT_S of silence, is resent
    at most twice, each time on a fresh connection after a short jittered
    sleep. A refused connection or a timeout is not resent. A registration
    without a key goes out once, on a fresh connection.
    """

    def __init__(self, base_url: str, timeout: float = 5.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urllib.parse.urlsplit(self.base_url)
        self._connection_class = (
            http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        )
        self._netloc = parts.netloc
        self._prefix = parts.path
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the idle connections, each of which holds a server thread until it times out."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def _connection(self, fresh: bool) -> http.client.HTTPConnection:
        if not fresh:
            with self._lock:
                if self._idle:
                    return self._idle.pop()
        return self._connection_class(self._netloc, timeout=self.timeout)

    def _park(self, connection: http.client.HTTPConnection) -> None:
        with self._lock:
            if len(self._idle) < IDLE_CONNECTIONS:
                self._idle.append(connection)
                return
        connection.close()

    def _exchange(self, method: str, path: str, data, headers: dict, idempotent: bool):
        """(status, body bytes), resending an idempotent request after a reset."""
        delays = iter(RETRY_DELAYS_S if idempotent else ())
        fresh = not idempotent
        while True:
            connection = self._connection(fresh)
            try:
                connection.request(method, self._prefix + path, body=data, headers=headers)
                response = connection.getresponse()
                payload = response.read()
            except (ConnectionResetError, ConnectionAbortedError, BrokenPipeError) as exc:
                connection.close()  # RemoteDisconnected is a ConnectionResetError
                delay = next(delays, None)
                if delay is None:
                    raise CoordinatorUnavailable(f"{method} {self.base_url}{path}: {exc}") from None
                time.sleep(random.uniform(0.0, delay))
                fresh = True
                continue
            except (http.client.HTTPException, OSError) as exc:
                connection.close()
                raise CoordinatorUnavailable(f"{method} {self.base_url}{path}: {exc}") from None
            if response.will_close:
                connection.close()
            else:
                self._park(connection)
            return response.status, payload

    def _request(self, method: str, path: str, body: dict | None = None, headers: dict | None = None,
                 idempotent: bool = True):
        """(status, reply body) of a 2xx reply.

        Raises Rejected on a 4xx reply and CoordinatorUnavailable on a
        transport failure or any other status.
        """
        data = _canonical(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json", **(headers or {})}
        status, payload = self._exchange(method, path, data, headers, idempotent)
        if 200 <= status < 300:
            return status, json.loads(payload.decode("utf-8"))
        text = payload.decode("utf-8", errors="replace")
        try:
            reply = json.loads(text)
        except ValueError:
            reply = {"error": text}
        if 400 <= status < 500:
            raise Rejected(status, reply)
        raise CoordinatorUnavailable(f"{method} {self.base_url}{path}: {status} {reply}")

    def register(self, hostname: str, idempotency_key: str | None = None) -> str:
        headers = {"Idempotency-Key": idempotency_key} if idempotency_key else {}
        _, body = self._request("POST", "/v1/nodes", {"hostname": hostname}, headers, idempotent=bool(headers))
        return body["node_id"]

    def post_alert(self, node_id: str, alert) -> tuple[bool, dict]:
        """Returns (created, stored_record).

        Raises Rejected on a 4xx reply (unknown node, invalid alert) and
        CoordinatorUnavailable on a transport failure or a server error.
        """
        from .detector import Alert, alert_to_dict

        payload = alert_to_dict(alert) if isinstance(alert, Alert) else dict(alert)
        payload["node_id"] = node_id
        status, body = self._request("POST", "/v1/alerts", payload)
        return status == 201, body

    def list_alerts(self, job_id=None, node_id=None, since_seq=0, limit=DEFAULT_LIMIT) -> dict:
        query = {"since_seq": since_seq, "limit": limit}
        if job_id:
            query["job_id"] = job_id
        if node_id:
            query["node_id"] = node_id
        return self._request("GET", "/v1/alerts?" + urllib.parse.urlencode(query))[1]

    def health(self) -> dict:
        return self._request("GET", "/v1/health")[1]
