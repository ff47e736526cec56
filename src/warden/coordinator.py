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

Connections are persistent (HTTP/1.1 keep-alive). Both ends frame messages
(RFC 9112) with a few readline calls, not the stdlib's email header parser.
The server is one request loop per connection on socketserver (see
_Handler): it closes the connection after each refusal and after
REQUEST_TIMEOUT_S of silence. Every reply, a refusal included, is one
write: Date, Content-Type, Content-Length, `Connection: close` when it
closes the connection, and a JSON body.
CoordinatorClient sends each request in one write, reads only replies
framed by Content-Length, pools idle connections and resends only
idempotent requests after a reset (see its docstring).
"""

from __future__ import annotations

import json
import os
import random
import re
import socket
import socketserver
import ssl
import sys
import threading
import time
import traceback
import urllib.parse
import zlib
from dataclasses import dataclass
from email.utils import formatdate
from http import HTTPStatus

from .records import _shown

DEFAULT_LIMIT = 100
MAX_LIMIT = 1000
LISTEN_BACKLOG = 128  # socketserver's default of 5 resets bursts of concurrent clients
MAX_BODY_BYTES = 1 << 20  # one alert is a few hundred bytes
REQUEST_TIMEOUT_S = 10.0  # per socket read or write on the server side; also how long an idle connection lives
IDLE_CONNECTIONS = 8  # per client; each one parked holds a server thread
RETRY_DELAYS_S = (0.01, 0.04)  # bounds of the jittered sleeps before the two resends of an idempotent request
LINGER_BYTES = 16 << 20  # request bytes read and discarded, at most, after a refusal that left them unread
LINGER_S = 2.0  # how long that discarding may take
_MAX_LINE = 65536  # bytes in a request, status or header line, as http.server and http.client allow
_MAX_FIELDS = 100  # header lines in a request or a reply, as http.server and http.client allow

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
        """200 "ok", or 503 "failed" with the failure once an append has failed (fail-stop)."""
        with self._lock:
            if self._failure is not None:
                return 503, {"status": "failed", "error": self._failure, "ledger_seq": len(self.state.alerts)}
            return 200, {"status": "ok", "ledger_seq": len(self.state.alerts)}


class _BadHead(ValueError):
    """A message head this module does not read; status is what the server answers to it."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _read_fields(rfile) -> dict[str, str]:
    """The header fields after a start line, up to the blank line (RFC 9112 section 5).

    Names are lower-cased. A repeated field's values are joined with ", "
    (RFC 9110 section 5.3), so two different Content-Length values read as
    one that is not a number.
    """
    fields: dict[str, str] = {}
    for _ in range(_MAX_FIELDS + 1):
        line = rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _BadHead(431, "Line too long")
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or name != name.strip():  # no colon, space before it, or a folded line
            raise _BadHead(400, f"Bad header line ({_shown(line)})")
        name, value = name.lower(), value.strip()
        fields[name] = f"{fields[name]}, {value}" if name in fields else value
    raise _BadHead(431, f"more than {_MAX_FIELDS} header lines")


_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})", re.ASCII)


class _Handler(socketserver.StreamRequestHandler):
    """One connection: its requests are read and answered in turn (RFC 9112).

    A request line that cannot be read is a 400 (414 over _MAX_LINE bytes),
    HTTP/2 and later a 505, a header line over _MAX_LINE bytes or more than
    _MAX_FIELDS of them a 431, a header line without a colon a 400, a method
    other than GET and POST a 501, Transfer-Encoding a 501 (only
    Content-Length bodies are read), a Content-Length that is not one number
    a 400, one over MAX_BODY_BYTES a 413, and a GET with a body a 400. Every
    refusal closes the connection, so no unread body is read as the next
    request; so do HTTP/1.0 without `Connection: keep-alive` and any
    `Connection: close`. `Expect: 100-continue` gets an interim 100. A 413,
    414 or 431 leaves request bytes unread, so its close lingers (RFC 9112
    section 9.6) and the client reads the refusal instead of a reset.
    """

    timeout = REQUEST_TIMEOUT_S  # a stalled client times out instead of pinning its thread
    service: CoordinatorService = None  # injected by make_server

    def handle(self) -> None:
        """Serve requests until a reply closes the connection, the client leaves or a read times out."""
        self.close_connection = False
        try:
            while not self.close_connection:
                self.close_connection = True  # until a request's head is read and keeps the connection
                line = self.rfile.readline(_MAX_LINE + 1)
                if len(line) > _MAX_LINE:
                    status, body = 414, {"error": f"request line over {_MAX_LINE} bytes"}
                elif line.strip():
                    status, body = self._answer(line.decode("latin-1").rstrip("\r\n"))
                else:  # an empty line, or the end of the stream, closes without a reply
                    break
                self._send(status, body)
                if status in (413, 414, 431):  # refusals that leave bytes of the request unread
                    self._linger()
        except (ConnectionError, TimeoutError):  # a reset, a dropped connection or a stalled read: no traceback
            pass

    def _linger(self) -> None:
        """Shut the write side, then discard what the client sends until its end, LINGER_BYTES or LINGER_S."""
        self.connection.shutdown(socket.SHUT_WR)
        deadline, left = time.monotonic() + LINGER_S, LINGER_BYTES
        while left > 0 and (remaining := deadline - time.monotonic()) > 0:
            self.connection.settimeout(remaining)
            if not (chunk := self.rfile.read1(min(left, 65536))):
                break
            left -= len(chunk)

    def _answer(self, requestline: str) -> tuple[int, dict]:
        """The reply to the request that starts with ``requestline``: a refusal or one of the four service calls."""
        words = requestline.split()
        version = _VERSION.fullmatch(words[2]) if len(words) == 3 else None
        if version is None:
            return 400, {"error": f"Bad request syntax ({_shown(requestline)})"}
        number = int(version[1]), int(version[2])
        if number >= (2, 0):
            return 505, {"error": f"Invalid HTTP version ({words[2]})"}
        method, target, _ = words
        try:
            self.headers = _read_fields(self.rfile)
        except _BadHead as exc:
            return exc.status, {"error": str(exc)}
        if "transfer-encoding" in self.headers:
            return 501, {"error": "Transfer-Encoding is not supported; send Content-Length"}
        if method not in ("GET", "POST"):
            return 501, {"error": f"Unsupported method ({_shown(method)})"}
        connection = self.headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (number < (1, 1) and connection != "keep-alive")
        if number >= (1, 1) and self.headers.get("expect", "").lower() == "100-continue":
            self._send(100)
        parsed = urllib.parse.urlparse(target)
        route = [p for p in parsed.path.split("/") if p]
        if method == "GET":
            if self.headers.get("content-length", "0") != "0":
                self.close_connection = True  # the body is left unread: kept, it would be read as the next request
                return 400, {"error": "a GET request must not carry a body"}
            if route == ["v1", "health"]:
                return self.service.health()
            if route == ["v1", "alerts"]:
                query = urllib.parse.parse_qs(parsed.query)

                def q(name, default=None):
                    return query[name][0] if name in query else default

                try:
                    since_seq = int(q("since_seq", "0"))
                    limit = int(q("limit", str(DEFAULT_LIMIT)))
                except ValueError:
                    return 400, {"error": "since_seq and limit must be integers"}
                return self.service.list_alerts(job_id=q("job_id"), node_id=q("node_id"), since_seq=since_seq, limit=limit)
            return 404, {"error": f"no route for GET {parsed.path}"}
        status, body = self._read_body()
        if status != 200:
            return status, body
        if route == ["v1", "nodes"]:
            return self.service.register_node(body.get("hostname", ""), self.headers.get("idempotency-key"))
        if route == ["v1", "alerts"]:
            return self.service.ingest_alert(body.get("node_id"), body)
        return 404, {"error": f"no route for POST {parsed.path}"}

    def _send(self, status: int, body: dict | None = None) -> None:
        """Write one reply in one write; without a body, the interim 100 Continue, a status line alone."""
        head, payload = f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n", b""
        if body is not None:
            text = body.text if isinstance(body, _Text) else _canonical(body)
            payload = (text + "\n").encode("utf-8")
            close = "Connection: close\r\n" if self.close_connection else ""  # so the client does not park it
            head += (f"Date: {formatdate(usegmt=True)}\r\nContent-Type: application/json\r\n"
                     f"Content-Length: {len(payload)}\r\n{close}")
        # status line, fields and body in one write: a second small write on a
        # kept-alive connection waits on Nagle and the client's delayed ACK (~40 ms)
        self.wfile.write((head + "\r\n").encode("latin-1") + payload)

    def _read_body(self) -> tuple[int, dict]:
        """(200, the JSON object sent) or (4xx, an error body)."""
        header = self.headers.get("content-length", "0")
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


class _Server(socketserver.ThreadingTCPServer):
    # class attributes: the constructor binds and listens, so setting them afterwards is too late
    allow_reuse_address = True  # a restart can bind the port while the last run's connections are in TIME_WAIT
    daemon_threads = True
    request_queue_size = LISTEN_BACKLOG


def make_server(listen: str, ledger_path) -> tuple[socketserver.ThreadingTCPServer, CoordinatorService]:
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


_STATUS_LINE = re.compile(rb"HTTP/1\.(\d) (\d{3})(?: [^\r\n]*)?\r?\n")


class _Connection:
    """One HTTP/1.1 connection of CoordinatorClient: a socket with TCP_NODELAY and one buffered reader.

    A request goes out in one sendall. A reply is read as its status line,
    its header fields and then Content-Length bytes of body; a reply framed
    any other way (chunked, or delimited by the close) raises ValueError.
    """

    def __init__(self, host: str, port: int, timeout: float, tls: bool):
        self.host, self.port, self.timeout, self.tls = host, port, timeout, tls
        self.sock = self.reader = None

    def connect(self) -> None:
        sock = socket.create_connection((self.host, self.port), self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.tls:
                sock = ssl.create_default_context().wrap_socket(sock, server_hostname=self.host)
        except BaseException:
            sock.close()
            raise
        self.sock, self.reader = sock, sock.makefile("rb")

    def send(self, request: bytes) -> None:
        if self.sock is None:
            self.connect()
        self.sock.sendall(request)

    def read_reply(self) -> tuple[int, bool, bytes]:
        """(status, whether the server closes the connection after this reply, body).

        An end of stream before the status line raises ConnectionResetError,
        as the server dropping an idle connection does.
        """
        line = self.reader.readline(_MAX_LINE + 1)
        if not line:
            raise ConnectionResetError("connection closed before the reply")
        status = _STATUS_LINE.fullmatch(line)
        if status is None:
            raise ValueError(f"garbled status line {_shown(line)}")
        fields = _read_fields(self.reader)
        if "transfer-encoding" in fields:
            raise ValueError(f"reply with Transfer-Encoding {_shown(fields['transfer-encoding'])}")
        length = fields.get("content-length", "")
        if not (length.isascii() and length.isdigit()):
            raise ValueError(f"reply without a valid Content-Length ({_shown(length)})")
        body = self.reader.read(int(length))
        if len(body) < int(length):
            raise ValueError(f"reply body of {len(body)} bytes, short of its Content-Length {length}")
        closes = status[1] != b"1" or "close" in fields.get("connection", "").lower()
        return int(status[2]), closes, body

    def close(self) -> None:
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = self.reader = None


class CoordinatorClient:
    """Small HTTP client for node agents and the CLI; one instance may be shared by threads.

    Requests go over persistent HTTP/1.1 connections kept in a small idle pool.
    An idempotent request (a GET, an alert, a registration with an
    Idempotency-Key) that meets a reset or a dropped connection, such as a
    pooled one the server closed after REQUEST_TIMEOUT_S of silence, is resent
    at most twice, each time on a fresh connection after a short jittered
    sleep. A refused connection, a timeout or a reply this client does not
    read (a garbled status line, a chunked body, no Content-Length, a body
    cut short) is not resent. A registration without a key goes out once, on
    a fresh connection. A reply with `Connection: close`, or an HTTP/1.0
    reply, closes its connection instead of parking it.
    """

    def __init__(self, base_url: str, timeout: float = 5.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urllib.parse.urlsplit(self.base_url)
        self._tls = parts.scheme == "https"
        self._address = (parts.hostname or "", parts.port or (443 if self._tls else 80))
        self._netloc = parts.netloc
        self._prefix = parts.path
        self._idle: list[_Connection] = []
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the idle connections, each of which holds a server thread until it times out."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def _connection(self, fresh: bool) -> _Connection:
        if not fresh:
            with self._lock:
                if self._idle:
                    return self._idle.pop()
        return _Connection(*self._address, self.timeout, self._tls)

    def _park(self, connection: _Connection) -> None:
        with self._lock:
            if len(self._idle) < IDLE_CONNECTIONS:
                self._idle.append(connection)
                return
        connection.close()

    def _exchange(self, method: str, path: str, request: bytes, idempotent: bool):
        """(status, body bytes), resending an idempotent request after a reset."""
        delays = iter(RETRY_DELAYS_S if idempotent else ())
        fresh = not idempotent
        while True:
            connection = self._connection(fresh)
            try:
                connection.send(request)  # a fresh connection connects here
                status, closes, payload = connection.read_reply()
            except (ConnectionResetError, ConnectionAbortedError, BrokenPipeError) as exc:
                connection.close()
                delay = next(delays, None)
                if delay is None:
                    raise CoordinatorUnavailable(f"{method} {self.base_url}{path}: {exc}") from None
                time.sleep(random.uniform(0.0, delay))
                fresh = True
                continue
            except (OSError, ValueError) as exc:
                connection.close()
                raise CoordinatorUnavailable(f"{method} {self.base_url}{path}: {exc}") from None
            if closes:
                connection.close()
            else:
                self._park(connection)
            return status, payload

    def _request(self, method: str, path: str, body: dict | None = None, headers: dict | None = None,
                 idempotent: bool = True):
        """(status, reply body) of a 2xx reply.

        Raises Rejected on a 4xx reply and CoordinatorUnavailable on a
        transport failure or any other status. A header value holding a CR
        or LF raises ValueError before anything is sent.
        """
        head = f"{method} {self._prefix}{path} HTTP/1.1\r\nHost: {self._netloc}\r\n"
        for name, value in (headers or {}).items():
            if "\r" in value or "\n" in value:
                raise ValueError(f"invalid header value {_shown(value)}")
            head += f"{name}: {value}\r\n"
        data = b""
        if body is not None:
            data = _canonical(body).encode("utf-8")
            head += f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
        request = (head + "\r\n").encode("latin-1") + data
        status, payload = self._exchange(method, path, request, idempotent)
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
