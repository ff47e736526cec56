"""coordinator-ingest: one HTTP client delivering alerts to the coordinator, waiting for each ack."""

from __future__ import annotations

import bisect
import os
import random
import threading
import time
from dataclasses import dataclass

from warden import coordinator
from warden.coordinator import CoordinatorClient, CoordinatorService, CorruptLedger
from warden.hashing import derive_tagged_seed

from checks import ledger_lines_intact, require
from common import median, percentile

FIELDS = ("alert_id", "job_id", "t_ns", "window_index", "score", "model_id", "rule", "action")
PAGE = 16
JOIN_S = 10.0


@dataclass(frozen=True)
class Sizes:
    history: int = 3000  # alerts written through ingest_alert before the server starts
    new_per_round: int = 40  # over two jobs, alternating
    duplicates_per_round: int = 10
    recover_repeats: int = 5
    setups: int = 11  # each is mostly 3000 fsyncs, which wander with the disk
    min_rounds: int = 25
    min_new: int = 1000  # so that ten or more lie beyond p99


TINY = Sizes(history=50, recover_repeats=1, setups=1, min_rounds=1, min_new=1)


def make_alert(rng: random.Random, job_id: str, alert_id: str, window_index: int) -> dict:
    return {
        "alert_id": alert_id,
        "job_id": job_id,
        "t_ns": rng.randrange(1, 10**12),
        "window_index": window_index,
        "score": round(rng.uniform(0.5, 1.0), 6),
        "model_id": "perfbench-mlp",
        "rule": "k-of-n:3/5",
        "action": "raise_alert",
    }


def torn_tail_restart(path) -> bool:
    """Ingest, stop, tear the ledger's last line, restart, ingest twice, recover.

    Returns whether recovery keeps the three acknowledged alerts. Its inputs
    do not depend on the seed.
    """
    if os.path.exists(path):
        os.remove(path)
    rng = random.Random(0)
    service = CoordinatorService(path)
    _, node = service.register_node("torn-tail")
    acked = [service.ingest_alert(node["node_id"], make_alert(rng, "job-torn", "torn/0", 0))]
    service.close()
    with open(path, "ab") as fh:
        fh.write(b'{"event":"alert","seq":2,"node_')
    service = CoordinatorService(path)
    for i in (1, 2):
        acked.append(service.ingest_alert(node["node_id"], make_alert(rng, "job-torn", f"torn/{i}", i)))
    service.close()
    require([status for status, _ in acked] == [201, 201, 201], f"torn-tail ingest answered {acked}")
    try:
        state = coordinator.recover(path)
    except CorruptLedger:
        return False
    return [a["alert_id"] for a in state.alerts] == ["torn/0", "torn/1", "torn/2"]


@dataclass
class RoundResult:
    new_ms: list
    duplicate_ms: list
    list_ms: list  # every page read, unfiltered and filtered by job
    listed: int  # alerts those page reads returned
    requests: int
    torn_tail_ok: bool


class CoordinatorIngest:
    name = "coordinator-ingest"

    def __init__(self, workdir, seed: int, sizes: Sizes = Sizes()):
        self.workdir = workdir
        self.seed = seed
        self.sizes = sizes
        self.rng = random.Random(derive_tagged_seed(seed, "ingest"))
        self.ledger = os.path.join(workdir, "ledger.log")
        self.server = None
        self.thread = None
        self.service = None
        self.sent: dict[str, dict] = {}  # alert_id -> alert as sent, every acknowledged alert
        self.seqs: dict[str, int] = {}

    # --- set-up: history ledger through the service's own write path, then the server ----

    def setup(self) -> None:
        rng = random.Random(derive_tagged_seed(self.seed, "history"))
        start = time.perf_counter()
        service = CoordinatorService(self.ledger)
        _, node = service.register_node("history")
        for i in range(self.sizes.history):
            alert = make_alert(rng, f"hist-{i // 20:04d}", f"hist/{i}", i % 20)
            status, body = service.ingest_alert(node["node_id"], alert)
            require(status == 201, f"history ingest answered {status}")
            self.sent[alert["alert_id"]] = {**alert, "node_id": node["node_id"]}
            self.seqs[alert["alert_id"]] = body["seq"]
        service.close()
        self.history_s = time.perf_counter() - start
        self.server, self.service = coordinator.make_server("127.0.0.1:0", self.ledger)
        self.thread = threading.Thread(target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.client = CoordinatorClient(f"http://{host}:{port}")
        self.node = self.client.register("perfbench-node", idempotency_key="perfbench-node")
        self.next_seq = self.sizes.history + 1

    def discard(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=JOIN_S)
            self.service.close()
            self.server = None

    def prepare(self) -> None:
        """Time recovery of the history ledger, and the read part of it, on their own."""
        self.ledger_bytes = os.path.getsize(self.ledger)
        self.recover_s, self.read_ledger_s, self.apply_s = [], [], []
        for _ in range(self.sizes.recover_repeats):
            start = time.perf_counter()
            coordinator.recover(self.ledger)
            middle = time.perf_counter()
            coordinator.read_ledger(self.ledger)
            end = time.perf_counter()
            self.recover_s.append(middle - start)
            self.read_ledger_s.append(end - middle)
            self.apply_s.append((middle - start) - (end - middle))

    # --- one round -----------------------------------------------------------------

    def _post(self, alert):
        start = time.perf_counter_ns()
        created, body = self.client.post_alert(self.node, alert)
        return created, body, (time.perf_counter_ns() - start) / 1e6

    def _pages(self, since_seq, job_id=None, limit=PAGE):
        alerts, times = [], []
        while True:
            start = time.perf_counter_ns()
            page = self.client.list_alerts(job_id=job_id, since_seq=since_seq, limit=limit)
            times.append((time.perf_counter_ns() - start) / 1e6)
            alerts.extend(page["alerts"])
            since_seq = page["next_seq"]
            if len(page["alerts"]) < limit:
                return alerts, times

    def round(self, index: int) -> RoundResult:
        s, rng = self.sizes, self.rng
        first_seq = self.next_seq
        jobs = (f"job-{index:05d}-a", f"job-{index:05d}-b")
        batch = [make_alert(rng, jobs[i % 2], f"r{index}/{i}", i) for i in range(s.new_per_round)]
        new_ms, duplicate_ms = [], []
        for alert in batch:
            created, body, ms = self._post(alert)
            require(created and body["seq"] == self.next_seq, f"{alert['alert_id']}: not created at seq {self.next_seq}")
            self.sent[alert["alert_id"]] = {**alert, "node_id": self.node}
            self.seqs[alert["alert_id"]] = self.next_seq
            self.next_seq += 1
            new_ms.append(ms)
        for alert in rng.sample(batch, s.duplicates_per_round):
            created, body, ms = self._post(alert)
            require(not created and body["seq"] == self.seqs[alert["alert_id"]], f"{alert['alert_id']}: retry not deduplicated")
            duplicate_ms.append(ms)
        everything, list_ms = self._pages(first_seq - 1)
        only_a, more_ms = self._pages(first_seq - 1, job_id=jobs[0])
        self._check_listed(everything, [a["alert_id"] for a in batch])
        self._check_listed(only_a, [a["alert_id"] for a in batch if a["job_id"] == jobs[0]])
        list_ms += more_ms
        requests = len(new_ms) + len(duplicate_ms) + len(list_ms)
        torn_tail_ok = torn_tail_restart(os.path.join(self.workdir, "torn-tail.log"))
        return RoundResult(new_ms, duplicate_ms, list_ms, len(everything) + len(only_a), requests, torn_tail_ok)

    def ops(self, result: RoundResult) -> tuple[int, int]:
        # every request, plus the torn-tail restart, which fails until a torn tail is cut on reopen
        return result.requests + 1, 0 if result.torn_tail_ok else 1

    def _check_listed(self, listed, expected_ids) -> None:
        require([a["alert_id"] for a in listed] == expected_ids, "a page read missed or repeated an alert")
        for record in listed:
            sent = self.sent[record["alert_id"]]
            require(record["seq"] == self.seqs[record["alert_id"]], f"{record['alert_id']}: listed with another seq")
            require(all(record[f] == sent[f] for f in FIELDS + ("node_id",)), f"{record['alert_id']}: fields changed")

    def check(self, index: int, result: RoundResult) -> None:
        pass  # each response is checked as it arrives, in round()

    def finish(self) -> None:
        """Page through the whole ledger, restart from it, and re-check every line's CRC."""
        listed, _ = self._pages(0, limit=coordinator.MAX_LIMIT)
        self._check_listed(listed, sorted(self.sent, key=self.seqs.get))
        self.discard()
        state = coordinator.recover(self.ledger)
        require({a["alert_id"] for a in state.alerts} == set(self.sent), "recovered ids differ from acknowledged ids")
        require([a["seq"] for a in state.alerts] == list(range(1, len(state.alerts) + 1)), "recovered seqs not dense")
        lines = ledger_lines_intact(self.ledger)
        require(lines == len(self.sent) + 2, f"ledger has {lines} lines, expected {len(self.sent) + 2}")

    # --- metrics -------------------------------------------------------------------

    def end_to_end(self, rounds) -> dict:
        new = [ms for _, r in rounds for ms in r.new_ms]
        require(len(new) >= self.sizes.min_new, f"only {len(new)} new alerts; p99 needs {self.sizes.min_new}")
        # alerts returned per second of page reads, median over rounds: a page read writes nothing,
        # so this rate does not wander with the disk as coordinator.ingest_alerts_per_s does
        return {
            "throughput_per_s": median([r.listed / (sum(r.list_ms) / 1e3) for _, r in rounds]),
            "latency_p50_ms": median(new),
        }

    def per_layer(self, tracer, mark: int, rounds: int, setup_mark: int, plain) -> dict:
        t = tracer
        main = threading.get_ident()
        served = sorted((s for s in t.named("coordinator.ingest_alert", mark) if s.thread != main), key=lambda s: s.start)
        starts = [s.start for s in served]
        overhead = []
        for post in t.named("coordinator.client.post_alert", mark):
            i = bisect.bisect_left(starts, post.start)
            if i < len(served) and served[i].end <= post.end:
                overhead.append((post.end - post.start - (served[i].end - served[i].start)) / 1e6)
        new = [ms for _, r in plain for ms in r.new_ms]
        return {
            # new alerts acknowledged over the wall time of their whole round, median over rounds
            "coordinator.ingest_alerts_per_s": median([len(r.new_ms) / seconds for seconds, r in plain]),
            "coordinator.ack_p99_ms": percentile(new, 99.0),
            "coordinator.ingest_alert_ms_p50": median([s.seconds * 1e3 for s in served]) if served else 0.0,
            "coordinator.http_overhead_ms_p50": median(overhead) if overhead else 0.0,
            "coordinator.dedup_hits": sum(len(r.duplicate_ms) for _, r in plain) / len(plain),
            "coordinator.list_alerts_ms_p50": t.p50_ms("coordinator.list_alerts", mark),
            "coordinator.recover_s": median(self.recover_s),
            "coordinator.read_ledger_s": median(self.read_ledger_s),
            "coordinator.apply_s": median(self.apply_s),
            "coordinator.ledger_bytes": self.ledger_bytes,
            "coordinator.history_ingest_per_s": self.sizes.history / self.history_s,
        }

    def close(self) -> None:
        self.discard()
