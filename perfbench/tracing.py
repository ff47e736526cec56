"""Spans around warden's public functions, recorded from outside the program.

A traced run installs a wrapper on each function where other modules look it
up (a module attribute or a class attribute), records one span per call and
removes the wrappers again. Nothing is installed for an untraced run. A
target that no longer exists is reported as missing instead of failing the
run, so the benchmark keeps working when a later change renames a function.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

# (owner, attribute, span name, counter) -- owner is "module" or "module:Class";
# counter maps (args, kwargs, result) to a work count recorded with the span
TARGETS = (
    ("warden.datagen", "gen_dataset", "datagen.gen_dataset", None),
    ("warden.datagen", "gen_trace", "datagen.gen_trace", lambda a, k, r: len(r.records)),
    ("warden.records", "read_trace_file", "records.read_trace_file", lambda a, k, r: len(r)),
    ("warden.sandbox", "read_trace_file", "records.read_trace_file", lambda a, k, r: len(r)),
    ("warden.ml.data", "build_feature_dataset", "ml.data.build_feature_dataset", None),
    ("warden.ml.data", "build_sequence_dataset", "ml.data.build_sequence_dataset", None),
    ("warden.ml.data", "trace_token_ids", "ml.data.trace_token_ids", lambda a, k, r: len(r)),
    ("warden.ml.data", "extract", "features.extract", lambda a, k, r: len(r)),
    ("warden.ml.data", "feature_matrix", "features.feature_matrix", None),
    ("warden.features:Scaler", "fit", "features.scaler", None),
    ("warden.features:Scaler", "transform", "features.scaler", None),
    ("warden.ml.svm:SvmClassifier", "fit", "ml.svm.fit", None),
    ("warden.ml.mlp:MlpClassifier", "fit", "ml.mlp.fit", None),
    (
        "warden.ml.rnn:RnnClassifier",
        "fit",
        "ml.rnn.fit",
        lambda a, k, r: r.epochs * sum(min(len(s), r.t_max) for s in a[1]),
    ),
    ("warden.ml.svm:SvmClassifier", "proba", "ml.predict", None),
    ("warden.ml.mlp:MlpClassifier", "proba", "ml.predict", None),
    ("warden.ml.rnn:RnnClassifier", "proba", "ml.predict", None),
    ("warden.sandbox:ExecutionBackend", "launch", "sandbox.launch", None),
    ("warden.detector", "run_pipeline", "detector.run_pipeline", lambda a, k, r: r.windows_scored),
    ("warden.detector", "window_vector", "detector.window_vector", None),
    ("warden.detector", "score_window", "detector.score_window", None),
    ("warden.coordinator", "recover", "coordinator.recover", None),
    ("warden.coordinator", "read_ledger", "coordinator.read_ledger", lambda a, k, r: len(r)),
    ("warden.coordinator:CoordinatorService", "ingest_alert", "coordinator.ingest_alert", None),
    ("warden.coordinator:CoordinatorService", "list_alerts", "coordinator.list_alerts", None),
    ("warden.coordinator:CoordinatorClient", "post_alert", "coordinator.client.post_alert", None),
    (
        "warden.coordinator:CoordinatorClient",
        "list_alerts",
        "coordinator.client.list_alerts",
        lambda a, k, r: len(r["alerts"]),
    ),
)

# generator methods: the time a consumer waits inside next() is summed, with
# no span per item (one trace streams tens of thousands of records)
ITER_TARGETS = (("warden.sandbox:TelemetryStream", "__iter__", "sandbox.stream"),)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    if class_name:
        obj = getattr(obj, class_name)
    return obj


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "thread", "count")

    def __init__(self, sid, name, start, end, parent, thread, count):
        self.sid, self.name, self.start, self.end = sid, name, start, end
        self.parent, self.thread, self.count = parent, thread, count

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9

    def to_list(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent, self.thread, self.count]


class Tracer:
    """Installs span wrappers, keeps spans in memory, computes self times."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            count = counter(args, kwargs, result) if counter else 0
            tracer.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), count))
            return result

        return wrapper

    def _wrap_iter(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                start = time.perf_counter_ns()
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.counters[name + ".wait_ns"] += time.perf_counter_ns() - start
                    return
                tracer.counters[name + ".wait_ns"] += time.perf_counter_ns() - start
                tracer.counters[name + ".items"] += 1
                yield item

        return wrapper

    def install(self) -> None:
        if self._undo:
            return
        for owner, attr, name, counter in TARGETS + tuple((o, a, n, "iter") for o, a, n in ITER_TARGETS):
            label = f"{owner.replace(':', '.')}.{attr}"
            try:
                obj = _resolve(owner)
                original = getattr(obj, attr)
            except (ImportError, AttributeError):
                if label not in self.missing:
                    self.missing.append(label)
                continue
            wrapped = self._wrap_iter(original, name) if counter == "iter" else self._wrap(original, name, counter)
            own = attr in vars(obj)  # a class may inherit the method; put back exactly what was there
            setattr(obj, attr, wrapped)
            self._undo.append((obj, attr, original, own))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original, own = self._undo.pop()
            if own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)

    # --- summaries ---------------------------------------------------------------

    def named(self, name: str, since: int = 0) -> list[Span]:
        return [s for s in self.spans[since:] if s.name == name]

    def total_s(self, name: str, since: int = 0) -> float:
        return sum(s.seconds for s in self.named(name, since))

    def count(self, name: str, since: int = 0) -> int:
        return sum(s.count for s in self.named(name, since))

    def self_s(self, name: str, since: int = 0) -> float:
        """Summed duration of ``name`` spans minus their direct children's durations."""
        spans = self.spans[since:]
        ids = {s.sid for s in spans if s.name == name}
        child = sum(s.end - s.start for s in spans if s.parent in ids)
        return self.total_s(name, since) - child / 1e9

    def p50_ms(self, name: str, since: int = 0) -> float:
        durations = [s.seconds * 1e3 for s in self.named(name, since)]
        return statistics.median(durations) if durations else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start_ns", "end_ns", "parent", "thread", "count"],
                    "spans": [s.to_list() for s in self.spans],
                    "counters": dict(self.counters),
                    "missing": self.missing,
                },
                fh,
            )
